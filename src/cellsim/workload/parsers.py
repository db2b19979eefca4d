"""CSV trace parsers producing workload event streams.

Traces arrive as directories of (optionally gzipped) ``part-*.csv`` files
in the public cluster-trace v2 table layout (``LAYOUT``); ``job_events``
carries no per-task state and is not read.  Malformed lines, and numbers
that are NaN, infinite or negative, are counted and skipped, and a part
that cannot be read to its end is reported once and left there; a parser
must never crash the simulation.
"""

from __future__ import annotations

import csv
import gzip
import io
import itertools
import math
import zlib
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from . import events as ev
from .anomalies import AnomalyKind, AnomalySink
from .constraints import ConstraintOperator, TaskConstraint

#: Ten-minute shift: trace timestamps below this describe pre-existing cell
#: state, so a shifted run re-bases them to simulation time zero.
GCD_TIME_SHIFT_US = 600 * 1_000_000

#: Priority at or above this marks a production task (trace convention: the
#: top priority band is production).
PRODUCTION_PRIORITY = 9

# Machine event codes.
MACHINE_ADD, MACHINE_REMOVE, MACHINE_UPDATE = 0, 1, 2

# Task (and job) event codes; EVICT through LOST end a task.
(TASK_SUBMIT, TASK_SCHEDULE, TASK_EVICT, TASK_FAIL, TASK_FINISH, TASK_KILL, TASK_LOST,
 TASK_UPDATE_PENDING, TASK_UPDATE_RUNNING) = range(9)

#: Constraint operators in the order of their codes.
CONSTRAINT_OPERATORS = (ConstraintOperator.EQUAL, ConstraintOperator.NOT_EQUAL,
                        ConstraintOperator.LESS_THAN, ConstraintOperator.GREATER_THAN)

#: Each table's leading columns in file order (cluster-trace v2), as far as
#: cellsim reads or writes them; later columns are ignored.  Every table's
#: first column is its timestamp.
LAYOUT = {table: tuple(columns.split()) for table, columns in {
    "machine_events": "timestamp machine_id event_type platform_id cpus memory",
    "machine_attributes": "timestamp machine_id attribute_name attribute_value deleted",
    "job_events": "timestamp missing_info job_id event_type user scheduling_class",
    "task_events": "timestamp missing_info job_id task_index machine_id event_type user "
                   "scheduling_class priority cpu_request memory_request disk_space_request "
                   "different_machines_restriction",
    "task_usage": "start_time end_time job_id task_index machine_id cpu_rate "
                  "canonical_memory assigned_memory",
    "task_constraints": "timestamp job_id task_index comparison_operator attribute_name "
                        "attribute_value",
}.items()}


class Row:
    """The current CSV record of one table, read by column name; a field
    past the record's end reads as empty."""

    __slots__ = ("values", "names", "index")

    def __init__(self, names: tuple[str, ...]):
        self.values: list[str] = []
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def get(self, name: str) -> str:
        index = self.index[name]
        return self.values[index] if index < len(self.values) else ""

    def require(self, name: str) -> str:
        value = self.get(name)
        if value == "":
            raise ValueError(f"missing required field {name!r}")
        return value

    def int_field(self, name: str) -> int:
        return int(self.require(name))

    def float_field(self, name: str, default: float) -> float:
        """The field as a number; every numeric field read is a capacity,
        request or usage, so a NaN, infinite or negative value is refused."""
        raw = self.get(name)
        if not raw:
            return default
        value = float(raw)
        if not 0.0 <= value < math.inf:
            raise ValueError(f"field {name!r} is not a finite non-negative number: {raw!r}")
        return value

    def request(self) -> tuple[float, float]:
        return self.float_field("cpu_request", 0.0), self.float_field("memory_request", 0.0)

    def task_id(self) -> str:
        return f"{self.require('job_id')}-{self.require('task_index')}"


class TaskCodeError(ValueError):
    """An unknown task event code: its report names no table."""


def machine_event(row: Row, timestamp: int) -> ev.WorkloadEvent:
    machine_id = row.require("machine_id")
    code = row.int_field("event_type")
    if code == MACHINE_REMOVE:
        return ev.RemoveNodeEvent(timestamp=timestamp, node_id=machine_id)
    if code not in (MACHINE_ADD, MACHINE_UPDATE):
        raise ValueError(f"unknown machine event code {code}")
    event = ev.AddNodeEvent if code == MACHINE_ADD else ev.UpdateNodeTotalEvent
    return event(timestamp=timestamp, node_id=machine_id,
                 total=(row.float_field("cpus", 0.0), row.float_field("memory", 0.0)))


def machine_attribute(row: Row, timestamp: int) -> ev.WorkloadEvent:
    machine_id = row.require("machine_id")
    name = row.require("attribute_name")
    if row.get("deleted") == "1":
        return ev.RemoveNodeAttributesEvent(
            timestamp=timestamp, node_id=machine_id, attribute_names=(name,))
    return ev.AddNodeAttributesEvent(
        timestamp=timestamp, node_id=machine_id,
        attributes=((name, row.get("attribute_value")),))


def task_event(row: Row, timestamp: int) -> Optional[ev.WorkloadEvent]:
    """Submit adds, terminal codes remove, updates refresh requirements;
    SCHEDULE produces nothing.  Constraints arrive separately, as
    ``UpdateTaskConstraints`` events from ``task_constraints``."""
    code = row.int_field("event_type")
    if not TASK_SUBMIT <= code <= TASK_UPDATE_RUNNING:
        raise TaskCodeError(f"unknown task event code {code}")
    task_id = row.task_id()
    if code == TASK_SUBMIT:
        priority = int(row.get("priority") or 0)
        machine = row.get("machine_id")
        return ev.AddTaskEvent(
            timestamp=timestamp, task_id=task_id, required=row.request(), priority=priority,
            production=priority >= PRODUCTION_PRIORITY, recorded_node=machine or None)
    if code == TASK_SCHEDULE:
        return None
    if code < TASK_UPDATE_PENDING:
        return ev.RemoveTaskEvent(timestamp=timestamp, task_id=task_id)
    return ev.UpdateTaskRequiredEvent(timestamp=timestamp, task_id=task_id, required=row.request(),
                                      priority=int(row.get("priority") or 0))


def task_usage(row: Row, timestamp: int) -> ev.WorkloadEvent:
    task_id = row.task_id()
    canonical = row.float_field("canonical_memory", 0.0)
    assigned = row.float_field("assigned_memory", canonical)
    return ev.UpdateTaskUsedEvent(
        timestamp=timestamp, task_id=task_id,
        used=(row.float_field("cpu_rate", 0.0), max(canonical, assigned)),
        canonical_memory=canonical)


def task_constraint(row: Row, timestamp: int) -> ev.WorkloadEvent:
    """One constraint, as a one-entry update; ``merge_constraints`` joins
    the rows of one update."""
    task_id = row.task_id()
    code = row.int_field("comparison_operator")
    if not 0 <= code < len(CONSTRAINT_OPERATORS):
        raise ValueError("unknown constraint operator")
    operator = CONSTRAINT_OPERATORS[code]
    value = row.get("attribute_value")
    if operator in (ConstraintOperator.LESS_THAN, ConstraintOperator.GREATER_THAN):
        int(value)  # numeric operators require integer values
    return ev.UpdateTaskConstraintsEvent(
        timestamp=timestamp, task_id=task_id,
        constraints=(TaskConstraint(operator, row.require("attribute_name"), value),))


#: Each read table's row function, ``(row, timestamp) -> event | None``, in
#: the order ``open_trace_directory`` lists the tables.
ROW_EVENTS: dict[str, Callable[[Row, int], Optional[ev.WorkloadEvent]]] = {
    "machine_events": machine_event,
    "machine_attributes": machine_attribute,
    "task_events": task_event,
    "task_usage": task_usage,
    "task_constraints": task_constraint,
}

#: What reading a part can raise: I/O and gzip faults, a truncated gzip
#: stream, bytes that are not UTF-8, an over-long CSV field.
_UNREADABLE = (OSError, EOFError, zlib.error, UnicodeDecodeError, csv.Error)


def parse_table(kind: str, paths: Iterable[Path], time_offset_us: int,
                sink: AnomalySink) -> Iterator[ev.WorkloadEvent]:
    """The events of one table's parts, in file order.  Timestamps are
    shifted back by ``time_offset_us`` and clamped at zero.  A bad row is a
    ``CorruptRecord``; a part that cannot be read to its end is one, too,
    after the events read before the fault."""
    row_event = ROW_EVENTS[kind]
    row = Row(LAYOUT[kind])
    for path in paths:
        try:
            handle = (io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
                      if path.suffix == ".gz" else open(path, encoding="utf-8", newline=""))
        except OSError as exc:
            sink.report(AnomalyKind.CORRUPT_RECORD, f"cannot open {path}: {exc}")
            continue
        rows = 0
        with handle:
            try:
                for values in csv.reader(handle):
                    if not values:
                        continue
                    rows += 1
                    row.values = values
                    try:
                        timestamp = max(0, row.int_field(row.names[0]) - time_offset_us)
                        event = row_event(row, timestamp)
                    except TaskCodeError as exc:
                        sink.report(AnomalyKind.CORRUPT_RECORD, str(exc))
                        continue
                    except ValueError as exc:
                        sink.report(AnomalyKind.CORRUPT_RECORD, f"{kind}: {exc}")
                        continue
                    if event is not None:
                        yield event
            except _UNREADABLE as exc:
                sink.report(AnomalyKind.CORRUPT_RECORD,
                            f"{kind}: cannot read {path} after {rows} rows: {exc}")


def merge_constraints(events: Iterable[ev.WorkloadEvent]) -> Iterator[ev.WorkloadEvent]:
    """One trace row holds one constraint, but an update replaces the whole
    set: consecutive rows sharing (timestamp, task) become one event."""
    for (timestamp, task_id), group in itertools.groupby(
            events, key=lambda event: (event.timestamp, event.task_id)):
        yield ev.UpdateTaskConstraintsEvent(
            timestamp=timestamp, task_id=task_id,
            constraints=tuple(c for event in group for c in event.constraints))


def open_trace_directory(trace_dir: Path, time_offset_us: int,
                         sink: AnomalySink | None = None) -> list[Iterator[ev.WorkloadEvent]]:
    """One lazy event stream per table with parts present, in ``ROW_EVENTS``
    order: the window merge keeps that order among events that tie."""
    sink = sink if sink is not None else AnomalySink()
    streams = []
    for kind in ROW_EVENTS:
        paths = sorted(p for p in (Path(trace_dir) / kind).glob("part-*")
                       if p.suffix == ".csv" or p.name.endswith(".csv.gz"))
        if paths:
            stream = parse_table(kind, paths, time_offset_us, sink)
            streams.append(merge_constraints(stream) if kind == "task_constraints" else stream)
    return streams
