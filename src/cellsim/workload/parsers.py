"""CSV trace parsers producing workload event streams.

Traces arrive as directories of (optionally gzipped) ``part-*.csv`` files
in the public cluster-trace v2 column layout (``COLUMNS``); ``job_events``
carries no per-task state and is not read.  Malformed lines are counted and
skipped; a parser must never crash the simulation.
"""

from __future__ import annotations

import csv
import gzip
import io
from pathlib import Path
from typing import Iterable, Iterator, Optional

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

# Task event codes.
TASK_ACTIONS = {
    0: "SUBMIT",
    1: "SCHEDULE",
    2: "EVICT",
    3: "FAIL",
    4: "FINISH",
    5: "KILL",
    6: "LOST",
    7: "UPDATE_PENDING",
    8: "UPDATE_RUNNING",
}

CONSTRAINT_OPERATORS = {
    0: ConstraintOperator.EQUAL,
    1: ConstraintOperator.NOT_EQUAL,
    2: ConstraintOperator.LESS_THAN,
    3: ConstraintOperator.GREATER_THAN,
}


#: Column index of each field, per trace file kind (cluster-trace v2).
COLUMNS = {
    "machine_events": {
        "timestamp": 0, "machine_id": 1, "event_type": 2,
        "platform_id": 3, "cpus": 4, "memory": 5,
    },
    "machine_attributes": {
        "timestamp": 0, "machine_id": 1, "attribute_name": 2,
        "attribute_value": 3, "deleted": 4,
    },
    "task_events": {
        "timestamp": 0, "job_id": 2, "task_index": 3, "machine_id": 4,
        "event_type": 5, "scheduling_class": 7, "priority": 8,
        "cpu_request": 9, "memory_request": 10,
    },
    "task_usage": {
        "start_time": 0, "end_time": 1, "job_id": 2, "task_index": 3,
        "machine_id": 4, "cpu_rate": 5, "canonical_memory": 6,
        "assigned_memory": 7,
    },
    "task_constraints": {
        "timestamp": 0, "job_id": 1, "task_index": 2,
        "comparison_operator": 3, "attribute_name": 4, "attribute_value": 5,
    },
}


class Row:
    """One CSV record with typed, error-checked field access."""

    __slots__ = ("values", "columns")

    def __init__(self, values: list[str], columns: dict):
        self.values = values
        self.columns = columns

    def get(self, name: str, default: str = "") -> str:
        index = self.columns[name]
        if index >= len(self.values):
            return default
        return self.values[index]

    def require(self, name: str) -> str:
        value = self.get(name)
        if value == "":
            raise ValueError(f"missing required field {name!r}")
        return value

    def int_field(self, name: str) -> int:
        return int(self.require(name))

    def float_field(self, name: str, default: float | None = None) -> float:
        raw = self.get(name)
        if raw == "":
            if default is None:
                raise ValueError(f"missing required field {name!r}")
            return default
        return float(raw)


def _open_maybe_gzip(path: Path) -> io.TextIOBase:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def iter_csv_rows(paths: Iterable[Path], columns: dict, sink: AnomalySink) -> Iterator[Row]:
    for path in paths:
        try:
            handle = _open_maybe_gzip(path)
        except OSError as exc:
            sink.report(AnomalyKind.CORRUPT_RECORD, f"cannot open {path}: {exc}")
            continue
        with handle:
            for values in csv.reader(handle):
                if not values:
                    continue
                yield Row(values, columns)


def trace_files(trace_dir: Path, kind: str) -> list[Path]:
    directory = Path(trace_dir) / kind
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.iterdir()
                  if p.name.startswith("part-") and (p.suffix == ".csv" or p.name.endswith(".csv.gz")))


def map_task_action(action: str, row: Row, sink: AnomalySink,
                    timestamp: int) -> Optional[ev.WorkloadEvent]:
    """Trace action -> event: submit adds, terminal actions remove, updates
    refresh requirements; scheduler-internal actions produce nothing."""
    task_id = f"{row.require('job_id')}-{row.require('task_index')}"
    if action == "SUBMIT":
        priority = int(row.get("priority") or 0)
        machine = row.get("machine_id")
        return ev.AddTaskEvent(
            timestamp=timestamp,
            task_id=task_id,
            required=(row.float_field("cpu_request", 0.0), row.float_field("memory_request", 0.0)),
            priority=priority,
            production=priority >= PRODUCTION_PRIORITY,
            recorded_node=machine or None,
        )
    if action == "SCHEDULE":
        return None
    if action in ("EVICT", "FAIL", "FINISH", "KILL", "LOST"):
        return ev.RemoveTaskEvent(timestamp=timestamp, task_id=task_id)
    if action in ("UPDATE_PENDING", "UPDATE_RUNNING"):
        return ev.UpdateTaskRequiredEvent(
            timestamp=timestamp,
            task_id=task_id,
            required=(row.float_field("cpu_request", 0.0), row.float_field("memory_request", 0.0)),
            priority=int(row.get("priority") or 0),
        )
    sink.report(AnomalyKind.CORRUPT_RECORD, f"unknown task action {action!r}")
    return None


class EventParser:
    """Base parser: reads rows, emits events in file order, skips bad lines."""

    kind: str = ""

    def __init__(self, paths: Iterable[Path], time_offset_us: int,
                 sink: AnomalySink | None = None):
        self.time_offset_us = time_offset_us
        self.sink = sink if sink is not None else AnomalySink()
        self.paths = list(paths)

    def _shift(self, timestamp: int) -> int:
        return max(0, timestamp - self.time_offset_us)

    def __iter__(self) -> Iterator[ev.WorkloadEvent]:
        for row in iter_csv_rows(self.paths, COLUMNS[self.kind], self.sink):
            try:
                event = self.parse_row(row)
            except (ValueError, KeyError, IndexError) as exc:
                self.sink.report(AnomalyKind.CORRUPT_RECORD, f"{self.kind}: {exc}")
                continue
            if event is not None:
                yield event

    def parse_row(self, row: Row) -> Optional[ev.WorkloadEvent]:
        raise NotImplementedError


class MachineEventsParser(EventParser):
    kind = "machine_events"

    def parse_row(self, row: Row) -> Optional[ev.WorkloadEvent]:
        timestamp = self._shift(row.int_field("timestamp"))
        machine_id = row.require("machine_id")
        code = row.int_field("event_type")
        if code == MACHINE_ADD:
            return ev.AddNodeEvent(
                timestamp=timestamp, node_id=machine_id,
                total=(row.float_field("cpus", 0.0), row.float_field("memory", 0.0)),
            )
        if code == MACHINE_REMOVE:
            return ev.RemoveNodeEvent(timestamp=timestamp, node_id=machine_id)
        if code == MACHINE_UPDATE:
            return ev.UpdateNodeTotalEvent(
                timestamp=timestamp, node_id=machine_id,
                total=(row.float_field("cpus", 0.0), row.float_field("memory", 0.0)),
            )
        raise ValueError(f"unknown machine event code {code}")


class MachineAttributesParser(EventParser):
    kind = "machine_attributes"

    def parse_row(self, row: Row) -> Optional[ev.WorkloadEvent]:
        timestamp = self._shift(row.int_field("timestamp"))
        machine_id = row.require("machine_id")
        name = row.require("attribute_name")
        if row.get("deleted") == "1":
            return ev.RemoveNodeAttributesEvent(
                timestamp=timestamp, node_id=machine_id, attribute_names=(name,),
            )
        return ev.AddNodeAttributesEvent(
            timestamp=timestamp, node_id=machine_id,
            attributes=((name, row.get("attribute_value")),),
        )


class TaskEventsParser(EventParser):
    """Task lifecycle rows; constraints reach the cell separately, as
    ``UpdateTaskConstraints`` events from the constraints parser."""

    kind = "task_events"

    def parse_row(self, row: Row) -> Optional[ev.WorkloadEvent]:
        timestamp = self._shift(row.int_field("timestamp"))
        code = row.int_field("event_type")
        action = TASK_ACTIONS.get(code)
        if action is None:
            self.sink.report(AnomalyKind.CORRUPT_RECORD, f"unknown task event code {code}")
            return None
        return map_task_action(action, row, self.sink, timestamp)


class TaskUsageParser(EventParser):
    kind = "task_usage"

    def parse_row(self, row: Row) -> Optional[ev.WorkloadEvent]:
        timestamp = self._shift(row.int_field("start_time"))
        task_id = f"{row.require('job_id')}-{row.require('task_index')}"
        canonical = row.float_field("canonical_memory", 0.0)
        assigned = row.float_field("assigned_memory", canonical)
        return ev.UpdateTaskUsedEvent(
            timestamp=timestamp,
            task_id=task_id,
            used=(row.float_field("cpu_rate", 0.0), max(canonical, assigned)),
            canonical_memory=canonical,
        )


class TaskConstraintsParser(EventParser):
    kind = "task_constraints"

    def _parse_constraint(self, row: Row) -> tuple[int, str, TaskConstraint]:
        timestamp = self._shift(row.int_field("timestamp"))
        task_id = f"{row.require('job_id')}-{row.require('task_index')}"
        operator = CONSTRAINT_OPERATORS.get(row.int_field("comparison_operator"))
        if operator is None:
            raise ValueError("unknown constraint operator")
        value = row.get("attribute_value")
        if operator in (ConstraintOperator.LESS_THAN, ConstraintOperator.GREATER_THAN):
            int(value)  # numeric operators require integer values
        return timestamp, task_id, TaskConstraint(operator, row.require("attribute_name"), value)

    def __iter__(self) -> Iterator[ev.WorkloadEvent]:
        # One trace row holds one constraint, but updates replace the whole
        # set: merge consecutive rows sharing (timestamp, task) into one event.
        current: Optional[tuple[int, str]] = None
        collected: list[TaskConstraint] = []
        for row in iter_csv_rows(self.paths, COLUMNS[self.kind], self.sink):
            try:
                timestamp, task_id, constraint = self._parse_constraint(row)
            except (ValueError, KeyError, IndexError) as exc:
                self.sink.report(AnomalyKind.CORRUPT_RECORD, f"{self.kind}: {exc}")
                continue
            key = (timestamp, task_id)
            if key != current:
                if current is not None:
                    yield ev.UpdateTaskConstraintsEvent(
                        timestamp=current[0], task_id=current[1], constraints=tuple(collected),
                    )
                current, collected = key, []
            collected.append(constraint)
        if current is not None:
            yield ev.UpdateTaskConstraintsEvent(
                timestamp=current[0], task_id=current[1], constraints=tuple(collected),
            )


PARSER_CLASSES = {
    "machine_events": MachineEventsParser,
    "machine_attributes": MachineAttributesParser,
    "task_events": TaskEventsParser,
    "task_usage": TaskUsageParser,
    "task_constraints": TaskConstraintsParser,
}


def open_trace_directory(trace_dir: Path, time_offset_us: int,
                         sink: AnomalySink | None = None) -> list[EventParser]:
    """All parsers with files present under the standard directory names."""
    sink = sink if sink is not None else AnomalySink()
    parsers = []
    for kind, parser_cls in PARSER_CLASSES.items():
        paths = trace_files(trace_dir, kind)
        if paths:
            parsers.append(parser_cls(paths, time_offset_us, sink))
    return parsers
