"""Trace irregularity detection and reporting.

Real traces contain corrupt records, tasks whose constraints no machine can
ever satisfy, events that arrive after their window, and windows where
reported global usage exceeds global capacity.  The first three are dropped
and counted; over-usage windows are only flagged so metrics can exclude
them, since the underlying events are real.  Replay also reports each task
whose recorded machine is not in the cell: the task stays pending.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import events as ev
from .constraints import matches_attributes


class AnomalyKind(enum.Enum):
    UNMATCHABLE_CONSTRAINTS = "UnmatchableConstraints"
    OVER_USAGE_WINDOW = "OverUsageWindow"
    CORRUPT_RECORD = "CorruptRecord"
    LATE_EVENT = "LateEvent"
    UNPLACEABLE_TASK = "UnplaceableTask"


@dataclass(frozen=True)
class AnomalyReport:
    kind: AnomalyKind
    detail: str
    count: int = 1

    def as_line(self) -> str:
        return f"{self.kind.value}\t{self.count}\t{self.detail}"


class AnomalySink:
    """Collects anomaly reports until drained, and counts them per kind."""

    def __init__(self):
        self.reports: list[AnomalyReport] = []
        self.counts: dict[AnomalyKind, int] = {kind: 0 for kind in AnomalyKind}

    def report(self, kind: AnomalyKind, detail: str, count: int = 1) -> None:
        self.reports.append(AnomalyReport(kind, detail, count))
        self.counts[kind] += count

    def count(self, kind: AnomalyKind) -> int:
        return self.counts[kind]

    def drain(self) -> list[AnomalyReport]:
        out = self.reports
        self.reports = []
        return out


def filter_anomalies(cell_state, batch: ev.EventBatch) -> tuple[ev.EventBatch, list[AnomalyReport]]:
    """Drop unmatchable tasks; flag over-usage windows.

    A task whose constraints match no node, as the batch's earlier node
    events leave the cell, can never be placed.  Its AddTask is dropped, and
    a constraint update that leaves it so is replaced, in place, by the
    task's removal at the same timestamp; either is reported.  Node events
    are never dropped.  When the summed used memory of
    all tasks exceeds total cell memory within this window, the batch is
    flagged (events retained).
    """
    reports: list[AnomalyReport] = []
    # node id -> attributes; a dict the batch changes is copied, not written
    attributes = {node_id: node.attributes for node_id, node in cell_state.nodes.items()}
    kept: list[ev.WorkloadEvent] = []
    for event in batch:
        kind = event.kind
        if kind is ev.EventKind.ADD_NODE:
            attributes[event.node_id] = dict(event.attributes)
        elif kind is ev.EventKind.REMOVE_NODE:
            attributes.pop(event.node_id, None)
        elif kind is ev.EventKind.ADD_NODE_ATTRIBUTES and event.node_id in attributes:
            attributes[event.node_id] = {**attributes[event.node_id], **dict(event.attributes)}
        elif kind is ev.EventKind.REMOVE_NODE_ATTRIBUTES and event.node_id in attributes:
            attributes[event.node_id] = {name: value for name, value in attributes[event.node_id].items()
                                         if name not in event.attribute_names}
        elif kind in (ev.EventKind.ADD_TASK, ev.EventKind.UPDATE_TASK_CONSTRAINTS) and \
                event.constraints and not any(
                    matches_attributes(event.constraints, attrs) for attrs in attributes.values()):
            added = kind is ev.EventKind.ADD_TASK
            reports.append(AnomalyReport(
                AnomalyKind.UNMATCHABLE_CONSTRAINTS,
                f"task {event.task_id} matches no node; {'dropped' if added else 'removed'}"))
            if added:
                continue
            event = ev.RemoveTaskEvent(event.timestamp, event.task_id)
        kept.append(event)

    if "memory" in cell_state.catalog.names and cell_state.nodes:
        memory_index = cell_state.catalog.index("memory")
        capacity = sum(node.total[memory_index] for node in cell_state.nodes.values())
        used = sum(task.used[memory_index] for task in cell_state.tasks.values())
        if capacity > 0 and used > capacity:
            reports.append(AnomalyReport(
                AnomalyKind.OVER_USAGE_WINDOW,
                f"window [{batch.window_start},{batch.window_end}): "
                f"used memory {used:.4f} exceeds capacity {capacity:.4f}",
            ))

    filtered = ev.EventBatch(batch.window_start, batch.window_end, tuple(kept))
    return filtered, reports
