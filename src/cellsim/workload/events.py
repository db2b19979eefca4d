"""Immutable, timestamped workload events.

Every change to the simulated cell's configuration flows through one of the
ten event variants below, so the whole cell state is a deterministic fold
over the event stream.  Timestamps are integer microseconds of simulation
time, following the trace convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..model import Vector
from .constraints import TaskConstraint

#: Microseconds in a minute of simulation time: the default tick.
MINUTE_US = 60 * 1_000_000


class EventKind(enum.Enum):
    ADD_TASK = "AddTask"
    UPDATE_TASK_REQUIRED = "UpdateTaskRequiredResources"
    UPDATE_TASK_USED = "UpdateTaskUsedResources"
    UPDATE_TASK_CONSTRAINTS = "UpdateTaskConstraints"
    REMOVE_TASK = "RemoveTask"
    ADD_NODE = "AddNode"
    UPDATE_NODE_TOTAL = "UpdateNodeTotalResources"
    ADD_NODE_ATTRIBUTES = "AddNodeAttributes"
    REMOVE_NODE_ATTRIBUTES = "RemoveNodeAttributes"
    REMOVE_NODE = "RemoveNode"


# Within one timestamp, node events land before task events and removals
# before additions, so an AddTask can target a node added in the same batch
# and freed capacity is visible before new demand.  Usage/constraint updates
# follow the AddTask that introduces the task.
VARIANT_PRIORITY = {
    EventKind.REMOVE_NODE: 0,
    EventKind.ADD_NODE: 1,
    EventKind.UPDATE_NODE_TOTAL: 2,
    EventKind.REMOVE_NODE_ATTRIBUTES: 3,
    EventKind.ADD_NODE_ATTRIBUTES: 4,
    EventKind.REMOVE_TASK: 5,
    EventKind.ADD_TASK: 6,
    EventKind.UPDATE_TASK_REQUIRED: 7,
    EventKind.UPDATE_TASK_USED: 8,
    EventKind.UPDATE_TASK_CONSTRAINTS: 9,
}


@dataclass(frozen=True)
class WorkloadEvent:
    timestamp: int

    @property
    def kind(self) -> EventKind:
        raise NotImplementedError


@dataclass(frozen=True)
class AddTaskEvent(WorkloadEvent):
    task_id: str
    required: Vector
    priority: int = 0
    production: bool = False
    constraints: tuple[TaskConstraint, ...] = ()
    #: Placement recorded in the trace; replay mode mirrors it, the
    #: scheduling engines ignore it.
    recorded_node: Optional[str] = None

    kind = EventKind.ADD_TASK


@dataclass(frozen=True)
class UpdateTaskRequiredEvent(WorkloadEvent):
    task_id: str
    required: Vector
    priority: Optional[int] = None

    kind = EventKind.UPDATE_TASK_REQUIRED


@dataclass(frozen=True)
class UpdateTaskUsedEvent(WorkloadEvent):
    task_id: str
    used: Vector
    #: Canonical (kernel) memory, a node share like ``used``; the cell fold
    #: leaves it out of the task's migration cost.
    canonical_memory: float = 0.0

    kind = EventKind.UPDATE_TASK_USED


@dataclass(frozen=True)
class UpdateTaskConstraintsEvent(WorkloadEvent):
    task_id: str
    constraints: tuple[TaskConstraint, ...]

    kind = EventKind.UPDATE_TASK_CONSTRAINTS


@dataclass(frozen=True)
class RemoveTaskEvent(WorkloadEvent):
    task_id: str

    kind = EventKind.REMOVE_TASK


@dataclass(frozen=True)
class AddNodeEvent(WorkloadEvent):
    node_id: str
    total: Vector
    attributes: tuple[tuple[str, str], ...] = ()

    kind = EventKind.ADD_NODE


@dataclass(frozen=True)
class UpdateNodeTotalEvent(WorkloadEvent):
    node_id: str
    total: Vector

    kind = EventKind.UPDATE_NODE_TOTAL


@dataclass(frozen=True)
class AddNodeAttributesEvent(WorkloadEvent):
    node_id: str
    attributes: tuple[tuple[str, str], ...]

    kind = EventKind.ADD_NODE_ATTRIBUTES


@dataclass(frozen=True)
class RemoveNodeAttributesEvent(WorkloadEvent):
    node_id: str
    attribute_names: tuple[str, ...]

    kind = EventKind.REMOVE_NODE_ATTRIBUTES


@dataclass(frozen=True)
class RemoveNodeEvent(WorkloadEvent):
    node_id: str

    kind = EventKind.REMOVE_NODE


@dataclass(frozen=True)
class EventBatch:
    """Merged, sorted events covering [window_start, window_end)."""

    window_start: int
    window_end: int
    events: tuple[WorkloadEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not (self.window_start <= event.timestamp < self.window_end):
                raise ValueError(
                    f"event at {event.timestamp} outside window "
                    f"[{self.window_start}, {self.window_end})"
                )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def sort_events(events) -> list[WorkloadEvent]:
    """Sort by timestamp, then by ``VARIANT_PRIORITY``; the sort is stable,
    so events that tie on both keep their input (source) order."""
    return sorted(events, key=lambda e: (e.timestamp, VARIANT_PRIORITY[e.kind]))
