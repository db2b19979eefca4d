"""The resource catalog both engines share, and the fixture model.

``ResourceTypeCatalog`` names the resource types of one simulation; a
running simulation keeps its cell in the mutable ``workload.state.CellState``.
The rest is the model the fixture scenarios load into: a frozen
``SystemState`` of nodes with capacity vectors, tasks with requirement
vectors and migration costs, and a task id -> node id dict.  A node is
*stable* when no resource is over-committed; moving a task between nodes
costs its migration size in MB.  The scalar functions below are the
reference a strategy's fixture result is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

Vector = tuple[float, ...]


class UnknownIdError(KeyError):
    """Raised when an operation references a node or task id not in the state."""


def as_vector(values: Iterable[float]) -> Vector:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class ResourceTypeCatalog:
    """Ordered catalog of the resource types tracked in one simulation."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("catalog needs at least one resource type")
        if len(set(self.names)) != len(self.names):
            raise ValueError("resource type names must be unique")
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def dimension(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class NodeSpec:
    """A node and its capacity vector."""

    id: str
    total: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", as_vector(self.total))
        if any(v < 0 for v in self.total):
            raise ValueError(f"node {self.id}: capacities must be non-negative")


@dataclass(frozen=True)
class TaskSpec:
    """A task: its declared requirements and its migration cost."""

    id: str
    required: Vector
    migration_cost_mb: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "required", as_vector(self.required))
        if any(v < 0 for v in self.required):
            raise ValueError(f"task {self.id}: resource vectors must be non-negative")
        if not self.migration_cost_mb > 0:
            raise ValueError(f"task {self.id}: migration cost must be positive")


@dataclass(frozen=True)
class SystemState:
    """The full system: catalog, nodes, tasks and a task id -> node id dict.

    The dict is copied, so the state stays a value.  Its node ids are not
    restricted to ``nodes``: an origin may point at a node outside the
    scenario.  Such a task loads no node and always pays its migration
    cost when re-placed.
    """

    catalog: ResourceTypeCatalog
    nodes: tuple[NodeSpec, ...]
    tasks: tuple[TaskSpec, ...]
    assignment: dict[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "assignment", dict(self.assignment))
        dim = self.catalog.dimension
        node_ids = [n.id for n in self.nodes]
        task_ids = [t.id for t in self.tasks]
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("duplicate node ids")
        if len(set(task_ids)) != len(task_ids):
            raise ValueError("duplicate task ids")
        for node in self.nodes:
            if len(node.total) != dim:
                raise ValueError(f"node {node.id}: vector dimension mismatch")
        for task in self.tasks:
            if len(task.required) != dim:
                raise ValueError(f"task {task.id}: vector dimension mismatch")
        for task_id in task_ids:
            if task_id not in self.assignment:
                raise ValueError(f"task {task_id} has no assignment")

    @cached_property
    def node_by_id(self) -> dict[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def tasks_by_node(self) -> dict[str, tuple[TaskSpec, ...]]:
        grouped: dict[str, list[TaskSpec]] = {n.id: [] for n in self.nodes}
        for task in self.tasks:
            node_id = self.assignment[task.id]
            if node_id in grouped:
                grouped[node_id].append(task)
        return {nid: tuple(ts) for nid, ts in grouped.items()}

    def node(self, node_id: str) -> NodeSpec:
        try:
            return self.node_by_id[node_id]
        except KeyError:
            raise UnknownIdError(f"unknown node {node_id!r}") from None


def available_resources(state: SystemState, node_id: str) -> Vector:
    """Capacity minus the summed requirements of resident tasks; may go
    negative.  The centralized balancer works from declared requirements."""
    node = state.node(node_id)
    levels = list(node.total)
    for task in state.tasks_by_node.get(node_id, ()):
        for i, value in enumerate(task.required):
            levels[i] -= value
    return tuple(levels)


def is_node_stable(state: SystemState, node_id: str) -> bool:
    """Exact comparison on purpose: trace values are finite decimals."""
    return all(v >= 0 for v in available_resources(state, node_id))


def is_system_stable(state: SystemState) -> bool:
    return all(is_node_stable(state, node.id) for node in state.nodes)


def migration_cost(task: TaskSpec, from_assignment: Mapping[str, str],
                   to_assignment: Mapping[str, str]) -> float:
    """Zero when the task stays put, otherwise the task's full transfer size."""
    if task.id not in from_assignment or task.id not in to_assignment:
        raise UnknownIdError(f"task {task.id!r} missing from an assignment")
    if from_assignment[task.id] == to_assignment[task.id]:
        return 0.0
    return task.migration_cost_mb


def transformation_cost(
    from_assignment: Mapping[str, str],
    to_assignment: Mapping[str, str],
    tasks: Sequence[TaskSpec],
) -> float:
    return sum(migration_cost(t, from_assignment, to_assignment) for t in tasks)
