"""Mutable cell runtime built by folding workload events.

The engines (replay, metaheuristic, agent-based) all consume this runtime:
it tracks nodes, tasks, attributes and the recorded/live placements.  The
engines read it directly; the centralized balancer packs it into arrays
(``PackedProblem.from_cell``) every tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import model
from ..livemigration import TraceCostModel, lmdt_estimate
from .constraints import TaskConstraint
from . import events as ev


@dataclass
class TaskRuntime:
    task_id: str
    required: model.Vector
    used: model.Vector
    migration_cost_mb: float
    priority: int = 0
    production: bool = False
    constraints: tuple[TaskConstraint, ...] = ()
    unstarted: bool = True
    recorded_node: Optional[str] = None


@dataclass
class NodeRuntime:
    node_id: str
    total: model.Vector
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass
class Counters:
    tasks_added: int = 0
    tasks_removed: int = 0
    nodes_added: int = 0
    nodes_removed: int = 0
    events_applied: int = 0


class CellState:
    """The folded cell: nodes, tasks and a task -> node placement map.

    Placement is engine-owned: this class only stores it; who decides it
    (trace replay or a balancer) is up to the driver.  Tasks without a node
    sit in the pending set.
    """

    def __init__(self, catalog: model.ResourceTypeCatalog, cost_model: TraceCostModel | None = None):
        self.catalog = catalog
        self.cost_model = cost_model
        self.nodes: dict[str, NodeRuntime] = {}
        self.tasks: dict[str, TaskRuntime] = {}
        self.placement: dict[str, str] = {}
        self.pending: list[str] = []
        self.counters = Counters()
        self._memory_index = catalog.index("memory") if "memory" in catalog.names else None
        # running sums for cheap per-tick ratios
        dim = catalog.dimension
        self.capacity_sum = model.zero_vector(dim)
        self.placed_used_sum = model.zero_vector(dim)
        self.placed_required_sum = model.zero_vector(dim)

    # -- placement bookkeeping -------------------------------------------------

    def place(self, task_id: str, node_id: str) -> None:
        if task_id not in self.tasks:
            raise model.UnknownIdError(f"unknown task {task_id!r}")
        if node_id not in self.nodes:
            raise model.UnknownIdError(f"unknown node {node_id!r}")
        if task_id not in self.placement:
            task = self.tasks[task_id]
            self.placed_used_sum = model.vec_add(self.placed_used_sum, task.used)
            self.placed_required_sum = model.vec_add(self.placed_required_sum, task.required)
        self.placement[task_id] = node_id
        try:
            self.pending.remove(task_id)
        except ValueError:
            pass

    def unplace(self, task_id: str) -> None:
        if self.placement.pop(task_id, None) is not None and task_id in self.tasks:
            task = self.tasks[task_id]
            self.placed_used_sum = model.vec_sub(self.placed_used_sum, task.used)
            self.placed_required_sum = model.vec_sub(self.placed_required_sum, task.required)
        if task_id in self.tasks and task_id not in self.pending:
            self.pending.append(task_id)

    # -- event fold --------------------------------------------------------------

    def _default_cost(self) -> float:
        if self.cost_model is not None:
            return lmdt_estimate(self.cost_model.profile, 0.0)
        return 100.0

    def _derive_cost(self, event: ev.UpdateTaskUsedEvent) -> Optional[float]:
        if event.migration_cost_mb is not None:
            return event.migration_cost_mb
        if self.cost_model is None or self._memory_index is None:
            return None
        used_mem = event.used[self._memory_index] if len(event.used) > self._memory_index else 0.0
        return self.cost_model.cost_mb(used_mem, event.canonical_memory)

    def apply(self, event: ev.WorkloadEvent) -> None:
        self.counters.events_applied += 1
        kind = event.kind
        if kind is ev.EventKind.ADD_NODE:
            previous = self.nodes.get(event.node_id)
            if previous is not None:
                self.capacity_sum = model.vec_sub(self.capacity_sum, previous.total)
            self.nodes[event.node_id] = NodeRuntime(
                node_id=event.node_id,
                total=model.as_vector(event.total),
                attributes=dict(event.attributes),
            )
            self.capacity_sum = model.vec_add(self.capacity_sum, self.nodes[event.node_id].total)
            self.counters.nodes_added += 1
        elif kind is ev.EventKind.REMOVE_NODE:
            removed = self.nodes.pop(event.node_id, None)
            if removed is not None:
                self.capacity_sum = model.vec_sub(self.capacity_sum, removed.total)
                self.counters.nodes_removed += 1
            for task_id, node_id in list(self.placement.items()):
                if node_id == event.node_id:
                    self.unplace(task_id)
        elif kind is ev.EventKind.UPDATE_NODE_TOTAL:
            node = self.nodes.get(event.node_id)
            if node is not None:
                self.capacity_sum = model.vec_sub(self.capacity_sum, node.total)
                node.total = model.as_vector(event.total)
                self.capacity_sum = model.vec_add(self.capacity_sum, node.total)
        elif kind is ev.EventKind.ADD_NODE_ATTRIBUTES:
            node = self.nodes.get(event.node_id)
            if node is not None:
                node.attributes.update(dict(event.attributes))
        elif kind is ev.EventKind.REMOVE_NODE_ATTRIBUTES:
            node = self.nodes.get(event.node_id)
            if node is not None:
                for name in event.attribute_names:
                    node.attributes.pop(name, None)
        elif kind is ev.EventKind.ADD_TASK:
            dim = self.catalog.dimension
            self.tasks[event.task_id] = TaskRuntime(
                task_id=event.task_id,
                required=model.as_vector(event.required),
                used=model.zero_vector(dim),
                migration_cost_mb=self._default_cost(),
                priority=event.priority,
                production=event.production,
                constraints=tuple(event.constraints),
                unstarted=True,
                recorded_node=event.recorded_node,
            )
            self.counters.tasks_added += 1
            if event.task_id not in self.placement and event.task_id not in self.pending:
                self.pending.append(event.task_id)
        elif kind is ev.EventKind.REMOVE_TASK:
            task = self.tasks.pop(event.task_id, None)
            if task is not None:
                self.counters.tasks_removed += 1
                if self.placement.pop(event.task_id, None) is not None:
                    self.placed_used_sum = model.vec_sub(self.placed_used_sum, task.used)
                    self.placed_required_sum = model.vec_sub(self.placed_required_sum, task.required)
            try:
                self.pending.remove(event.task_id)
            except ValueError:
                pass
        elif kind is ev.EventKind.UPDATE_TASK_REQUIRED:
            task = self.tasks.get(event.task_id)
            if task is not None:
                if event.task_id in self.placement:
                    self.placed_required_sum = model.vec_add(
                        model.vec_sub(self.placed_required_sum, task.required),
                        model.as_vector(event.required))
                task.required = model.as_vector(event.required)
                if event.priority is not None:
                    task.priority = event.priority
        elif kind is ev.EventKind.UPDATE_TASK_USED:
            task = self.tasks.get(event.task_id)
            if task is not None:
                if event.task_id in self.placement:
                    self.placed_used_sum = model.vec_add(
                        model.vec_sub(self.placed_used_sum, task.used),
                        model.as_vector(event.used))
                task.used = model.as_vector(event.used)
                task.unstarted = False
                cost = self._derive_cost(event)
                if cost is not None:
                    task.migration_cost_mb = cost
        elif kind is ev.EventKind.UPDATE_TASK_CONSTRAINTS:
            task = self.tasks.get(event.task_id)
            if task is not None:
                # Constraint updates replace the whole set.
                task.constraints = tuple(event.constraints)
        else:
            raise ValueError(f"unhandled event kind {kind!r}")

    # -- invariants --------------------------------------------------------------

    def conservation_holds(self) -> bool:
        accounted = set(self.placement) | set(self.pending)
        return accounted == set(self.tasks) and len(self.placement) + len(self.pending) == len(self.tasks)
