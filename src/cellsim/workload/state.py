"""Mutable cell runtime built by folding workload events.

The engines (replay, metaheuristic, agent-based) all consume this runtime:
it tracks nodes, tasks, attributes, the recorded/live placements and, per
node, the resident tasks and the float64 sums of their used, required and
production-required vectors.  The fold turns each event's vectors into
read-only float64 arrays once (``frozen_vector``); every later layer uses
those arrays as they are, and an event replaces a vector, never writes
into it, so a reader may keep one.  Only the per-node sums change in
place.  Placement moves (``place``) and task events keep those sums
current, so this is the one place a node's load
is defined: the agents read it, ``node_table`` stacks it for ``ticks.csv``
and the usage dumps, and the centralized balancer packs the cell into arrays
(``PackedProblem.from_cell``) every tick.  It is also the one place a task's
migration cost is derived, from its used memory, whatever the event source,
and the one place constraints meet node attributes: one boolean row over
the sorted node ids per distinct constraint tuple (``eligible``), built on
first ask and dropped by the node events that can make it stale (or when
they fill ``ROW_CELLS``); ``admits`` answers for one node without building one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import model
from ..livemigration import BUILTIN_PROFILES, MigrationProfile, lmdt_estimate, memory_mb
from .constraints import TaskConstraint, matches_attributes
from . import events as ev


def frozen_vector(values) -> np.ndarray:
    vector = np.array(values, dtype=np.float64)
    vector.flags.writeable = False
    return vector


@dataclass(eq=False)
class TaskRuntime:
    task_id: str
    required: np.ndarray
    used: np.ndarray
    migration_cost_mb: float
    priority: int = 0
    production: bool = False
    constraints: tuple[TaskConstraint, ...] = ()


@dataclass(eq=False)
class NodeRuntime:
    """A node and the tasks placed on it.  The load sums follow from the
    residents' vectors."""

    node_id: str
    total: np.ndarray
    attributes: dict[str, str] = field(default_factory=dict)
    residents: set[str] = field(default_factory=set)
    used: np.ndarray = field(init=False)
    required: np.ndarray = field(init=False)
    prod_required: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        dim = len(self.total)
        self.used, self.required, self.prod_required = np.zeros(dim), np.zeros(dim), np.zeros(dim)

    def attach(self, task: TaskRuntime) -> None:
        self.residents.add(task.task_id)
        self.used += task.used
        self.required += task.required
        if task.production:
            self.prod_required += task.required

    def detach(self, task: TaskRuntime) -> None:
        self.residents.discard(task.task_id)
        self.used -= task.used
        self.required -= task.required
        if task.production:
            self.prod_required -= task.required


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
    sit in ``pending``, an insertion-ordered dict used as a set.  A task
    costs what ``profile`` estimates for its used memory, which is zero
    until its first usage event.
    """

    #: The booleans ``eligible``'s rows may hold (16 MB) before they are all dropped.
    ROW_CELLS = 1 << 24

    def __init__(self, catalog: model.ResourceTypeCatalog,
                 profile: MigrationProfile = BUILTIN_PROFILES["apache"]):
        self.catalog = catalog
        self.profile = profile
        self.nodes: dict[str, NodeRuntime] = {}
        self.tasks: dict[str, TaskRuntime] = {}
        self.placement: dict[str, str] = {}
        self.pending: dict[str, None] = {}
        self.counters = Counters()
        self._memory_index = catalog.index("memory") if "memory" in catalog.names else None
        #: ``node_index`` and ``eligible``'s rows, each built on first ask
        self._node_index: dict[str, int] | None = None
        self._rows: dict[tuple, np.ndarray] = {}

    # -- placement bookkeeping -------------------------------------------------

    def place(self, task_id: str, node_id: str) -> None:
        if task_id not in self.tasks:
            raise model.UnknownIdError(f"unknown task {task_id!r}")
        if node_id not in self.nodes:
            raise model.UnknownIdError(f"unknown node {node_id!r}")
        current = self.placement.get(task_id)
        if current != node_id:
            task = self.tasks[task_id]
            if current is not None:
                self.nodes[current].detach(task)
            self.nodes[node_id].attach(task)
            self.placement[task_id] = node_id
        self.pending.pop(task_id, None)

    # -- constraint classes --------------------------------------------------------

    def node_index(self) -> dict[str, int]:
        """Each node's position among the sorted node ids, in that order:
        the axis of ``eligible``'s rows, ``node_table`` and ``PackedProblem``."""
        if self._node_index is None:
            self._node_index = {node_id: i for i, node_id in enumerate(sorted(self.nodes))}
        return self._node_index

    def eligible(self, constraints: tuple) -> np.ndarray:
        """The constraint set's row: a read-only boolean per node, over
        ``node_index``, true where the node's attributes admit the set (all
        true for the empty set)."""
        row = self._rows.get(constraints)
        if row is None:
            index, nodes = self.node_index(), self.nodes
            if len(self._rows) * len(index) >= self.ROW_CELLS:
                self._rows.clear()  # many distinct sets and no node event
            row = np.fromiter((matches_attributes(constraints, nodes[node_id].attributes)
                               for node_id in index), dtype=bool, count=len(index))
            row.flags.writeable = False
            self._rows[constraints] = row
        return row

    def admits(self, constraints: tuple, node_id: str) -> bool:
        """Whether the node admits the set: its cell of a built row, else
        that node's own match (a one-node question builds no row)."""
        row = self._rows.get(constraints)
        if row is None:
            return matches_attributes(constraints, self.nodes[node_id].attributes)
        return bool(row[self.node_index()[node_id]])

    def node_table(self) -> tuple:
        """Sorted node ids, then per-node totals, used and required (float64
        arrays of shape (N, d)) and resident task counts."""
        node_ids = list(self.node_index())
        nodes = [self.nodes[node_id] for node_id in node_ids]

        def stack(rows: list) -> np.ndarray:
            return np.array(rows, dtype=np.float64).reshape(len(nodes), self.catalog.dimension)

        return (node_ids, stack([n.total for n in nodes]), stack([n.used for n in nodes]),
                stack([n.required for n in nodes]),
                np.array([len(n.residents) for n in nodes], dtype=np.int64))

    # -- event fold --------------------------------------------------------------

    def _migration_cost(self, used: np.ndarray, canonical_memory: float = 0.0) -> float:
        used_memory = float(used[self._memory_index]) if self._memory_index is not None else 0.0
        return lmdt_estimate(self.profile, memory_mb(used_memory, canonical_memory))

    def apply(self, event: ev.WorkloadEvent) -> None:
        self.counters.events_applied += 1
        kind = event.kind
        if kind is ev.EventKind.ADD_NODE:
            total = frozen_vector(event.total)
            if event.node_id not in self.nodes:
                self._node_index = None
            self._rows.clear()  # the node's attributes are replaced
            node = self.nodes.setdefault(event.node_id, NodeRuntime(event.node_id, total))
            # a node added again keeps what sits on it
            node.total, node.attributes = total, dict(event.attributes)
            self.counters.nodes_added += 1
        elif kind is ev.EventKind.REMOVE_NODE:
            removed = self.nodes.pop(event.node_id, None)
            if removed is not None:
                self._node_index = None
                self._rows.clear()
                self.counters.nodes_removed += 1
                for task_id in sorted(removed.residents):
                    del self.placement[task_id]
                    self.pending[task_id] = None
        elif kind is ev.EventKind.UPDATE_NODE_TOTAL:
            node = self.nodes.get(event.node_id)
            if node is not None:
                node.total = frozen_vector(event.total)
        elif kind is ev.EventKind.ADD_NODE_ATTRIBUTES:
            node = self.nodes.get(event.node_id)
            if node is not None:
                self._rows.clear()
                node.attributes.update(dict(event.attributes))
        elif kind is ev.EventKind.REMOVE_NODE_ATTRIBUTES:
            node = self.nodes.get(event.node_id)
            if node is not None:
                self._rows.clear()
                for name in event.attribute_names:
                    node.attributes.pop(name, None)
        elif kind is ev.EventKind.ADD_TASK:
            used = frozen_vector(np.zeros(self.catalog.dimension))
            task = TaskRuntime(
                task_id=event.task_id,
                required=frozen_vector(event.required),
                used=used,
                migration_cost_mb=self._migration_cost(used),
                priority=event.priority,
                production=event.production,
                constraints=tuple(event.constraints),
            )
            node_id = self.placement.get(event.task_id)
            if node_id is None:
                self.pending[event.task_id] = None
            else:  # resubmitted while placed: the node now carries the new vectors
                self.nodes[node_id].detach(self.tasks[event.task_id])
                self.nodes[node_id].attach(task)
            self.tasks[event.task_id] = task
            self.counters.tasks_added += 1
        elif kind is ev.EventKind.REMOVE_TASK:
            task = self.tasks.pop(event.task_id, None)
            if task is not None:
                self.counters.tasks_removed += 1
                node_id = self.placement.pop(event.task_id, None)
                if node_id is not None:
                    self.nodes[node_id].detach(task)
            self.pending.pop(event.task_id, None)
        elif kind is ev.EventKind.UPDATE_TASK_REQUIRED:
            task = self.tasks.get(event.task_id)
            if task is not None:
                required = frozen_vector(event.required)
                node_id = self.placement.get(event.task_id)
                if node_id is not None:
                    node = self.nodes[node_id]
                    delta = required - task.required
                    node.required += delta
                    if task.production:
                        node.prod_required += delta
                task.required = required
                if event.priority is not None:
                    task.priority = event.priority
        elif kind is ev.EventKind.UPDATE_TASK_USED:
            task = self.tasks.get(event.task_id)
            if task is not None:
                used = frozen_vector(event.used)
                node_id = self.placement.get(event.task_id)
                if node_id is not None:
                    self.nodes[node_id].used += used - task.used
                task.used = used
                task.migration_cost_mb = self._migration_cost(used, event.canonical_memory)
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
