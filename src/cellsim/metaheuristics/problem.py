"""Packed search-space representation for the centralized balancer.

A candidate solution is a task-indexed array of node indices.  Its loads,
stability, cost from origin and move count are computed once, when it is
made, since the searches read them for almost every candidate; whole
solutions are cached so no assignment is ever evaluated twice within a run.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from operator import add, gt, itemgetter, sub
from typing import Callable, Optional

import numpy as np

from .. import model
from ..workload.state import CellState

DEFAULT_CACHE_CAPACITY = 500_000


class InfeasibleError(RuntimeError):
    """No stable assignment could be produced within the iteration cap."""


@dataclass(frozen=True)
class PackedProblem:
    """Arrays-of-structs view of one balancing instance.

    ``origin`` holds the node index each task starts on, or -1 when the
    recorded origin is not part of the live cell (such tasks pay their
    migration cost in every candidate).
    """

    task_ids: tuple[str, ...]
    node_ids: tuple[str, ...]
    required: np.ndarray      # (T, d)
    capacity: np.ndarray      # (N, d)
    costs: np.ndarray         # (T,)
    origin: np.ndarray        # (T,) int

    @classmethod
    def from_state(cls, state: model.SystemState) -> "PackedProblem":
        return cls._pack(
            state.catalog.dimension,
            [(n.id, n.total) for n in state.nodes],
            [(t.id, t.required, t.migration_cost_mb, state.assignment[t.id]) for t in state.tasks],
        )

    @classmethod
    def from_cell(cls, cell: CellState) -> "PackedProblem":
        """The live cell as a balancing instance; a pending task gets origin -1."""
        placement = cell.placement
        return cls._pack(
            cell.catalog.dimension,
            [(n.node_id, n.total) for n in cell.nodes.values()],
            [(t.task_id, t.required, t.migration_cost_mb, placement.get(t.task_id))
             for t in cell.tasks.values()],
        )

    @classmethod
    def _pack(cls, dimension: int, nodes: list, tasks: list) -> "PackedProblem":
        """The packing rule: nodes ``(id, total)`` and tasks ``(id, required,
        migration cost, node id or None)`` are each sorted by id, and a task
        whose node is not among ``nodes`` gets origin -1."""
        nodes = sorted(nodes, key=itemgetter(0))
        tasks = sorted(tasks, key=itemgetter(0))
        node_index = {node[0]: i for i, node in enumerate(nodes)}
        return cls(
            task_ids=tuple(t[0] for t in tasks),
            node_ids=tuple(n[0] for n in nodes),
            required=np.array([t[1] for t in tasks], dtype=np.float64).reshape(len(tasks), dimension),
            capacity=np.array([n[1] for n in nodes], dtype=np.float64).reshape(len(nodes), dimension),
            costs=np.array([t[2] for t in tasks], dtype=np.float64),
            origin=np.array([node_index.get(t[3], -1) for t in tasks], dtype=np.int64),
        )

    @property
    def task_count(self) -> int:
        return len(self.task_ids)

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    def loads(self, assign: np.ndarray) -> np.ndarray:
        out = np.zeros(self.capacity.shape)
        np.add.at(out, assign, self.required)
        return out

    def is_stable(self, assign: np.ndarray) -> bool:
        return bool((self.loads(assign) <= self.capacity).all())

    def origin_in_cell(self) -> bool:
        return bool(np.all(self.origin >= 0))

    def demand_fits(self) -> bool:
        """Pigeonhole: no assignment is stable when the total demand exceeds
        the total capacity in some resource."""
        return not np.any(self.required.sum(axis=0) > self.capacity.sum(axis=0))

    def assignment_of(self, assign: np.ndarray) -> dict[str, str]:
        return {self.task_ids[t]: self.node_ids[int(assign[t])] for t in range(self.task_count)}

    def key(self, assign: np.ndarray) -> bytes:
        """The assignment's big-endian bytes: for node indices (never
        negative) byte order is the lexicographic order of the indices."""
        return assign.astype(">i8").tobytes()


class CandidateSolution:
    """One assignment with its loads, stability, cost from the origin and
    count of tasks off their origin.

    ``key`` is the assignment's ``PackedProblem.key``; pass the one the
    cache holds, so both share one bytes object."""

    __slots__ = ("problem", "assign", "key", "loads", "stable", "stc_from_origin", "moved_count")

    def __init__(self, problem: PackedProblem, assign: np.ndarray,
                 key: Optional[bytes] = None):
        self.problem = problem
        self.assign = assign
        self.key = problem.key(assign) if key is None else key
        self.loads = problem.loads(assign)
        self.stable = bool((self.loads <= problem.capacity).all())
        moved = assign != problem.origin
        self.stc_from_origin = float(problem.costs[moved].sum())
        self.moved_count = int(np.count_nonzero(moved))

    def rank_key(self) -> tuple:
        """Stable-first ordering: lower cost, fewer moves, lexicographic."""
        return (not self.stable, self.stc_from_origin, self.moved_count, self.key)

    def to_assignment(self) -> dict[str, str]:
        return self.problem.assignment_of(self.assign)

    def __repr__(self) -> str:
        return (f"CandidateSolution(stable={self.stable}, "
                f"stc={self.stc_from_origin:.2f}, moved={self.moved_count})")


class SolutionCache:
    """Bounded LRU cache keyed by canonical assignment encoding."""

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[bytes, CandidateSolution] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup_or_insert(self, key: bytes,
                         builder: Callable[[], CandidateSolution]) -> CandidateSolution:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        built = builder()
        self.misses += 1
        self._entries[key] = built
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return built


def random_stable_solution(problem: PackedProblem, rng,
                           max_iters: int = 10_000) -> np.ndarray:
    """Draw a random assignment, then repeatedly re-home a tenth of the tasks
    sitting on overloaded nodes (at least one) until the system is stable.

    The assignment, the node loads and the overloaded flags are Python
    lists: a move subtracts the task's row from its old node's loads, adds
    it to the new node's and re-tests those two nodes only.  Each draw is
    made from the tasks on overloaded nodes listed in ascending order.

    Raises InfeasibleError when the iteration cap is hit, or when the only
    overloaded nodes hold no task, so callers never loop forever on
    instances without a stable assignment.
    """
    n_nodes, n_tasks = problem.node_count, problem.task_count
    if n_nodes == 0:
        raise InfeasibleError("no nodes")
    assign = [rng.randrange(n_nodes) for _ in range(n_tasks)]
    if n_tasks == 0:
        return np.array(assign, dtype=np.int64)
    required = problem.required.tolist()
    capacity = problem.capacity.tolist()
    loads = problem.loads(np.array(assign, dtype=np.int64)).tolist()
    over = [any(map(gt, load, cap)) for load, cap in zip(loads, capacity)]
    for _ in range(max_iters):
        if not any(over):
            return np.array(assign, dtype=np.int64)
        if n_nodes == 1:
            raise InfeasibleError("single overloaded node, nowhere to move")
        over_tasks = [t for t, node in enumerate(assign) if over[node]]
        if not over_tasks:
            raise InfeasibleError("no task sits on an overloaded node")
        for t in rng.sample(over_tasks, max(1, len(over_tasks) // 10)):
            old = assign[t]
            new = rng.randrange(n_nodes - 1)
            if new >= old:
                new += 1
            assign[t] = new
            loads[old] = list(map(sub, loads[old], required[t]))
            loads[new] = list(map(add, loads[new], required[t]))
            over[old] = any(map(gt, loads[old], capacity[old]))
            over[new] = any(map(gt, loads[new], capacity[new]))
    raise InfeasibleError(f"no stable assignment found in {max_iters} iterations")
