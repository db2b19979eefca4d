"""Choosing which tasks an overloaded node offers up for migration.

Tasks the node can no longer host at all (constraint or total-capacity
mismatch) are compulsory.  Beyond those, a small tabu search picks a subset
whose removal de-overloads the node while maximizing

    fitness = node allocation score after removal / total migration cost

so cheap-to-move tasks whose departure most improves the node win.  The
search is restart-based and shallow: a handful of toggle steps per restart,
stopping early once restarts stop improving the best subset.

A toggle step ranks every probe from the current subset's load and cost
plus or minus the toggled task's row, in one array pass, then re-sums the
best-ranked probe from its mask and accepts it only if that exact fitness
beats the current one.  Every accepted subset and reported fitness is thus
the sum of that subset alone; rounding moves a decision only at a near tie
between probes, or where a greedy start's running load sits within a few
ulp of the capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..workload.state import TaskRuntime
from .scoring import REALLOC_PARAMS, allocation_score_vec


#: Greedy-started restarts, toggle steps per restart, and restarts in a row
#: without a better subset after which the search stops.
RESTARTS = 25
DEPTH = 5
STALL_LIMIT = 6


@dataclass
class SelectionResult:
    task_ids: list[str]
    compulsory: list[str]
    fitness: float
    feasible: bool       # removal de-overloads the node
    alert: bool          # nothing de-overloads: operator attention needed


def select_candidate_services(
    total: Sequence[float],
    used: Sequence[float],
    removable: Sequence[TaskRuntime],
    compulsory_ids: Sequence[str],
    rng,
) -> SelectionResult:
    """Pick the compulsory tasks plus a de-overloading subset of removables.

    ``removable`` are the node's resident task rows, of which the search
    reads ``task_id``, ``used``, ``migration_cost_mb`` and ``production``.
    ``used`` is the node's load and must already include every listed task.
    Compulsory tasks are removed unconditionally; the tabu search then works
    on what remains, within ``RESTARTS``, ``DEPTH`` and ``STALL_LIMIT``.
    """
    total = np.asarray(total, dtype=np.float64)
    remaining = np.asarray(used, dtype=np.float64).copy()

    compulsory = list(compulsory_ids)
    by_id = {c.task_id: c for c in removable}
    for task_id in compulsory:
        candidate = by_id.pop(task_id, None)
        if candidate is not None:
            remaining = remaining - candidate.used
    pool = [by_id[k] for k in sorted(by_id)]

    if not (remaining > total).any():
        return SelectionResult(task_ids=list(compulsory), compulsory=compulsory,
                               fitness=0.0, feasible=True, alert=False)

    if not pool:
        return SelectionResult(task_ids=list(compulsory), compulsory=compulsory,
                               fitness=0.0, feasible=False, alert=True)

    usages = np.stack([c.used for c in pool])
    costs = np.array([c.migration_cost_mb for c in pool])
    n = len(pool)

    def fitness_of(loads: np.ndarray, cost: np.ndarray) -> np.ndarray:
        """Fitness of each (load, cost) row, scored in one call; -1 where
        the node stays overloaded, +inf where the removal costs nothing."""
        scores = allocation_score_vec(REALLOC_PARAMS, total[None, :], loads)
        fitness = np.divide(scores, cost, out=np.full(len(cost), np.inf), where=cost > 0.0)
        return np.where((loads > total).any(axis=1), -1.0, fitness)

    def exact(mask: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Load, cost and fitness of one removal mask, the subset summed on
        its own, so they are bit for bit the sums of that subset alone."""
        load = remaining - np.add.reduce(usages[mask])
        cost = np.add.reduce(costs[mask])
        return load, cost, float(fitness_of(load[None, :], np.array([cost]))[0])

    # Everything-out is the feasibility ceiling: if even that overloads, no
    # subset works and the caller must be alerted.
    all_mask = np.ones(n, dtype=bool)
    if exact(all_mask)[2] < 0.0:
        fallback = compulsory + [c.task_id for c in pool if not c.production]
        return SelectionResult(task_ids=fallback, compulsory=compulsory,
                               fitness=0.0, feasible=False, alert=True)

    weights = usages.max(axis=1) / np.maximum(costs, 1e-9)

    def greedy_start() -> tuple[np.ndarray, np.ndarray, float, float]:
        """Shed usage-heavy-per-MB tasks first, in randomized order, until a
        running load stops overloading the node; returns the mask with its
        exact load, cost and fitness."""
        keys = -weights * np.array([rng.uniform(0.5, 1.5) for _ in range(n)])
        order = np.argsort(keys, kind="stable")  # ties by index
        fits = ~(remaining - np.cumsum(usages[order], axis=0) > total).any(axis=1)
        count = int(fits.argmax()) + 1 if fits.any() else n
        mask = np.zeros(n, dtype=bool)
        mask[order[:count]] = True
        load, cost, fit = exact(mask)
        # the running load may round just under a boundary the exact sum
        # crosses: shed on until the exact sum fits (at worst: all_mask)
        while fit < 0.0:
            mask[order[count]] = True
            count += 1
            load, cost, fit = exact(mask)
        return mask, load, cost, fit

    best_mask: Optional[np.ndarray] = None
    best_fitness = -1.0
    stall = 0
    for _ in range(RESTARTS):
        if stall >= STALL_LIMIT:
            break
        local_best, load, cost, local_fit = greedy_start()
        # Each accepted step strictly raises the exact fitness, so a mask
        # visited earlier in the restart scores below the current one and
        # is never accepted again: no visited list is needed.
        for _ in range(DEPTH):
            # the toggle neighbourhood: flip one task in or out of the
            # subset, ranked from the current sums plus or minus its row
            sign = np.where(local_best, -1.0, 1.0)
            ranked = fitness_of(load - sign[:, None] * usages, cost + sign * costs)
            step = int(np.argmax(ranked))  # first index of the maximum
            probe = local_best.copy()
            probe[step] = not probe[step]
            # accepted on its exact sums, as a from-scratch search would
            probe_load, probe_cost, probe_fit = exact(probe)
            if not probe_fit > local_fit:
                break
            local_best, load, cost, local_fit = probe, probe_load, probe_cost, probe_fit
        if local_fit > best_fitness:
            best_fitness, best_mask = local_fit, local_best
            stall = 0
        else:
            stall += 1

    assert best_mask is not None
    selected = compulsory + [pool[i].task_id for i in range(n) if best_mask[i]]
    return SelectionResult(task_ids=selected, compulsory=compulsory,
                           fitness=best_fitness, feasible=True, alert=False)
