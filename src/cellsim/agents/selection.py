"""Choosing which tasks an overloaded node offers up for migration.

Tasks the node can no longer host at all (constraint or total-capacity
mismatch) are compulsory.  Beyond those, a small tabu search picks a subset
whose removal de-overloads the node while maximizing

    fitness = node allocation score after removal / total migration cost

so cheap-to-move tasks whose departure most improves the node win.  The
search is restart-based and shallow: a handful of toggle steps per restart,
stopping early once restarts stop improving the best subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .scoring import REALLOC_PARAMS, allocation_score_vec


#: Greedy-started restarts, toggle steps per restart, and restarts in a row
#: without a better subset after which the search stops.
RESTARTS = 25
DEPTH = 5
STALL_LIMIT = 6


@dataclass
class RemovalCandidate:
    task_id: str
    used: np.ndarray
    migration_cost_mb: float
    production: bool


@dataclass
class SelectionResult:
    task_ids: list[str]
    compulsory: list[str]
    fitness: float
    feasible: bool       # removal de-overloads the node
    alert: bool          # nothing de-overloads: operator attention needed
    examined: int = 0


def select_candidate_services(
    total: Sequence[float],
    used: Sequence[float],
    removable: Sequence[RemovalCandidate],
    compulsory_ids: Sequence[str],
    rng,
) -> SelectionResult:
    """Pick the compulsory tasks plus a de-overloading subset of removables.

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

    def overloaded(load: np.ndarray) -> bool:
        return bool(np.any(load > total))

    if not overloaded(remaining):
        return SelectionResult(task_ids=list(compulsory), compulsory=compulsory,
                               fitness=0.0, feasible=True, alert=False)

    if not pool:
        return SelectionResult(task_ids=list(compulsory), compulsory=compulsory,
                               fitness=0.0, feasible=False, alert=True)

    usages = np.stack([c.used for c in pool])
    costs = np.array([c.migration_cost_mb for c in pool])
    n = len(pool)
    examined = 0

    def evaluate(masks: list[np.ndarray]) -> np.ndarray:
        """Fitness of each removal mask, scored in one call; -1 where the
        node stays overloaded, +inf where the removal costs nothing."""
        nonlocal examined
        examined += len(masks)
        # each subset summed on its own, so a load or cost is bit for bit the
        # sum of that subset alone
        loads = remaining - np.array([np.add.reduce(usages[mask]) for mask in masks])
        cost = np.array([np.add.reduce(costs[mask]) for mask in masks])
        scores = allocation_score_vec(REALLOC_PARAMS, total[None, :], loads)
        with np.errstate(divide="ignore", invalid="ignore"):
            fitness = np.where(cost > 0.0, scores / cost, np.inf)
        return np.where(np.any(loads > total, axis=1), -1.0, fitness)

    # Everything-out is the feasibility ceiling: if even that overloads, no
    # subset works and the caller must be alerted.
    all_mask = np.ones(n, dtype=bool)
    if evaluate([all_mask])[0] < 0.0:
        fallback = compulsory + [c.task_id for c in pool if not c.production]
        return SelectionResult(task_ids=fallback, compulsory=compulsory,
                               fitness=0.0, feasible=False, alert=True,
                               examined=examined)

    def greedy_start() -> np.ndarray:
        """Shed usage-heavy-per-MB tasks first, in randomized order."""
        mask = np.zeros(n, dtype=bool)
        weights = usages.max(axis=1) / np.maximum(costs, 1e-9)
        order = sorted(range(n), key=lambda i: (-weights[i] * rng.uniform(0.5, 1.5), i))
        for index in order:
            if not overloaded(remaining - usages[mask].sum(axis=0) if mask.any() else remaining):
                break
            mask[index] = True
        return mask

    best_mask: Optional[np.ndarray] = None
    best_fitness = -1.0
    stall = 0
    for _ in range(RESTARTS):
        if stall >= STALL_LIMIT:
            break
        local_best = greedy_start()  # feasible: at worst it is all_mask
        local_fit = float(evaluate([local_best])[0])
        visited = {local_best.tobytes()}
        for _ in range(DEPTH):
            # the toggle neighbourhood: flip one task in or out of the subset
            probes = np.tile(local_best, (n, 1))
            np.fill_diagonal(probes, ~local_best)
            probes = [probe for probe in probes if probe.tobytes() not in visited]
            if not probes:
                break
            fitness = evaluate(probes)
            step = int(np.argmax(fitness))  # first index of the maximum
            if not fitness[step] > local_fit:
                break
            local_best, local_fit = probes[step], float(fitness[step])
            visited.add(local_best.tobytes())
        if local_fit > best_fitness:
            best_fitness, best_mask = local_fit, local_best
            stall = 0
        else:
            stall += 1

    assert best_mask is not None
    selected = compulsory + [pool[i].task_id for i in range(n) if best_mask[i]]
    return SelectionResult(task_ids=selected, compulsory=compulsory,
                           fitness=best_fitness, feasible=True, alert=False,
                           examined=examined)
