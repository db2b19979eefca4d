"""From-scratch oracle for the shedding search of
``cellsim.agents.selection.select_candidate_services``.

Every probe's subset is summed on its own, with one ``np.add.reduce`` per
probe, and the greedy start re-sums its whole mask for each task it adds.
The tests check the incremental search against it: the same subset,
fitness and flags, and the same random draws.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from cellsim.agents.scoring import REALLOC_PARAMS, allocation_score_vec
from cellsim.agents.selection import DEPTH, RESTARTS, STALL_LIMIT, SelectionResult
from cellsim.workload.state import TaskRuntime


def select_candidate_services(total: Sequence[float], used: Sequence[float],
                              removable: Sequence[TaskRuntime],
                              compulsory_ids: Sequence[str], rng) -> SelectionResult:
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

    def evaluate(masks: list[np.ndarray]) -> np.ndarray:
        loads = remaining - np.array([np.add.reduce(usages[mask]) for mask in masks])
        cost = np.array([np.add.reduce(costs[mask]) for mask in masks])
        scores = allocation_score_vec(REALLOC_PARAMS, total[None, :], loads)
        with np.errstate(divide="ignore", invalid="ignore"):
            fitness = np.where(cost > 0.0, scores / cost, np.inf)
        return np.where(np.any(loads > total, axis=1), -1.0, fitness)

    all_mask = np.ones(n, dtype=bool)
    if evaluate([all_mask])[0] < 0.0:
        fallback = compulsory + [c.task_id for c in pool if not c.production]
        return SelectionResult(task_ids=fallback, compulsory=compulsory,
                               fitness=0.0, feasible=False, alert=True)

    def greedy_start() -> np.ndarray:
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
        local_best = greedy_start()
        local_fit = float(evaluate([local_best])[0])
        visited = {local_best.tobytes()}
        for _ in range(DEPTH):
            probes = np.tile(local_best, (n, 1))
            np.fill_diagonal(probes, ~local_best)
            probes = [probe for probe in probes if probe.tobytes() not in visited]
            if not probes:
                break
            fitness = evaluate(probes)
            step = int(np.argmax(fitness))
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
                           fitness=best_fitness, feasible=True, alert=False)
