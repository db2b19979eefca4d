"""Oracles for the shedding search of
``cellsim.agents.selection.select_candidate_services``.

``select_candidate_services`` searches from scratch: every probe's subset
is summed on its own, with one ``np.add.reduce`` per probe, and the greedy
start re-sums its whole mask for each task it adds.  ``sequential`` runs
one restart at a time: it ranks a restart's probes from the current sums
plus or minus one row and re-sums only the best-ranked probe, the
arithmetic of the lockstep search.  So the lockstep search must equal
``sequential`` bit for bit on any input, and the from-scratch search
wherever the ranking sums are exact.  The tests check the subset, fitness
and flags, and the random draws.

Either search appends to ``improved``, when given, whether each restart
beat the best subset so far; ``waves`` splits that record into the lockstep
search's waves.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from cellsim.agents.scoring import REALLOC_PARAMS, allocation_score_vec
from cellsim.agents.selection import DEPTH, RESTARTS, STALL_LIMIT, SelectionResult
from cellsim.workload.state import TaskRuntime


def waves(improved: list) -> list:
    """The lockstep search's waves, as lists of per-restart outcomes: each
    wave holds the restarts that must run, ``STALL_LIMIT`` less the stall,
    plus one before the first best."""
    out, stall, at = [], 0, 0
    while at < len(improved):
        size = min(STALL_LIMIT - stall + (at == 0), RESTARTS - at)
        wave = improved[at:at + size]
        for better in wave:
            stall = 0 if better else stall + 1
        out.append(wave)
        at += size
    return out


def _search(total, used, removable, compulsory_ids, rng, improved, restart):
    """The setup both searches share, then ``restart(...)`` per restart,
    which returns the restart's final mask and fitness."""
    total = np.asarray(total, dtype=np.float64)
    remaining = np.asarray(used, dtype=np.float64).copy()

    compulsory = list(compulsory_ids)
    by_id = {c.task_id: c for c in removable}
    for task_id in compulsory:
        candidate = by_id.pop(task_id, None)
        if candidate is not None:
            remaining = remaining - candidate.used
    pool = [by_id[k] for k in sorted(by_id)]

    if not np.any(remaining > total):
        return SelectionResult(task_ids=list(compulsory), compulsory=compulsory,
                               fitness=0.0, feasible=True, alert=False)
    if not pool:
        return SelectionResult(task_ids=list(compulsory), compulsory=compulsory,
                               fitness=0.0, feasible=False, alert=True)

    usages = np.stack([c.used for c in pool])
    costs = np.array([c.migration_cost_mb for c in pool])
    n = len(pool)

    def fitness_of(loads: np.ndarray, cost: np.ndarray) -> np.ndarray:
        scores = allocation_score_vec(REALLOC_PARAMS, total[None, :], loads)
        with np.errstate(divide="ignore", invalid="ignore"):
            fitness = np.where(cost > 0.0, scores / cost, np.inf)
        return np.where(np.any(loads > total, axis=1), -1.0, fitness)

    def evaluate(masks: list) -> np.ndarray:
        loads = remaining - np.array([np.add.reduce(usages[mask]) for mask in masks])
        return fitness_of(loads, np.array([np.add.reduce(costs[mask]) for mask in masks]))

    if evaluate([np.ones(n, dtype=bool)])[0] < 0.0:
        fallback = compulsory + [c.task_id for c in pool if not c.production]
        return SelectionResult(task_ids=fallback, compulsory=compulsory,
                               fitness=0.0, feasible=False, alert=True)

    weights = usages.max(axis=1) / np.maximum(costs, 1e-9)
    context = dict(remaining=remaining, total=total, usages=usages, costs=costs,
                   weights=weights, fitness_of=fitness_of, evaluate=evaluate, rng=rng)
    best_mask: Optional[np.ndarray] = None
    best_fitness = -1.0
    stall = 0
    for _ in range(RESTARTS):
        if stall >= STALL_LIMIT:
            break
        local_best, local_fit = restart(**context)
        if improved is not None:
            improved.append(local_fit > best_fitness)
        if local_fit > best_fitness:
            best_fitness, best_mask = local_fit, local_best
            stall = 0
        else:
            stall += 1

    assert best_mask is not None
    selected = compulsory + [pool[i].task_id for i in range(n) if best_mask[i]]
    return SelectionResult(task_ids=selected, compulsory=compulsory,
                           fitness=best_fitness, feasible=True, alert=False)


def _from_scratch_restart(remaining, total, usages, costs, weights, fitness_of, evaluate, rng):
    n = len(costs)
    mask = np.zeros(n, dtype=bool)
    order = sorted(range(n), key=lambda i: (-weights[i] * rng.uniform(0.5, 1.5), i))
    for index in order:
        if not np.any((remaining - usages[mask].sum(axis=0) if mask.any() else remaining) > total):
            break
        mask[index] = True
    local_fit = float(evaluate([mask])[0])
    visited = {mask.tobytes()}
    for _ in range(DEPTH):
        probes = np.tile(mask, (n, 1))
        np.fill_diagonal(probes, ~mask)
        probes = [probe for probe in probes if probe.tobytes() not in visited]
        if not probes:
            break
        fitness = evaluate(probes)
        step = int(np.argmax(fitness))
        if not fitness[step] > local_fit:
            break
        mask, local_fit = probes[step], float(fitness[step])
        visited.add(mask.tobytes())
    return mask, local_fit


def _sequential_restart(remaining, total, usages, costs, weights, fitness_of, evaluate, rng):
    n = len(costs)

    def exact(mask):
        load = remaining - np.add.reduce(usages[mask])
        cost = np.add.reduce(costs[mask])
        return load, cost, float(fitness_of(load[None, :], np.array([cost]))[0])

    keys = -weights * np.array([rng.uniform(0.5, 1.5) for _ in range(n)])
    order = np.argsort(keys, kind="stable")
    fits = ~(remaining - np.cumsum(usages[order], axis=0) > total).any(axis=1)
    count = int(fits.argmax()) + 1 if fits.any() else n
    mask = np.zeros(n, dtype=bool)
    mask[order[:count]] = True
    load, cost, local_fit = exact(mask)
    while local_fit < 0.0:
        mask[order[count]] = True
        count += 1
        load, cost, local_fit = exact(mask)
    for _ in range(DEPTH):
        sign = np.where(mask, -1.0, 1.0)
        step = int(np.argmax(fitness_of(load - sign[:, None] * usages, cost + sign * costs)))
        probe = mask.copy()
        probe[step] = not probe[step]
        probe_load, probe_cost, probe_fit = exact(probe)
        if not probe_fit > local_fit:
            break
        mask, load, cost, local_fit = probe, probe_load, probe_cost, probe_fit
    return mask, local_fit


def select_candidate_services(total: Sequence[float], used: Sequence[float],
                              removable: Sequence[TaskRuntime], compulsory_ids: Sequence[str],
                              rng, improved: Optional[list] = None) -> SelectionResult:
    return _search(total, used, removable, compulsory_ids, rng, improved, _from_scratch_restart)


def sequential(total: Sequence[float], used: Sequence[float],
               removable: Sequence[TaskRuntime], compulsory_ids: Sequence[str],
               rng, improved: Optional[list] = None) -> SelectionResult:
    return _search(total, used, removable, compulsory_ids, rng, improved, _sequential_restart)
