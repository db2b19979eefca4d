"""Choosing which tasks an overloaded node offers up for migration.

Tasks the node can no longer host at all (constraint or total-capacity
mismatch) are compulsory.  Beyond those, a small tabu search picks a subset
whose removal de-overloads the node while maximizing

    fitness = node allocation score after removal / total migration cost

so cheap-to-move tasks whose departure most improves the node win.  The
search is restart-based and shallow: a handful of toggle steps per restart,
stopping once ``STALL_LIMIT`` restarts in a row fail to improve the best
subset.

The restarts run in lockstep waves.  A wave holds the restarts that run
whatever it finds: ``STALL_LIMIT`` less the current stall, plus one before
the first best (the first restart always sets it).  So a wave draws its
greedy starts in the order a one-restart-at-a-time search would, and the
search draws exactly what that search draws.  Each depth step ranks every
live restart's probes in one array pass, each probe's load and cost being
the restart's current sums plus or minus the toggled task's row, then
re-sums each restart's best-ranked probe from its mask on its own, with
``np.add.reduce``, and accepts it only if that exact fitness beats the
restart's current one.  Every accepted subset and reported fitness is thus
the sum of that subset alone: a batched sum (zero-padded masks, or
``reduceat``) groups the additions differently and may round differently.
Rounding moves a decision only at a near tie between probes, or where a
greedy start's running load sits within a few ulp of the capacity.
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

    def exact(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Loads, costs and fitness of removal masks, each subset summed on
        its own with ``np.add.reduce`` (a batched sum rounds differently),
        then all scored in one call."""
        loads = np.array([remaining - np.add.reduce(usages[mask]) for mask in masks])
        cost = np.array([np.add.reduce(costs[mask]) for mask in masks])
        return loads, cost, fitness_of(loads, cost)

    # Everything-out is the feasibility ceiling: if even that overloads, no
    # subset works and the caller must be alerted.
    if exact(np.ones((1, n), dtype=bool))[2][0] < 0.0:
        fallback = compulsory + [c.task_id for c in pool if not c.production]
        return SelectionResult(task_ids=fallback, compulsory=compulsory,
                               fitness=0.0, feasible=False, alert=True)

    weights = usages.max(axis=1) / np.maximum(costs, 1e-9)
    dim = len(total)

    def greedy_starts(count: int) -> tuple[np.ndarray, ...]:
        """``count`` restarts' starts: each sheds usage-heavy-per-MB tasks
        first, in its own randomized order, until a running load stops
        overloading the node.  Returns the masks with their exact loads,
        costs and fitness."""
        draws = np.array([rng.uniform(0.5, 1.5) for _ in range(count * n)]).reshape(count, n)
        order = np.argsort(-weights * draws, axis=1, kind="stable")  # ties by index
        fits = ~(remaining - np.cumsum(usages[order], axis=1) > total).any(axis=2)
        shed = np.where(fits.any(axis=1), fits.argmax(axis=1) + 1, n)
        masks = order.argsort(axis=1) < shed[:, None]  # each task's rank in its order
        loads, cost, fitness = exact(masks)
        # a running load may round just under a boundary the exact sum
        # crosses: shed on until the exact sum fits (at worst: every task)
        for i in np.flatnonzero(fitness < 0.0).tolist():
            stop = int(shed[i])
            while fitness[i] < 0.0:
                masks[i, order[i, stop]] = True
                stop += 1
                loads[i], cost[i], fitness[i] = (x[0] for x in exact(masks[i:i + 1]))
        return masks, loads, cost, fitness

    best_mask: Optional[np.ndarray] = None
    best_fitness = -1.0
    stall = done = 0
    while done < RESTARTS and stall < STALL_LIMIT:
        # the restarts that run whatever this wave finds: the search stops
        # only after STALL_LIMIT restarts in a row without a better subset,
        # and the first restart always finds one
        wave = min(STALL_LIMIT - stall + (best_mask is None), RESTARTS - done)
        done += wave
        masks, loads, cost, fitness = greedy_starts(wave)
        # Each accepted step strictly raises the exact fitness, so a mask
        # visited earlier in a restart scores below the current one and is
        # never accepted again: no visited list is needed.
        live = np.arange(wave)
        for _ in range(DEPTH):
            # the toggle neighbourhood of every live restart: flip one task
            # in or out of its subset, ranked from the current sums plus or
            # minus the task's row, all restarts in one call
            sign = np.where(masks[live], -1.0, 1.0)
            ranked = fitness_of(
                (loads[live, None, :] - sign[:, :, None] * usages).reshape(-1, dim),
                (cost[live, None] + sign * costs).reshape(-1))
            steps = ranked.reshape(len(live), n).argmax(axis=1)  # first index of each maximum
            probes = masks[live]
            probes[np.arange(len(live)), steps] ^= True
            # accepted on its exact sums, as a from-scratch search would
            probe_loads, probe_cost, probe_fitness = exact(probes)
            better = probe_fitness > fitness[live]
            accepted = live[better]
            masks[accepted], loads[accepted] = probes[better], probe_loads[better]
            cost[accepted], fitness[accepted] = probe_cost[better], probe_fitness[better]
            live = accepted
            if not len(live):
                break
        for mask, local_fit in zip(masks, fitness.tolist()):
            if local_fit > best_fitness:
                best_fitness, best_mask = local_fit, mask
                stall = 0
            else:
                stall += 1

    assert best_mask is not None
    selected = compulsory + [pool[i].task_id for i in range(n) if best_mask[i]]
    return SelectionResult(task_ids=selected, compulsory=compulsory,
                           fitness=best_fitness, feasible=True, alert=False)
