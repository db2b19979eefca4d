"""Scalar oracle for the one-task neighbour scan of the centralized
balancer (``strategies._neighbor_scan``).

It tests one (task, node) pair at a time and charges the budget per pair,
so the tests can check the per-task array form against the plain double
loop: the same move and the same number of candidates examined.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from cellsim.metaheuristics.problem import CandidateSolution


def neighbor_scan(run, current: CandidateSolution,
                  visited: Optional[set] = None) -> Optional[CandidateSolution]:
    """Best stable neighbour by (cost, moved, task, node), not in ``visited``."""
    problem = run.problem
    base = current.assign
    loads = current.loads
    best_key = None
    best_move = None
    for t in range(problem.task_count):
        src = int(base[t])
        demand = problem.required[t]
        base_cost = current.stc_from_origin
        src_is_origin = src == int(problem.origin[t])
        for n in range(problem.node_count):
            if n == src:
                continue
            if not run.budget_left():
                break
            run.charge()
            if np.any(loads[n] + demand > problem.capacity[n]):
                continue
            cost = base_cost
            if src_is_origin:
                cost += problem.costs[t]
            elif n == int(problem.origin[t]):
                cost -= problem.costs[t]
            moved = current.moved_count + (1 if src_is_origin else (-1 if n == int(problem.origin[t]) else 0))
            key = (cost, moved, t, n)
            if best_key is not None and key >= best_key:
                continue
            if visited is not None:
                probe = base.copy()
                probe[t] = n
                if problem.key(probe) in visited:
                    continue
            best_key = key
            best_move = (t, n)
    if best_move is None:
        return None
    assign = base.copy()
    assign[best_move[0]] = best_move[1]
    return run.candidate(assign)
