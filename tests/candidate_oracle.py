"""Scalar recount of a candidate's figures (``problem.CandidateSolution``).

It walks the tasks one by one in task order, with no numpy, so the tests
can check the array figures that a candidate computes when it is made
against it: each node's loads, stability, the cost and count of the tasks
that sit off their origin, and the rank key.
"""

from __future__ import annotations

from cellsim.metaheuristics.problem import PackedProblem


def loads(problem: PackedProblem, assign) -> list[list[float]]:
    """Each node's summed demand, the tasks added in task order."""
    out = [[0.0] * problem.required.shape[1] for _ in range(problem.node_count)]
    for t, node in enumerate(assign):
        out[int(node)] = [a + b for a, b in zip(out[int(node)], problem.required[t].tolist())]
    return out


def stable(problem: PackedProblem, assign) -> bool:
    return all(load <= cap
               for node_loads, node_cap in zip(loads(problem, assign), problem.capacity.tolist())
               for load, cap in zip(node_loads, node_cap))


def moved(problem: PackedProblem, assign) -> list[int]:
    """The tasks off their origin; a pending task (origin -1) always is."""
    return [t for t in range(problem.task_count) if int(assign[t]) != int(problem.origin[t])]


def stc(problem: PackedProblem, assign) -> float:
    """The summed migration cost of the tasks off their origin."""
    return sum(float(problem.costs[t]) for t in moved(problem, assign))


def rank_key(problem: PackedProblem, assign) -> tuple:
    """Stable first, then cost, moves and the indices as 8-byte big-endian words."""
    return (not stable(problem, assign), stc(problem, assign), len(moved(problem, assign)),
            b"".join(int(node).to_bytes(8, "big") for node in assign))
