"""Array oracle for the repair loop of the centralized balancer
(``problem.random_stable_solution``).

It keeps the assignment and the node loads as numpy arrays and re-tests
every node after each iteration, so the tests can check the list form,
which updates the two nodes a move touches, against it: the same
assignment or the same error, from the same random draws.  It differs from
the plain array loop in one line: when the only overloaded nodes hold no
task it raises ``InfeasibleError``, where ``rng.sample`` of an empty list
raised ``ValueError``.
"""

from __future__ import annotations

import numpy as np

from cellsim.metaheuristics.problem import InfeasibleError, PackedProblem


def random_stable_solution(problem: PackedProblem, rng,
                           max_iters: int = 10_000) -> np.ndarray:
    n_nodes, n_tasks = problem.node_count, problem.task_count
    if n_nodes == 0:
        raise InfeasibleError("no nodes")
    assign = np.array([rng.randrange(n_nodes) for _ in range(n_tasks)], dtype=np.int64)
    if n_tasks == 0:
        return assign
    loads = problem.loads(assign)
    for _ in range(max_iters):
        overloaded = np.any(loads > problem.capacity, axis=1)
        if not overloaded.any():
            return assign
        if n_nodes == 1:
            raise InfeasibleError("single overloaded node, nowhere to move")
        over_tasks = np.flatnonzero(overloaded[assign])
        if len(over_tasks) == 0:
            raise InfeasibleError("no task sits on an overloaded node")
        count = max(1, len(over_tasks) // 10)
        picked = rng.sample(list(over_tasks), count)
        for t in picked:
            old = int(assign[t])
            new = rng.randrange(n_nodes - 1)
            if new >= old:
                new += 1
            assign[t] = new
            loads[old] -= problem.required[t]
            loads[new] += problem.required[t]
    raise InfeasibleError(f"no stable assignment found in {max_iters} iterations")
