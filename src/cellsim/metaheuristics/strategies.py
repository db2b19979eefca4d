"""Search strategies over full task-to-node assignments.

All strategies share the same contract: stability is a hard constraint, the
objective is the transformation cost from the origin assignment, and among
equal-cost stable solutions ties break by fewest migrated tasks then by
lexicographic assignment encoding.  Every strategy but the full scan is a
body over one ``_Run`` and enters through ``_strategy``: the call first
tries the origin with each pending task (origin -1) first-fitted onto the
lowest-index node with room, and when that is stable it is optimal and is
the answer, charged as one candidate (``_origin_shortcut``); otherwise the
body searches.  Strategies never report an unstable assignment as stable;
if the budget runs out before a stable solution appears, the result says
so.

Every candidate evaluation is metered against ``max_candidates``, which
makes cross-strategy comparisons budget-fair and keeps results
deterministic; the clock is read only to report ``elapsed_s``.

Greedy and tabu search are one local-search loop: greedy is tabu search
that keeps no tabu list and allows no non-improving move.  Local search and
annealing restart from the same random stable starts (``_Run.restarts``).
Annealing and the genetic mutation draw the same random one-task move.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .. import model
from .problem import (
    CandidateSolution,
    InfeasibleError,
    PackedProblem,
    SolutionCache,
    random_stable_solution,
)


#: A fixture scenario's state or an already packed (live-cell) instance.
Instance = Union[model.SystemState, PackedProblem]

SA_COOLING = 0.95
SA_STEPS_PER_TEMPERATURE = 4
GA_POPULATION = 24
GA_MUTATION_RATE = 0.3
#: Fresh injections per generation.
GA_DRIFT = 2
#: Seeded GA's population as a share of the plain GA population.
SGA_POOL_FRACTION = 0.25
#: Dull steps in a row after which a tabu walk stops: tabu search's own,
#: and a seeded GA seed's, which should be a cheap local optimum (long
#: dull-move wandering inside a seeding slice only eats the shared budget).
TABU_DULL_MOVE_LIMIT = 25
SGA_SEED_DULL_MOVE_LIMIT = 3
FULL_SCAN_NODE_CAP = 50_000_000
#: Nodes in a first-fit pick's first array test (``_first_fit``).  On the
#: 10k-node Criterion-12 cell the median pick passes 1,400 to 1,750 nodes.
FIRST_FIT_CHUNK = 2048
#: Relative band around a capacity inside which a first-fit test is decided
#: by summing the node's tasks in task order, as ``PackedProblem.loads``
#: does; outside it the two summation orders cannot disagree (they differ
#: by at most about 2.2e-16 times the task count, relative).
FIRST_FIT_SLACK = 1e-9


class SearchSpaceCapExceeded(RuntimeError):
    """Full scan refuses instances larger than its configured cap."""


@dataclass
class StrategyConfig:
    seed: int
    #: Candidate-evaluation budget; no clock limits a search.
    max_candidates: int = 50_000
    full_scan_leaf_cap: float = 1e8

    def __post_init__(self) -> None:
        if self.seed is None:
            raise ValueError("seed is mandatory for reproducibility")


@dataclass
class BalancerResult:
    best: Optional[CandidateSolution]
    stats: dict = field(default_factory=dict)

    @property
    def stable(self) -> bool:
        return self.best is not None

    @property
    def stc_mb(self) -> Optional[float]:
        return None if self.best is None else self.best.stc_from_origin


class _Run:
    """Shared per-invocation context: rng, cache, budget accounting."""

    def __init__(self, instance: Instance, cfg: StrategyConfig):
        self.problem = (instance if isinstance(instance, PackedProblem)
                        else PackedProblem.from_state(instance))
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.cache = SolutionCache()
        self.examined = 0
        self.runs = 0
        self.best: Optional[CandidateSolution] = None
        self.started = time.monotonic()

    def budget_left(self) -> bool:
        return self.examined < self.cfg.max_candidates

    def charge(self, count: int = 1) -> None:
        self.examined += count

    def candidate(self, assign: np.ndarray) -> CandidateSolution:
        self.charge()
        key = self.problem.key(assign)
        return self.cache.lookup_or_insert(
            key, lambda: CandidateSolution(self.problem, assign.copy(), key))

    def offer(self, solution: CandidateSolution) -> None:
        if not solution.stable:
            return
        if self.best is None or solution.rank_key() < self.best.rank_key():
            self.best = solution

    def random_stable(self) -> Optional[CandidateSolution]:
        try:
            assign = random_stable_solution(self.problem, self.rng)
        except InfeasibleError:
            return None
        solution = self.candidate(assign)
        self.offer(solution)
        return solution

    def restarts(self) -> Iterator[CandidateSolution]:
        """Random stable starts while budget is left, each counted in
        ``runs``; they end at the first start that cannot be drawn."""
        while self.budget_left():
            self.runs += 1
            start = self.random_stable()
            if start is None:
                return
            yield start

    def result(self, **extra) -> BalancerResult:
        stats = {
            "runs": self.runs,
            "candidates_examined": self.examined,
            "cache_hits": self.cache.hits,
            "elapsed_s": time.monotonic() - self.started,
            **extra,
        }
        return BalancerResult(best=self.best, stats=stats)


def _first_fit(loads: np.ndarray, capacity: np.ndarray, demand: np.ndarray,
               start: int) -> int:
    """The lowest node index from ``start`` whose load plus ``demand`` fits
    its capacity, or the node count when none does.  ``loads`` and
    ``capacity`` are (d, N): one contiguous row per resource, so a chunk of
    nodes is tested with a few flat array operations.  Chunks double from
    ``FIRST_FIT_CHUNK`` nodes."""
    n_nodes, size = capacity.shape[1], FIRST_FIT_CHUNK
    while start < n_nodes:
        stop = min(start + size, n_nodes)
        fits = loads[0, start:stop] + demand[0] <= capacity[0, start:stop]
        for k in range(1, len(demand)):
            fits &= loads[k, start:stop] + demand[k] <= capacity[k, start:stop]
        first = int(fits.argmax())
        if fits[first]:
            return start + first
        start, size = stop, 2 * size
    return n_nodes


def _fits_in_task_order(problem: PackedProblem, assign: np.ndarray, t: int, node: int) -> bool:
    """Whether task ``t`` fits on ``node`` beside the tasks ``assign`` puts
    there, their demands summed in task order with ``np.add.at``, so the
    sum is the one ``PackedProblem.loads`` makes of that set."""
    members = np.flatnonzero(assign == node)
    members = np.insert(members, np.searchsorted(members, t), t)
    total = np.zeros((1, problem.required.shape[1]))
    np.add.at(total, np.zeros(len(members), dtype=np.intp), problem.required[members])
    return bool((total[0] <= problem.capacity[node]).all())


def _first_fit_pending(problem: PackedProblem) -> Optional[np.ndarray]:
    """The origin with each pending task (origin -1), in task order, on the
    lowest-index node with room; None when a task finds none, or when the
    placed tasks already overload a node.

    Running loads add the pending tasks after the placed ones, an order
    other than ``PackedProblem.loads``'s, so a test that lands within
    ``FIRST_FIT_SLACK`` of a capacity is decided in task order: the
    answer is then what ``loads`` says of the node's tasks so far."""
    assign = problem.origin.copy()
    pending = np.flatnonzero(assign < 0)
    if not len(pending):
        return assign
    required, capacity = problem.required, problem.capacity
    placed = assign >= 0
    loads = np.zeros(capacity.shape)
    np.add.at(loads, assign[placed], required[placed])
    if not (loads <= capacity).all():
        return None
    slack = FIRST_FIT_SLACK * capacity
    loads, upper, lower = (np.ascontiguousarray(a.T) for a in (loads, capacity + slack, capacity - slack))
    # Loads only grow, so a node too full for the componentwise smallest
    # pending demand is too full for every pending task from then on.
    smallest = required[pending].min(axis=0)
    start = _first_fit(loads, upper, smallest, 0)
    for t in pending.tolist():
        demand = required[t]
        node = _first_fit(loads, upper, demand, start)
        while node < problem.node_count and not (
                (loads[:, node] + demand <= lower[:, node]).all()
                or _fits_in_task_order(problem, assign, t, node)):
            node = _first_fit(loads, upper, demand, node + 1)
        if node == problem.node_count:
            return None
        loads[:, node] += demand
        assign[t] = node
        if node == start:
            start = _first_fit(loads, upper, smallest, start)
    return assign


def _origin_shortcut(run: _Run) -> bool:
    """Whether the origin with its pending tasks first-fitted is stable; if
    so it is offered as the call's answer, charged as one candidate.

    It is optimal.  Every candidate pays each pending task's cost, and
    moving a placed task off its origin only adds cost and moves, so no
    stable candidate has a smaller ``(stc, moved)``.  Among the stable
    candidates that have it (placed tasks home, pending ones anywhere),
    first-fit's is the smallest key: a node too full for a task, given the
    tasks placed before it, stays too full in every completion, since
    loads only grow.  That holds in floating point too, as first-fit
    decides each close call in ``loads``'s task order, and a rounded sum of
    nonnegative terms in a fixed order never shrinks when a term joins it.

    A completion that fails or is unstable charges, caches and draws
    nothing, so the search then runs as it would without it.  An origin
    with nothing pending is charged and cached even when unstable, as
    every call always did.
    """
    problem = run.problem
    assign = _first_fit_pending(problem)
    if assign is None or not (problem.origin_in_cell() or problem.is_stable(assign)):
        return False
    solution = run.candidate(assign)
    run.offer(solution)
    return solution.stable


def _strategy(body: Callable[[_Run], None]) -> Callable[[Instance, StrategyConfig], BalancerResult]:
    """A strategy from its body: the call's ``_Run`` is answered by the
    origin shortcut when that is stable, and searched by ``body`` if not."""
    @functools.wraps(body)
    def strategy(instance: Instance, cfg: StrategyConfig) -> BalancerResult:
        run = _Run(instance, cfg)
        if not _origin_shortcut(run):
            body(run)
        return run.result()
    return strategy


def _neighbor_scan(run: _Run, current: CandidateSolution,
                   visited: Optional[set] = None) -> Optional[CandidateSolution]:
    """Best stable one-task move by (cost, moved, task, node), not in ``visited``.

    From a stable solution, moving one task keeps every node stable except
    possibly the target, so a task is tested against all the other nodes
    (cut to the budget left) in one array test, one candidate per node.  Its
    moves have two cost tiers, home (when it sits off its origin; costs are
    never negative) and the rest, so its fitting nodes are walked in key
    order, home first, then by node index: the first not in ``visited`` wins.
    """
    problem = run.problem
    base = current.assign
    loads = current.loads
    nodes = np.arange(problem.node_count)
    best_key = None
    for t in range(problem.task_count):
        if not run.budget_left():
            break
        src, home = int(base[t]), int(problem.origin[t])
        targets = np.delete(nodes, src)[:run.cfg.max_candidates - run.examined]
        run.charge(len(targets))
        fits = targets[np.all(loads[targets] + problem.required[t] <= problem.capacity[targets], axis=1)]
        cost, moved = current.stc_from_origin, current.moved_count
        if src == home:
            tiers = [(cost + problem.costs[t], moved + 1, fits)]
        else:
            at_home = fits == home
            tiers = [(cost - problem.costs[t], moved - 1, fits[at_home]), (cost, moved, fits[~at_home])]
        for key in ((cost, moved, t, n) for cost, moved, ns in tiers for n in ns.tolist()):
            if best_key is not None and key >= best_key:
                break
            if visited is not None:
                probe = base.copy()
                probe[t] = key[3]
                if problem.key(probe) in visited:
                    continue
            best_key = key
            break
    if best_key is None:
        return None
    assign = base.copy()
    assign[best_key[2]] = best_key[3]
    return run.candidate(assign)


def _local_search(run: _Run, tabu_dull_limit: Optional[int] = None) -> None:
    """Walk to the best stable neighbor from each restart.

    Greedy (no ``tabu_dull_limit``) stops a walk at its first non-improving
    (dull) step; tabu search never revisits an assignment and stops after
    more than ``tabu_dull_limit`` dull steps in a row."""
    tabu = tabu_dull_limit is not None
    dull_limit = tabu_dull_limit if tabu else 0
    for current in run.restarts():
        visited = {run.problem.key(current.assign)} if tabu else None
        dull = 0
        while run.budget_left():
            step = _neighbor_scan(run, current, visited=visited)
            if step is None:
                break
            if visited is not None:
                visited.add(run.problem.key(step.assign))
            dull = 0 if step.rank_key() < current.rank_key() else dull + 1
            if dull > dull_limit:
                break
            current = step
            run.offer(current)


@_strategy
def greedy(run: _Run) -> None:
    """Hill-climb to a local cost optimum, restarting while budget remains."""
    _local_search(run)


@_strategy
def tabu_search(run: _Run) -> None:
    """Greedy walk that never revisits an assignment and allows a few dull moves."""
    _local_search(run, TABU_DULL_MOVE_LIMIT)


@_strategy
def _seed_walk(run: _Run) -> None:
    """Seeded GA's seed: a tabu walk that stops early, at a cheap local optimum."""
    _local_search(run, SGA_SEED_DULL_MOVE_LIMIT)


def _mutate(run: _Run, assign: np.ndarray) -> np.ndarray:
    """A copy of ``assign`` with one random task on another random node."""
    out = assign.copy()
    t = run.rng.randrange(run.problem.task_count)
    n = run.rng.randrange(run.problem.node_count - 1)
    if n >= int(out[t]):
        n += 1
    out[t] = n
    return out


@_strategy
def simulated_annealing(run: _Run) -> None:
    """Random-neighbor walk accepting regressions with probability
    exp(-delta/T) under geometric cooling; only stable candidates can become
    the reported best."""
    problem = run.problem
    if problem.node_count < 2 or problem.task_count == 0:
        run.random_stable()
        return
    # Instability enters the energy as a penalty dwarfing any possible cost.
    penalty = float(problem.costs.sum()) + 1.0

    def energy(solution: CandidateSolution) -> float:
        cost = solution.stc_from_origin
        if not solution.stable:
            overflow = np.maximum(solution.loads - problem.capacity, 0.0).sum()
            cost += penalty * (1.0 + overflow)
        return cost

    def initial_temperature(start: CandidateSolution) -> float:
        deltas = [abs(energy(run.candidate(_mutate(run, start.assign))) - energy(start))
                  for _ in range(min(64, problem.task_count * (problem.node_count - 1)))]
        deltas = sorted(d for d in deltas if d > 0)
        return float(deltas[len(deltas) // 2]) if deltas else 1.0

    t_floor_factor = 1e-6
    for current in run.restarts():
        current_energy = energy(current)
        temperature = initial_temperature(current)
        floor = temperature * t_floor_factor
        steps_at_t = 0
        while run.budget_left() and temperature > floor:
            neighbor = run.candidate(_mutate(run, current.assign))
            neighbor_energy = energy(neighbor)
            delta = neighbor_energy - current_energy
            if delta <= 0 or run.rng.random() < math.exp(-delta / temperature):
                current = neighbor
                current_energy = neighbor_energy
                run.offer(current)
            steps_at_t += 1
            if steps_at_t >= SA_STEPS_PER_TEMPERATURE:
                temperature *= SA_COOLING
                steps_at_t = 0


def _crossover(run: _Run, a: CandidateSolution, b: CandidateSolution) -> np.ndarray:
    draw = run.rng.random
    mask = np.array([draw() < 0.5 for _ in range(run.problem.task_count)])
    return np.where(mask, a.assign, b.assign)


def _ga_loop(run: _Run, population: list[CandidateSolution],
             drift: Callable[[], Optional[CandidateSolution]]) -> None:
    """Shared evolution loop; ``drift`` supplies per-generation injections."""
    problem = run.problem
    if problem.task_count == 0 or problem.node_count < 2:
        return
    target_size = max(2, len(population))
    while run.budget_left() and population:
        run.runs += 1
        population.sort(key=lambda s: s.rank_key())
        for solution in population:
            run.offer(solution)
        del population[target_size:]
        elite = population[: max(2, len(population) // 2)]
        offspring: list[CandidateSolution] = list(elite)
        while len(offspring) < target_size and run.budget_left():
            a, b = run.rng.sample(elite, 2) if len(elite) >= 2 else (elite[0], elite[0])
            child = _crossover(run, a, b)
            if run.rng.random() < GA_MUTATION_RATE:
                child = _mutate(run, child)
            # crossover is not stability-preserving: re-validate via ranking
            offspring.append(run.candidate(child))
        for _ in range(GA_DRIFT):
            if not run.budget_left():
                break
            injected = drift()
            if injected is not None:
                offspring.append(injected)
        population = offspring


@_strategy
def genetic(run: _Run) -> None:
    """Population search: rank by (stability, cost), uniform crossover,
    single-move mutation, and fresh random stable injections each generation."""
    population = []
    for _ in range(GA_POPULATION):
        if not run.budget_left():
            break
        solution = run.random_stable()
        if solution is None:
            break
        population.append(solution)
    _ga_loop(run, population, drift=run.random_stable)


@_strategy
def seeded_genetic(run: _Run) -> None:
    """Genetic search whose population (and drift) comes from locally optimal
    solutions, each a short tabu walk, at a quarter of the plain population
    size."""
    pool_size = max(2, int(round(GA_POPULATION * SGA_POOL_FRACTION)))
    # One locally optimal seed costs about a full descent: a neighbor scan
    # per step, roughly one step per task to re-home.  Cutting seeds off
    # mid-descent produces mediocre genotypes, which defeats seeding.
    problem = run.problem
    scan_cost = max(1, problem.task_count * max(1, problem.node_count - 1))
    slice_budget = max(64, scan_cost * (problem.task_count + 4))

    def seed() -> Optional[CandidateSolution]:
        remaining = run.cfg.max_candidates - run.examined
        if remaining <= 0:
            return None
        sub_cfg = StrategyConfig(seed=run.rng.randrange(2**63),
                                 max_candidates=min(slice_budget, remaining))
        sub = _seed_walk(problem, sub_cfg)
        run.charge(sub.stats["candidates_examined"])
        if sub.best is None or not run.budget_left():
            return None
        solution = run.candidate(sub.best.assign)
        run.offer(solution)
        return solution

    population: list[CandidateSolution] = []
    attempts = 0
    while len(population) < pool_size and run.budget_left():
        solution = seed()
        attempts += 1
        if solution is not None:
            population.append(solution)
        elif attempts > 3 * pool_size:
            break
    if not population:
        # no seed came back: degrade to a random stable population
        for _ in range(pool_size):
            solution = run.random_stable()
            if solution is None:
                break
            population.append(solution)

    _ga_loop(run, population, drift=seed)


def full_scan(instance: Instance, cfg: StrategyConfig) -> BalancerResult:
    """Exhaustive branch-and-bound: provably optimal or provably infeasible.

    Tasks are scanned in descending migration-cost order; a branch dies when
    a node's partial load already overflows (loads only grow downwards) or
    when the accumulated cost reaches the incumbent.  Instances with more
    than the configured leaf count are refused outright rather than silently
    truncated.
    """
    run = _Run(instance, cfg)
    problem = run.problem
    n_tasks, n_nodes = problem.task_count, problem.node_count
    if n_nodes == 0 and n_tasks > 0:
        return run.result(proven_infeasible=True)
    leaves = float(n_nodes) ** n_tasks
    if leaves > cfg.full_scan_leaf_cap:
        raise SearchSpaceCapExceeded(
            f"{n_nodes}^{n_tasks} = {leaves:.3g} leaves exceeds cap {cfg.full_scan_leaf_cap:.3g}")
    if _origin_shortcut(run):
        return run.result(proven_optimal=True)
    if not problem.demand_fits():
        return run.result(proven_infeasible=True)

    # A couple of quick random stable solutions seed the incumbent so cost
    # pruning bites from the start.
    for _ in range(3):
        run.random_stable()

    order = sorted(range(n_tasks), key=lambda t: (-problem.costs[t], t))
    required = problem.required
    capacity = problem.capacity
    costs = problem.costs
    origin = problem.origin

    best_cost = run.best.stc_from_origin if run.best is not None else math.inf
    best_assign = run.best.assign.copy() if run.best is not None else None
    assign = np.full(n_tasks, -1, dtype=np.int64)
    loads = np.zeros_like(capacity)
    visited_nodes = 0

    def node_order(task: int) -> list[int]:
        home = int(origin[task])
        rest = [n for n in range(n_nodes) if n != home]
        return ([home] + rest) if 0 <= home < n_nodes else list(range(n_nodes))

    def dfs(depth: int, acc_cost: float) -> None:
        nonlocal best_cost, best_assign, visited_nodes
        visited_nodes += 1
        if visited_nodes > FULL_SCAN_NODE_CAP:
            raise SearchSpaceCapExceeded(
                f"explored more than {FULL_SCAN_NODE_CAP} branch nodes")
        if depth == n_tasks:
            if acc_cost < best_cost:
                best_cost = acc_cost
                best_assign = assign.copy()
            return
        task = order[depth]
        demand = required[task]
        for node in node_order(task):
            step_cost = 0.0 if node == int(origin[task]) else float(costs[task])
            new_cost = acc_cost + step_cost
            if new_cost >= best_cost:
                continue
            new_load = loads[node] + demand
            if np.any(new_load > capacity[node]):
                continue
            loads[node] = new_load
            assign[task] = node
            run.charge()
            dfs(depth + 1, new_cost)
            loads[node] = new_load - demand
            assign[task] = -1

    dfs(0, 0.0)
    if best_assign is not None:
        run.offer(run.candidate(best_assign))
    if run.best is None:
        return run.result(branch_nodes=visited_nodes, proven_infeasible=True)
    return run.result(branch_nodes=visited_nodes, proven_optimal=True)


STRATEGIES: dict[str, Callable[..., BalancerResult]] = {
    "greedy": greedy,
    "tabu": tabu_search,
    "sa": simulated_annealing,
    "ga": genetic,
    "sga": seeded_genetic,
    "full_scan": full_scan,
}
