"""Search strategies over full task-to-node assignments.

All strategies share the same contract: stability is a hard constraint, the
objective is the transformation cost from the origin assignment, and among
equal-cost stable solutions ties break by fewest migrated tasks then by
lexicographic assignment encoding.  An already-stable origin is optimal by
definition (cost zero) and is returned immediately.  Strategies never report
an unstable assignment as stable; if the budget runs out before a stable
solution appears, the result says so.

Every candidate evaluation is metered against ``max_candidates``, which
makes cross-strategy comparisons budget-fair and keeps tests deterministic;
wall-clock budgets exist for benchmarking only.

Greedy and tabu search are one local-search loop: greedy is tabu search
that keeps no tabu list and allows no non-improving move.  Annealing and
the genetic mutation draw the same random one-task move.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

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
FULL_SCAN_NODE_CAP = 50_000_000


class SearchSpaceCapExceeded(RuntimeError):
    """Full scan refuses instances larger than its configured cap."""


@dataclass
class StrategyConfig:
    seed: int
    #: Candidate-evaluation budget; the deterministic replacement for the
    #: wall-clock budgets used in benchmarking mode.
    max_candidates: int = 50_000
    time_budget_s: Optional[float] = None
    tabu_dull_move_limit: int = 25
    full_scan_leaf_cap: float = 1e8
    cache_enabled: bool = True

    def __post_init__(self) -> None:
        if self.seed is None:
            raise ValueError("seed is mandatory for reproducibility")


@dataclass
class BalancerResult:
    best: Optional[CandidateSolution]
    stable: bool
    stats: dict = field(default_factory=dict)

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
        self.cache = SolutionCache() if cfg.cache_enabled else None
        self.examined = 0
        self.runs = 0
        self.best: Optional[CandidateSolution] = None
        self.started = time.monotonic()

    def budget_left(self) -> bool:
        if self.examined >= self.cfg.max_candidates:
            return False
        if self.cfg.time_budget_s is not None:
            return (time.monotonic() - self.started) < self.cfg.time_budget_s
        return True

    def charge(self, count: int = 1) -> None:
        self.examined += count

    def candidate(self, assign: np.ndarray) -> CandidateSolution:
        self.charge()
        if self.cache is None:
            return CandidateSolution(self.problem, assign.copy())
        frozen = assign.copy()
        return self.cache.lookup_or_insert(
            self.problem.key(frozen), lambda: CandidateSolution(self.problem, frozen))

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

    def result(self, extra: Optional[dict] = None) -> BalancerResult:
        stats = {
            "runs": self.runs,
            "candidates_examined": self.examined,
            "cache_hits": self.cache.hits if self.cache else 0,
            "elapsed_s": time.monotonic() - self.started,
        }
        if extra:
            stats.update(extra)
        return BalancerResult(best=self.best, stable=self.best is not None, stats=stats)


def _origin_shortcut(run: _Run) -> Optional[BalancerResult]:
    """A stable, fully in-cell origin has cost zero: optimal by definition."""
    problem = run.problem
    if problem.origin_in_cell():
        origin = run.candidate(problem.origin.copy())
        if origin.stable:
            run.offer(origin)
            return run.result()
    return None


def _neighbor_scan(run: _Run, current: CandidateSolution,
                   visited: Optional[set] = None) -> Optional[CandidateSolution]:
    """Best stable neighbor by (cost, moved, encoding); incremental checks.

    From a stable solution, moving one task keeps every node stable except
    possibly the target, so each neighbor costs O(d) to test.
    """
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


def _local_search(instance: Instance, cfg: StrategyConfig, tabu: bool) -> BalancerResult:
    """Walk to the best stable neighbor, restarting while budget remains.

    Without ``tabu`` the walk stops at its first non-improving (dull) step;
    with it, it never revisits an assignment and stops after more than
    ``tabu_dull_move_limit`` dull steps in a row."""
    run = _Run(instance, cfg)
    shortcut = _origin_shortcut(run)
    if shortcut is not None:
        return shortcut
    dull_limit = cfg.tabu_dull_move_limit if tabu else 0
    while run.budget_left():
        run.runs += 1
        current = run.random_stable()
        if current is None:
            break
        visited = {run.problem.key(current.assign)} if tabu else None
        dull = 0
        while run.budget_left() and dull <= dull_limit:
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
    return run.result()


def greedy(instance: Instance, cfg: StrategyConfig) -> BalancerResult:
    """Hill-climb to a local cost optimum, restarting while budget remains."""
    return _local_search(instance, cfg, tabu=False)


def tabu_search(instance: Instance, cfg: StrategyConfig) -> BalancerResult:
    """Greedy walk that never revisits an assignment and allows a few dull moves."""
    return _local_search(instance, cfg, tabu=True)


def _mutate(run: _Run, assign: np.ndarray) -> np.ndarray:
    """A copy of ``assign`` with one random task on another random node."""
    out = assign.copy()
    t = run.rng.randrange(run.problem.task_count)
    n = run.rng.randrange(run.problem.node_count - 1)
    if n >= int(out[t]):
        n += 1
    out[t] = n
    return out


def simulated_annealing(instance: Instance, cfg: StrategyConfig) -> BalancerResult:
    """Random-neighbor walk accepting regressions with probability
    exp(-delta/T) under geometric cooling; only stable candidates can become
    the reported best."""
    run = _Run(instance, cfg)
    problem = run.problem
    shortcut = _origin_shortcut(run)
    if shortcut is not None:
        return shortcut
    if problem.node_count < 2 or problem.task_count == 0:
        run.random_stable()
        return run.result()
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
        deltas = [d for d in deltas if d > 0]
        if not deltas:
            return 1.0
        return float(sorted(deltas)[len(deltas) // 2]) or 1.0

    t_floor_factor = 1e-6
    while run.budget_left():
        run.runs += 1
        current = run.random_stable()
        if current is None:
            break
        current_energy = energy(current)
        temperature = initial_temperature(current)
        floor = temperature * t_floor_factor
        steps_at_t = 0
        while run.budget_left() and temperature > floor:
            neighbor = run.candidate(_mutate(run, current.assign))
            delta = energy(neighbor) - current_energy
            if delta <= 0 or run.rng.random() < math.exp(-delta / temperature):
                current = neighbor
                current_energy = energy(neighbor)
                run.offer(current)
            steps_at_t += 1
            if steps_at_t >= SA_STEPS_PER_TEMPERATURE:
                temperature *= SA_COOLING
                steps_at_t = 0
    return run.result()


def _crossover(run: _Run, a: CandidateSolution, b: CandidateSolution) -> np.ndarray:
    mask = np.array([run.rng.random() < 0.5 for _ in range(run.problem.task_count)])
    return np.where(mask, a.assign, b.assign).astype(np.int64)


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


def genetic(instance: Instance, cfg: StrategyConfig) -> BalancerResult:
    """Population search: rank by (stability, cost), uniform crossover,
    single-move mutation, and fresh random stable injections each generation."""
    run = _Run(instance, cfg)
    shortcut = _origin_shortcut(run)
    if shortcut is not None:
        return shortcut
    population = []
    for _ in range(GA_POPULATION):
        if not run.budget_left():
            break
        solution = run.random_stable()
        if solution is None:
            break
        population.append(solution)
    _ga_loop(run, population, drift=run.random_stable)
    return run.result()


SEEDER_STRATEGIES: dict[str, Callable[[Instance, StrategyConfig], BalancerResult]] = {}


def seeded_genetic(instance: Instance, cfg: StrategyConfig,
                   seeders: Sequence[str] = ("tabu",)) -> BalancerResult:
    """Genetic search whose population (and drift) comes from locally optimal
    solutions produced by the seeder strategies, at a quarter of the plain
    population size."""
    if not seeders:
        raise ValueError("at least one seeder strategy required")
    unknown = [s for s in seeders if s not in SEEDER_STRATEGIES]
    if unknown:
        raise ValueError(f"unknown seeders {unknown}; choose from {sorted(SEEDER_STRATEGIES)}")
    run = _Run(instance, cfg)
    shortcut = _origin_shortcut(run)
    if shortcut is not None:
        return shortcut

    pool_size = max(2, int(round(GA_POPULATION * SGA_POOL_FRACTION)))
    # One locally optimal seed costs about a full descent: a neighbor scan
    # per step, roughly one step per task to re-home.  Cutting seeds off
    # mid-descent produces mediocre genotypes, which defeats seeding.
    problem = run.problem
    scan_cost = max(1, problem.task_count * max(1, problem.node_count - 1))
    slice_budget = max(64, scan_cost * (problem.task_count + 4))

    def run_seeder(name: str) -> Optional[CandidateSolution]:
        remaining = cfg.max_candidates - run.examined
        if remaining <= 0:
            return None
        sub_cfg = StrategyConfig(
            seed=run.rng.randrange(2**63),
            max_candidates=min(slice_budget, remaining),
            # seeds should be cheap local optima: long dull-move wandering
            # inside a seeding slice only eats the shared budget
            tabu_dull_move_limit=min(3, cfg.tabu_dull_move_limit),
            cache_enabled=False,
        )
        sub = SEEDER_STRATEGIES[name](problem, sub_cfg)
        run.charge(sub.stats["candidates_examined"])
        if sub.best is None:
            return None
        solution = run.candidate(sub.best.assign) if run.budget_left() else None
        if solution is not None:
            run.offer(solution)
        return solution

    population: list[CandidateSolution] = []
    index = 0
    while len(population) < pool_size and run.budget_left():
        solution = run_seeder(seeders[index % len(seeders)])
        index += 1
        if solution is not None:
            population.append(solution)
        elif index > 3 * pool_size * len(seeders):
            break
    if not population:
        # all seeders failed: degrade to a random stable population
        for _ in range(pool_size):
            solution = run.random_stable()
            if solution is None:
                break
            population.append(solution)

    seeder_cycle = {"index": 0}

    def seeded_drift() -> Optional[CandidateSolution]:
        name = seeders[seeder_cycle["index"] % len(seeders)]
        seeder_cycle["index"] += 1
        return run_seeder(name)

    _ga_loop(run, population, drift=seeded_drift)
    return run.result()


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
    if n_nodes == 0:
        if n_tasks == 0:
            run.offer(run.candidate(problem.origin.copy()))
            return run.result({"proven_optimal": True})
        return run.result({"proven_infeasible": True})
    leaves = float(n_nodes) ** n_tasks
    if leaves > cfg.full_scan_leaf_cap:
        raise SearchSpaceCapExceeded(
            f"{n_nodes}^{n_tasks} = {leaves:.3g} leaves exceeds cap {cfg.full_scan_leaf_cap:.3g}")
    shortcut = _origin_shortcut(run)
    if shortcut is not None:
        shortcut.stats["proven_optimal"] = True
        return shortcut
    if not problem.demand_fits():
        return run.result({"proven_infeasible": True})

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
    extra = {"branch_nodes": visited_nodes}
    if run.best is None:
        extra["proven_infeasible"] = True
    else:
        extra["proven_optimal"] = True
    return run.result(extra)


STRATEGIES: dict[str, Callable[..., BalancerResult]] = {
    "greedy": greedy,
    "tabu": tabu_search,
    "sa": simulated_annealing,
    "ga": genetic,
    "sga": seeded_genetic,
    "full_scan": full_scan,
}

SEEDER_STRATEGIES.update({
    "greedy": greedy,
    "tabu": tabu_search,
    "sa": simulated_annealing,
})
