"""Strategy tests anchored on an independent unpruned enumeration oracle."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellsim.metaheuristics import (
    STRATEGIES,
    BalancerResult,
    CandidateSolution,
    InfeasibleError,
    PackedProblem,
    SearchSpaceCapExceeded,
    SolutionCache,
    StrategyConfig,
    benchmark_state,
    full_scan,
    genetic,
    greedy,
    random_stable_solution,
    seeded_genetic,
    simulated_annealing,
    tabu_search,
)
from cellsim.model import (
    NodeSpec,
    ResourceTypeCatalog,
    SystemState,
    TaskSpec,
    is_system_stable,
    transformation_cost,
)
from cellsim.metaheuristics import strategies
from cellsim.metaheuristics.strategies import (
    FIRST_FIT_CHUNK,
    GA_POPULATION,
    SGA_POOL_FRACTION,
    _first_fit_pending,
    _neighbor_scan,
    _origin_shortcut,
    _Run,
)
import candidate_oracle
from repair_oracle import random_stable_solution as oracle_random_stable_solution
from scan_oracle import neighbor_scan as oracle_neighbor_scan


def brute_force_optimum(problem: PackedProblem):
    """Literal enumeration of every |nodes|^|tasks| assignment; the oracle
    the pruned search must agree with."""
    best_cost, best = None, None
    for combo in itertools.product(range(problem.node_count), repeat=problem.task_count):
        assign = np.array(combo, dtype=np.int64)
        if not problem.is_stable(assign):
            continue
        cost = candidate_oracle.stc(problem, assign)
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, assign
    return best_cost, best


def small_state(seed, max_nodes=4, max_tasks=10, dims=(2, 3, 4), leaf_cap=250_000):
    rng = random.Random(seed)
    while True:
        dim = rng.choice(dims)
        n_nodes = rng.randint(2, max_nodes)
        n_tasks = rng.randint(2, max_tasks)
        if n_nodes ** n_tasks > leaf_cap:
            continue
        catalog = ResourceTypeCatalog(tuple(f"r{i}" for i in range(dim)))
        nodes = [NodeSpec(f"n{i}", tuple(rng.uniform(5, 15) for _ in range(dim)))
                 for i in range(n_nodes)]
        tasks = [TaskSpec(id=f"t{i:02d}", required=tuple(rng.uniform(0.5, 6) for _ in range(dim)),
                          migration_cost_mb=rng.choice([1, 2, 5, 7, 11, 20]))
                 for i in range(n_tasks)]
        assignment = {t.id: rng.choice(nodes).id for t in tasks}
        return SystemState(catalog=catalog, nodes=tuple(nodes), tasks=tuple(tasks),
                           assignment=assignment)


def verify_result(state, result: BalancerResult):
    """Re-validate a claimed-stable result from scratch against the model."""
    assert result.stable
    assert result.best is not None
    assignment = result.best.to_assignment()
    rebuilt = SystemState(catalog=state.catalog, nodes=state.nodes, tasks=state.tasks,
                          assignment=assignment)
    assert is_system_stable(rebuilt)
    recomputed = transformation_cost(state.assignment, assignment, state.tasks)
    assert result.best.stc_from_origin == pytest.approx(recomputed)


class TestRandomStableSolution:
    def test_stable_output_and_determinism(self):
        state = benchmark_state("test1")
        problem = PackedProblem.from_state(state)
        a = random_stable_solution(problem, random.Random(7))
        b = random_stable_solution(problem, random.Random(7))
        assert (a == b).all()
        assert problem.is_stable(a)

    def test_hundred_seeds_all_stable(self):
        state = benchmark_state("test1")
        problem = PackedProblem.from_state(state)
        for seed in range(100):
            assign = random_stable_solution(problem, random.Random(seed))
            solution = CandidateSolution(problem, assign)
            assert solution.stable
            # independent re-check through the model layer
            rebuilt = SystemState(catalog=state.catalog, nodes=state.nodes,
                                  tasks=state.tasks,
                                  assignment=problem.assignment_of(assign))
            assert is_system_stable(rebuilt)

    def test_min_one_task_moved_per_iteration(self):
        # every task is too big for any node, so all 5 sit on overloaded
        # nodes: a tenth of 5 floors to 0, and the rule clamps it to 1
        asked = []

        class Recording(random.Random):
            def sample(self, population, k, **kwargs):
                asked.append((len(population), k))
                return super().sample(population, k, **kwargs)

        problem = PackedProblem(
            task_ids=tuple(f"t{i}" for i in range(5)), node_ids=("a", "b"),
            required=np.ones((5, 1)), capacity=np.array([[0.5], [0.5]]),
            costs=np.ones(5), origin=np.zeros(5, dtype=np.int64))
        with pytest.raises(InfeasibleError):
            random_stable_solution(problem, Recording(3), max_iters=1)
        assert asked == [(5, 1)]

    def test_infeasible_raises_not_loops(self):
        catalog = ResourceTypeCatalog(("cpu",))
        nodes = [NodeSpec("a", (1.0,)), NodeSpec("b", (1.0,))]
        tasks = [TaskSpec(id="t", required=(5.0,), migration_cost_mb=1.0)]
        state = SystemState(catalog=catalog, nodes=tuple(nodes), tasks=tuple(tasks),
                            assignment={"t": "a"})
        with pytest.raises(InfeasibleError):
            random_stable_solution(PackedProblem.from_state(state), random.Random(0), max_iters=50)

    def test_overloaded_node_without_tasks_raises(self):
        # node b is overloaded wherever the tasks go: once they have left it,
        # no task can be moved to repair it
        problem = PackedProblem(
            task_ids=("t0", "t1"), node_ids=("a", "b"),
            required=np.array([[1.0], [1.0]]), capacity=np.array([[10.0], [-0.5]]),
            costs=np.array([1.0, 1.0]), origin=np.array([0, 0], dtype=np.int64))
        for seed in range(20):
            with pytest.raises(InfeasibleError):
                random_stable_solution(problem, random.Random(seed))
        for name, strategy in STRATEGY_CASES:
            result = strategy(problem, StrategyConfig(seed=1, max_candidates=300))
            assert not result.stable and result.best is None, name


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_repair_matches_array_oracle(data):
    """The list-based repair loop returns the array oracle's assignment, or
    raises its error, and leaves the generator in the same state: one node,
    no tasks, loads in tenths (whose sums round) and negative capacities
    (infeasible) with a small iteration cap included."""
    dim = data.draw(st.integers(1, 5))
    n_nodes = data.draw(st.integers(0, 6))
    n_tasks = data.draw(st.integers(0, 45))
    tenths = lambda rows, low, high: np.array(data.draw(st.lists(
        st.lists(st.integers(low, high).map(lambda v: v / 10), min_size=dim, max_size=dim),
        min_size=rows, max_size=rows)), dtype=np.float64).reshape(rows, dim)
    # a node's mean demand is 2 * n_tasks / n_nodes: capacities from 1.5 to
    # 4 times that are mostly feasible, from 0 or below mostly not
    share = 10 * max(1, n_tasks) // max(1, n_nodes)
    problem = PackedProblem(
        task_ids=tuple(f"t{i}" for i in range(n_tasks)),
        node_ids=tuple(f"n{i}" for i in range(n_nodes)),
        required=tenths(n_tasks, 0, 40),
        capacity=tenths(n_nodes, data.draw(st.sampled_from([3 * share, 0, -5])), 8 * share),
        costs=np.ones(n_tasks),
        origin=np.zeros(n_tasks, dtype=np.int64))
    seed = data.draw(st.integers(0, 2**32))
    max_iters = data.draw(st.one_of(st.integers(1, 8), st.just(300)))

    def repair(fn):
        rng = random.Random(seed)
        try:
            assign = fn(problem, rng, max_iters=max_iters)
            out = (assign.dtype, assign.tolist())
        except InfeasibleError as exc:
            out = ("infeasible", str(exc))
        return out, rng.getstate()

    assert repair(random_stable_solution) == repair(oracle_random_stable_solution)


#: Node indices on both sides of the one- and two-byte boundaries.
BOUNDARY_NODES = (0, 1, 2, 254, 255, 256, 257, 65_534, 65_535, 65_536, 65_537)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rank_key_orders_like_the_index_tuple(data):
    """Ranking by the big-endian key sorts candidates as ranking by the
    tuple of node indices does, with index pairs that differ in any byte;
    and a cached candidate's key is the cache's own bytes object."""
    n_nodes = BOUNDARY_NODES[-1] + 1
    n_tasks = data.draw(st.integers(0, 4))
    nodes = st.one_of(st.sampled_from(BOUNDARY_NODES), st.integers(0, n_nodes - 1))
    problem = PackedProblem(
        task_ids=tuple(f"t{i}" for i in range(n_tasks)),
        node_ids=tuple(f"n{i}" for i in range(n_nodes)),
        required=np.ones((n_tasks, 1)),
        # capacities 0, 1 and 2 in turn: some candidates are unstable
        capacity=(np.arange(n_nodes) % 3).astype(np.float64).reshape(n_nodes, 1),
        costs=np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]),
                                          min_size=n_tasks, max_size=n_tasks))),
        origin=np.array(data.draw(st.lists(nodes, min_size=n_tasks, max_size=n_tasks)),
                        dtype=np.int64))
    run = _Run(problem, StrategyConfig(seed=0))
    assigns = data.draw(st.lists(st.lists(nodes, min_size=n_tasks, max_size=n_tasks),
                                 min_size=1, max_size=12))
    solutions = [run.candidate(np.array(a, dtype=np.int64)) for a in assigns]
    cached = {key: key for key in run.cache._entries}
    assert all(s.key is cached[s.key] for s in solutions)

    def by_tuple(s):
        return (not s.stable, s.stc_from_origin, s.moved_count, tuple(int(v) for v in s.assign))
    order = range(len(solutions))
    assert (sorted(order, key=lambda i: solutions[i].rank_key())
            == sorted(order, key=lambda i: by_tuple(solutions[i])))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_candidate_figures_match_a_recount(data):
    """A candidate's loads, stability, cost and moves, computed when it is
    made, equal a task-by-task recount, on small problems with some tasks
    pending.  Demands and costs are multiples of 1/4, so every sum is
    exact and the two summation orders must agree to the bit."""
    n_nodes = data.draw(st.integers(1, 4))
    n_tasks = data.draw(st.integers(1, 7))
    dim = data.draw(st.integers(1, 3))
    quarters = st.integers(0, 24).map(lambda q: q / 4)
    nodes = st.integers(0, n_nodes - 1)
    problem = PackedProblem(
        task_ids=tuple(f"t{i}" for i in range(n_tasks)),
        node_ids=tuple(f"n{i}" for i in range(n_nodes)),
        required=np.array(data.draw(st.lists(st.lists(quarters, min_size=dim, max_size=dim),
                                             min_size=n_tasks, max_size=n_tasks))),
        capacity=np.array(data.draw(st.lists(st.lists(quarters, min_size=dim, max_size=dim),
                                             min_size=n_nodes, max_size=n_nodes))),
        costs=np.array(data.draw(st.lists(quarters, min_size=n_tasks, max_size=n_tasks))),
        origin=np.array(data.draw(st.lists(st.one_of(st.just(-1), nodes),
                                           min_size=n_tasks, max_size=n_tasks)), dtype=np.int64))
    assign = np.array(data.draw(st.lists(nodes, min_size=n_tasks, max_size=n_tasks)), dtype=np.int64)
    solution = CandidateSolution(problem, assign)
    assert solution.loads.tolist() == candidate_oracle.loads(problem, assign)
    assert solution.stable == candidate_oracle.stable(problem, assign)
    assert solution.stc_from_origin == candidate_oracle.stc(problem, assign)
    assert solution.moved_count == len(candidate_oracle.moved(problem, assign))
    assert solution.rank_key() == candidate_oracle.rank_key(problem, assign)


class TestSolutionCache:
    def test_hit_returns_same_object_builder_once(self):
        state = small_state(5)
        problem = PackedProblem.from_state(state)
        cache = SolutionCache(capacity=10)
        calls = []

        def builder():
            calls.append(1)
            return CandidateSolution(problem, problem.origin.copy())

        key = problem.key(problem.origin)
        first = cache.lookup_or_insert(key, builder)
        second = cache.lookup_or_insert(key, builder)
        assert first is second
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_one_evicts(self):
        state = small_state(6)
        problem = PackedProblem.from_state(state)
        cache = SolutionCache(capacity=1)
        k1, k2 = b"a", b"b"
        cache.lookup_or_insert(k1, lambda: CandidateSolution(problem, problem.origin.copy()))
        cache.lookup_or_insert(k2, lambda: CandidateSolution(problem, problem.origin.copy()))
        assert cache.evictions == 1
        cache.lookup_or_insert(k1, lambda: CandidateSolution(problem, problem.origin.copy()))
        assert cache.misses == 3  # k1 was evicted, rebuilt


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_neighbor_scan_matches_scalar_oracle(data):
    """On a random packed problem, with off-cell origins, repeated costs, a
    random visited set and a budget that may run out partway through a
    task's nodes, the per-task array scan picks the oracle's move and
    examines the same number of candidates."""
    dim = data.draw(st.integers(1, 3))
    n_nodes = data.draw(st.integers(1, 6))
    n_tasks = data.draw(st.integers(0, 8))
    vectors = lambda rows, low, high: np.array(data.draw(st.lists(
        st.lists(st.floats(low, high), min_size=dim, max_size=dim),
        min_size=rows, max_size=rows)), dtype=np.float64).reshape(rows, dim)
    problem = PackedProblem(
        task_ids=tuple(f"t{i}" for i in range(n_tasks)),
        node_ids=tuple(f"n{i}" for i in range(n_nodes)),
        required=vectors(n_tasks, 0.0, 4.0),
        capacity=vectors(n_nodes, 1.0, 10.0),
        costs=np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                                          min_size=n_tasks, max_size=n_tasks))),
        origin=np.array(data.draw(st.lists(st.integers(-1, n_nodes - 1),
                                           min_size=n_tasks, max_size=n_tasks)), dtype=np.int64))
    assign = np.array(data.draw(st.lists(st.integers(0, n_nodes - 1),
                                         min_size=n_tasks, max_size=n_tasks)), dtype=np.int64)
    neighbors = []
    for t in range(n_tasks):
        for n in range(n_nodes):
            if n != assign[t]:
                probe = assign.copy()
                probe[t] = n
                neighbors.append(problem.key(probe))
    visited = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(neighbors))
                                  if neighbors else st.just(set())))
    budget = data.draw(st.integers(1, n_tasks * n_nodes + 2))
    spent = data.draw(st.integers(0, budget))

    def scan(scan_fn):
        run = _Run(problem, StrategyConfig(seed=0, max_candidates=budget))
        run.examined = spent
        step = scan_fn(run, CandidateSolution(problem, assign),
                       visited=None if visited is None else set(visited))
        return (None if step is None else step.assign.tolist()), run.examined

    assert scan(_neighbor_scan) == scan(oracle_neighbor_scan)


class TestFullScanOracle:
    def test_matches_unpruned_enumeration(self):
        mismatches = []
        for seed in range(12):
            state = small_state(seed, leaf_cap=30_000)
            problem = PackedProblem.from_state(state)
            oracle_cost, oracle_assign = brute_force_optimum(problem)
            result = full_scan(state, StrategyConfig(seed=seed, max_candidates=10**9))
            if oracle_cost is None:
                assert result.best is None
                assert result.stats.get("proven_infeasible")
            else:
                if result.stc_mb != pytest.approx(oracle_cost):
                    mismatches.append((seed, result.stc_mb, oracle_cost))
                verify_result(state, result)
        assert mismatches == []

    def test_stable_origin_returns_zero_immediately(self):
        state = small_state(1)
        # re-home every task onto an exclusive node layout that fits
        problem = PackedProblem.from_state(state)
        assign = random_stable_solution(problem, random.Random(0))
        stable_state = SystemState(catalog=state.catalog, nodes=state.nodes,
                                   tasks=state.tasks,
                                   assignment=problem.assignment_of(assign))
        result = full_scan(stable_state, StrategyConfig(seed=0))
        assert result.stc_mb == 0.0
        assert result.stats.get("proven_optimal")

    def test_infeasible_by_pigeonhole(self):
        catalog = ResourceTypeCatalog(("cpu", "mem"))
        nodes = (NodeSpec("a", (1.0, 10.0)), NodeSpec("b", (1.0, 10.0)))
        tasks = (TaskSpec(id="t1", required=(1.5, 1.0), migration_cost_mb=1.0),
                 TaskSpec(id="t2", required=(1.0, 1.0), migration_cost_mb=1.0))
        state = SystemState(catalog=catalog, nodes=nodes, tasks=tasks,
                            assignment={"t1": "a", "t2": "b"})
        result = full_scan(state, StrategyConfig(seed=0))
        assert result.best is None and not result.stable
        assert result.stats.get("proven_infeasible")

    def test_cap_refusal_is_explicit(self):
        state = benchmark_state("test5")  # 12^60 leaves
        with pytest.raises(SearchSpaceCapExceeded):
            full_scan(state, StrategyConfig(seed=0))

    def test_benchmark_test1_optimum(self):
        # Seven tasks start on nodes outside the enabled subset and must pay
        # their costs (4+6+6+4+5+1+1 = 27); a zero-extra-move completion
        # exists, so 27 is the optimum.
        state = benchmark_state("test1")
        result = full_scan(state, StrategyConfig(seed=0, max_candidates=10**9,
                                                 full_scan_leaf_cap=2e12))
        assert result.stc_mb == 27.0
        verify_result(state, result)


STRATEGY_CASES = [
    ("greedy", lambda s, c: greedy(s, c)),
    ("tabu", lambda s, c: tabu_search(s, c)),
    ("sa", lambda s, c: simulated_annealing(s, c)),
    ("ga", lambda s, c: genetic(s, c)),
    ("sga", lambda s, c: seeded_genetic(s, c)),
]


class TestStrategySoundness:
    @pytest.mark.parametrize("name,strategy", STRATEGY_CASES)
    def test_stable_and_recomputable_on_benchmark(self, name, strategy):
        state = benchmark_state("test1")
        for seed in (1, 2, 3):
            result = strategy(state, StrategyConfig(seed=seed, max_candidates=3000))
            verify_result(state, result)
            assert result.stc_mb >= 27.0  # never beats the proven optimum

    @pytest.mark.parametrize("name,strategy", STRATEGY_CASES)
    def test_stable_origin_shortcut(self, name, strategy):
        state = small_state(2)
        problem = PackedProblem.from_state(state)
        assign = random_stable_solution(problem, random.Random(3))
        stable_state = SystemState(catalog=state.catalog, nodes=state.nodes,
                                   tasks=state.tasks,
                                   assignment=problem.assignment_of(assign))
        result = strategy(stable_state, StrategyConfig(seed=9, max_candidates=500))
        assert result.stc_mb == 0.0

    @pytest.mark.parametrize("name,strategy", STRATEGY_CASES)
    def test_determinism(self, name, strategy):
        state = benchmark_state("test1")
        a = strategy(state, StrategyConfig(seed=123, max_candidates=2000))
        b = strategy(state, StrategyConfig(seed=123, max_candidates=2000))
        assert a.stc_mb == b.stc_mb
        assert (a.best.assign == b.best.assign).all()

    def test_greedy_matches_enumeration_on_toy(self):
        # single-node-overload toy: 3 tasks, 2 nodes -> 8 assignments
        catalog = ResourceTypeCatalog(("cpu",))
        nodes = (NodeSpec("a", (2.0,)), NodeSpec("b", (2.0,)))
        tasks = (TaskSpec(id="t1", required=(1.0,), migration_cost_mb=3.0),
                 TaskSpec(id="t2", required=(1.0,), migration_cost_mb=5.0),
                 TaskSpec(id="t3", required=(1.0,), migration_cost_mb=7.0))
        state = SystemState(catalog=catalog, nodes=nodes, tasks=tasks,
                            assignment={"t1": "a", "t2": "a", "t3": "a"})
        problem = PackedProblem.from_state(state)
        oracle_cost, _ = brute_force_optimum(problem)
        result = greedy(state, StrategyConfig(seed=4, max_candidates=2000))
        assert result.stc_mb == pytest.approx(oracle_cost) == 3.0

    def test_tabu_never_revisits(self):
        state = benchmark_state("test1")
        result = tabu_search(state, StrategyConfig(seed=5, max_candidates=2000))
        verify_result(state, result)

    def test_unstable_never_reported_stable(self):
        catalog = ResourceTypeCatalog(("cpu",))
        nodes = (NodeSpec("a", (1.0,)), NodeSpec("b", (1.0,)))
        tasks = (TaskSpec(id="t", required=(5.0,), migration_cost_mb=1.0),)
        state = SystemState(catalog=catalog, nodes=nodes, tasks=tasks,
                            assignment={"t": "a"})
        for name, strategy in STRATEGY_CASES:
            result = strategy(state, StrategyConfig(seed=1, max_candidates=300))
            assert not result.stable
            assert result.best is None


class TestSeededGenetic:
    def test_elitism_never_worse_than_best_seed(self):
        state = benchmark_state("test2")
        cfg = StrategyConfig(seed=17, max_candidates=6000)
        result = seeded_genetic(state, cfg)
        verify_result(state, result)
        seed_only = tabu_search(state, StrategyConfig(seed=17, max_candidates=1500))
        # the seeded run had strictly more budget and inherits seed results
        assert result.stc_mb is not None

    def test_fallback_to_random_population(self, monkeypatch):
        # at this budget tabu's first seed takes the whole budget, so no seed
        # joins the population and it is drawn at random, past the budget
        exhausted = []
        random_stable = _Run.random_stable

        def counted(run):
            exhausted.append(not run.budget_left())
            return random_stable(run)
        monkeypatch.setattr(_Run, "random_stable", counted)
        state = benchmark_state("test1")
        result = seeded_genetic(state, StrategyConfig(seed=3, max_candidates=600))
        assert result.best is not None
        assert sum(exhausted) == max(2, round(GA_POPULATION * SGA_POOL_FRACTION))


class TestGeneticDetails:
    def test_crossover_products_revalidated(self):
        # crossing two stable parents can produce an unstable child; the GA
        # must rank it below every stable candidate rather than report it
        state = benchmark_state("test1")
        result = genetic(state, StrategyConfig(seed=8, max_candidates=2500))
        verify_result(state, result)


def brute_force_best_key(problem: PackedProblem):
    """The smallest ``rank_key`` over every stable assignment, or None:
    every |nodes|^|tasks| assignment is enumerated as one array, in
    lexicographic order, so among equal (cost, moves) the first is the
    smallest key.  Costs must be integers, so the sums are exact."""
    grid = np.array(list(itertools.product(range(problem.node_count), repeat=problem.task_count)),
                    dtype=np.int64).reshape(-1, problem.task_count)
    on = grid[:, :, None] == np.arange(problem.node_count)  # (K, T, N)
    loads = np.einsum("ktn,td->knd", on, problem.required)
    stable = (loads <= problem.capacity).all(axis=(1, 2))
    moved = grid != problem.origin
    stc, count = moved @ problem.costs, moved.sum(axis=1)
    candidates = np.flatnonzero(stable)
    if not len(candidates):
        return None
    best = candidates[np.lexsort((candidates, count[candidates], stc[candidates]))[0]]
    return CandidateSolution(problem, grid[best]).rank_key()


def pending_problem(rng: random.Random) -> PackedProblem:
    """At most 6 tasks on at most 4 nodes, each task pending (origin -1)
    with probability 0.4, integer costs."""
    n_nodes, n_tasks, dim = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 2)
    return PackedProblem(
        task_ids=tuple(f"t{i}" for i in range(n_tasks)),
        node_ids=tuple(f"n{i}" for i in range(n_nodes)),
        required=np.array([[rng.uniform(0.5, 6) for _ in range(dim)] for _ in range(n_tasks)]),
        capacity=np.array([[rng.uniform(3, 15) for _ in range(dim)] for _ in range(n_nodes)]),
        costs=np.array([float(rng.choice([0, 1, 2, 5, 7])) for _ in range(n_tasks)]),
        origin=np.array([-1 if rng.random() < 0.4 else rng.randrange(n_nodes)
                         for _ in range(n_tasks)], dtype=np.int64))


class TestPendingShortcut:
    """Every call first first-fits the pending tasks around the placed ones."""

    def test_answer_is_the_brute_force_minimum(self):
        """Whenever the shortcut answers, its key is the smallest over every
        stable assignment, and every registered strategy returns it,
        ``full_scan`` as proven optimal; when it does not answer, it
        charged, cached and drew nothing (unless nothing was pending: the
        origin is charged then)."""
        answered = 0
        for seed in range(300):
            problem = pending_problem(random.Random(seed))
            oracle = brute_force_best_key(problem)
            run = _Run(problem, StrategyConfig(seed=seed))
            if not _origin_shortcut(run):
                charged = int(problem.origin_in_cell())
                assert run.examined == len(run.cache) == charged, seed
                assert run.rng.getstate() == random.Random(seed).getstate(), seed
                continue
            answered += 1
            assert oracle is not None and run.best.rank_key() == oracle, seed
            assert run.examined == 1 and len(run.cache) == 1
            cfg = StrategyConfig(seed=seed, max_candidates=500)
            for name, strategy in STRATEGIES.items():
                result = strategy(problem, cfg)
                assert result.best.rank_key() == oracle, (seed, name)
                assert result.stats["candidates_examined"] == 1, (seed, name)
            assert full_scan(problem, cfg).stats.get("proven_optimal")
        assert answered >= 60

    def test_failed_completion_leaves_the_search_as_it_was(self, monkeypatch):
        """Where first-fit fails or its completion is unstable, each call's
        result, stats and cache contents equal those of a run whose
        shortcut answers only a stable in-cell origin."""
        def origin_only(run):
            problem = run.problem
            if not problem.origin_in_cell():
                return False
            origin = run.candidate(problem.origin.copy())
            run.offer(origin)
            return origin.stable

        runs = []

        class Recorded(_Run):
            def __init__(self, *args):
                super().__init__(*args)
                runs.append(self)

        def traced(instance, strategy, seed):
            runs.clear()
            result = strategy(instance, StrategyConfig(seed=seed, max_candidates=400))
            stats = {k: v for k, v in result.stats.items() if k != "elapsed_s"}
            return (result.best.rank_key() if result.best else None, stats,
                    [list(run.cache._entries) for run in runs])

        instances = [benchmark_state(name) for name in ("test1", "test2", "test3")]
        # feasible ones: on the others a random start repairs until its cap
        instances += [problem for problem in map(pending_problem, map(random.Random, range(300)))
                      if not problem.origin_in_cell() and brute_force_best_key(problem)
                      and not _origin_shortcut(_Run(problem, StrategyConfig(seed=0)))][:10]
        assert len(instances) == 13
        monkeypatch.setattr(strategies, "_Run", Recorded)
        for i, instance in enumerate(instances):
            for name, strategy in STRATEGY_CASES:
                with monkeypatch.context() as patched:
                    patched.setattr(strategies, "_origin_shortcut", origin_only)
                    expected = traced(instance, strategy, i)
                assert traced(instance, strategy, i) == expected, (i, name)

    def test_first_fit_scans_past_full_chunks(self):
        """A pick crosses whole chunks of nodes without room."""
        n_nodes = 5 * FIRST_FIT_CHUNK
        capacity = np.full((n_nodes, 1), 1.0)
        capacity[-3:] = 4.0
        problem = PackedProblem(
            task_ids=("a", "b", "c", "d"), node_ids=tuple(f"n{i:04d}" for i in range(n_nodes)),
            required=np.array([[3.0], [0.5], [3.5], [0.5]]), capacity=capacity,
            costs=np.ones(4), origin=np.full(4, -1, dtype=np.int64))
        assert _first_fit_pending(problem).tolist() == [n_nodes - 3, 0, n_nodes - 2, 0]
        result = tabu_search(problem, StrategyConfig(seed=0))
        assert result.best.assign.tolist() == [n_nodes - 3, 0, n_nodes - 2, 0]
        assert result.stats["candidates_examined"] == 1

    def test_close_calls_are_decided_in_task_order(self):
        """Tenths that add up to a capacity of 1.0 round differently in
        different orders: 0.2 + 0.1 + 0.4 + 0.3 fits, but the placed tasks'
        0.2 + 0.4 + 0.3, then the pending 0.1, does not.  First-fit decides
        such a test in ``PackedProblem.loads``'s task order, so its answer
        is the smallest key that ``is_stable`` admits, on every split of
        1.0 into three or four tenths with each task placed on node 0 or
        pending (one at least), and ``full_scan`` reports it as proven
        optimal."""
        close = PackedProblem(
            task_ids=("a", "b", "c", "d"), node_ids=("n0", "n1"),
            required=np.array([[0.2], [0.1], [0.4], [0.3]]), capacity=np.ones((2, 1)),
            costs=np.ones(4), origin=np.array([0, -1, 0, 0]))
        assert 0.2 + 0.4 + 0.3 + 0.1 > 1.0 >= 0.2 + 0.1 + 0.4 + 0.3
        result = full_scan(close, StrategyConfig(seed=0))
        assert result.best.assign.tolist() == [0, 0, 0, 0]
        assert result.stats["candidates_examined"] == 1 and result.stats.get("proven_optimal")
        checked = 0
        for k in (3, 4):
            for cuts in itertools.combinations(range(1, 10), k - 1):
                tenths = np.diff((0,) + cuts + (10,)) / 10
                for origin in list(itertools.product((-1, 0), repeat=k))[:-1]:
                    problem = PackedProblem(
                        task_ids=tuple(f"t{i}" for i in range(k)), node_ids=("n0", "n1"),
                        required=tenths.reshape(k, 1), capacity=np.ones((2, 1)),
                        costs=np.ones(k), origin=np.array(origin))
                    run = _Run(problem, StrategyConfig(seed=0))
                    best = min(CandidateSolution(problem, np.array(assign)).rank_key()
                               for assign in itertools.product((0, 1), repeat=k)
                               if problem.is_stable(np.array(assign)))
                    assert _origin_shortcut(run) and run.best.rank_key() == best, (tenths, origin)
                    checked += 1
        assert checked == 36 * 7 + 84 * 15
