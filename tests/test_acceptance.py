"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (pytest -s shows them), and
every tolerance is pinned here, not deferred to later calibration.  The
suite intentionally re-derives expectations through independent oracles
(literal enumeration, scalar math, from-scratch model recomputation) rather
than through the code paths it checks.
"""

import random
import time
from pathlib import Path

import numpy as np
import pytest

from cellsim.agents import (
    AgentConfig,
    AgentEngine,
    allocation_score_vec,
    INITIAL_PARAMS,
    REALLOC_PARAMS,
)
from cellsim.harness import RunConfig, SimulationRunner
from cellsim.livemigration import DEFAULT_MF_MB, ProfileCatalog, lmdt_estimate
from cellsim.metaheuristics import (
    PackedProblem,
    StrategyConfig,
    benchmark_state,
    full_scan,
    genetic,
    greedy,
    seeded_genetic,
    simulated_annealing,
    tabu_search,
)
from cellsim.model import (
    NodeSpec,
    ResourceTypeCatalog,
    SystemState,
    TaskSpec,
    available_resources,
    is_system_stable,
    migration_cost,
    transformation_cost,
)
from cellsim.workload import CellState, SynthConfig
from cellsim.workload import events as ev

from support import overloaded_count, place_directly, reservation_invariant_holds
from test_constraints import GOLDEN_ROWS
from cellsim.workload.constraints import check_constraint

CAT2 = ResourceTypeCatalog(("cpu", "memory"))
profile_for = ProfileCatalog().get


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# -- 1. worked-example exactness ---------------------------------------------------

class TestCriterion1WorkedExamples:
    def test_worked_examples_exact(self):
        # availability: 2 CPU minus (0.5 + 0.2) leaves exactly 1.3
        cat1 = ResourceTypeCatalog(("cpu",))
        state = SystemState(
            catalog=cat1,
            nodes=(NodeSpec("n1", (2.0,)),),
            tasks=(TaskSpec(id="t1", required=(0.5,), migration_cost_mb=1.0),
                   TaskSpec(id="t2", required=(0.2,), migration_cost_mb=1.0)),
            assignment={"t1": "n1", "t2": "n1"},
        )
        assert available_resources(state, "n1") == (1.3,)

        # the two-task swap costs exactly 105 + 240 = 345 MB
        tasks = (
            TaskSpec(id="t1", required=(5.0, 3.0), migration_cost_mb=50.0),
            TaskSpec(id="t2", required=(2.0, 6.0), migration_cost_mb=105.0),
            TaskSpec(id="t3", required=(4.0, 1.0), migration_cost_mb=70.0),
            TaskSpec(id="t4", required=(3.0, 2.0), migration_cost_mb=80.0),
            TaskSpec(id="t5", required=(6.0, 3.0), migration_cost_mb=240.0),
        )
        before = {"t1": "A", "t2": "A", "t3": "A", "t4": "B", "t5": "B"}
        after = {**before, "t2": "B", "t5": "A"}
        assert transformation_cost(before, after, tasks) == 345.0

        # unmoved tasks incur exactly zero
        assert migration_cost(tasks[0], before, after) == 0.0
        _report("1 worked-example exactness", "f_cpu=1.3, swap=345MB, unmoved=0")


# -- 2. constraint golden suite ------------------------------------------------------

class TestCriterion2ConstraintGoldenSuite:
    def test_all_golden_rows(self):
        assert len(GOLDEN_ROWS) >= 24
        for constraint, attributes, expected in GOLDEN_ROWS:
            assert check_constraint(constraint, attributes) is expected
        _report("2 constraint golden suite", f"{len(GOLDEN_ROWS)} rows verbatim")


# -- 3. full-scan oracle ----------------------------------------------------------------

def _random_instance(seed: int):
    rng = random.Random(seed)
    while True:
        dim = rng.choice((2, 3, 4))
        n_nodes = rng.randint(2, 4)
        n_tasks = rng.randint(2, 10)
        if n_nodes ** n_tasks > 300_000:
            continue
        catalog = ResourceTypeCatalog(tuple(f"r{i}" for i in range(dim)))
        nodes = [NodeSpec(f"n{i}", tuple(rng.uniform(5, 15) for _ in range(dim)))
                 for i in range(n_nodes)]
        tasks = [TaskSpec(id=f"t{i:02d}",
                          required=tuple(rng.uniform(0.5, 6) for _ in range(dim)),
                          migration_cost_mb=rng.choice([1, 2, 5, 7, 11, 20]))
                 for i in range(n_tasks)]
        assignment = {t.id: rng.choice(nodes).id for t in tasks}
        return SystemState(catalog=catalog, nodes=tuple(nodes), tasks=tuple(tasks),
                           assignment=assignment)


def _enumerate_optimum(problem: PackedProblem):
    """Unpruned literal enumeration of all |nodes|^|tasks| assignments."""
    n, t = problem.node_count, problem.task_count
    grids = np.meshgrid(*[np.arange(n)] * t, indexing="ij")
    assignments = np.stack([g.ravel() for g in grids], axis=1)  # (n^t, t)
    stable = np.ones(len(assignments), dtype=bool)
    for node in range(n):
        mask = assignments == node
        loads = mask.astype(np.float64) @ problem.required
        stable &= np.all(loads <= problem.capacity[node], axis=1)
    if not stable.any():
        return None
    costs = (assignments != problem.origin) @ problem.costs
    costs[~stable] = np.inf
    return float(costs.min())


class TestCriterion3FullScanOracle:
    def test_twenty_instances(self):
        start = time.monotonic()
        checked = 0
        for seed in range(20):
            state = _random_instance(seed)
            problem = PackedProblem.from_state(state)
            oracle = _enumerate_optimum(problem)
            result = full_scan(state, StrategyConfig(seed=seed, max_candidates=10**9))
            if oracle is None:
                assert result.best is None
                assert result.stats.get("proven_infeasible")
            else:
                assert result.stc_mb == pytest.approx(oracle)
            checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        _report("3 full-scan oracle", f"{checked} instances equal enumeration in {elapsed:.1f}s")


# -- 4. strategy soundness -----------------------------------------------------------------

FULL_SCAN_TEST1_OPTIMUM = 27.0  # proven by branch-and-bound + compulsory-cost lower bound

STRATEGIES_UNDER_TEST = [
    ("greedy", lambda s, c: greedy(s, c)),
    ("tabu", lambda s, c: tabu_search(s, c)),
    ("sa", lambda s, c: simulated_annealing(s, c)),
    ("ga", lambda s, c: genetic(s, c)),
    ("sga-ts", lambda s, c: seeded_genetic(s, c)),
]


class TestCriterion4StrategySoundness:
    def test_all_strategies_ten_seeds(self):
        start = time.monotonic()
        state = benchmark_state("test1")
        optimum = full_scan(state, StrategyConfig(
            seed=0, max_candidates=10**9, full_scan_leaf_cap=2e12))
        assert optimum.stats.get("proven_optimal")
        assert optimum.stc_mb == FULL_SCAN_TEST1_OPTIMUM
        for name, strategy in STRATEGIES_UNDER_TEST:
            for seed in range(10):
                result = strategy(state, StrategyConfig(seed=seed, max_candidates=3000))
                assert result.stable, f"{name} seed {seed} found no stable solution"
                rebuilt = SystemState(catalog=state.catalog, nodes=state.nodes,
                                      tasks=state.tasks,
                                      assignment=result.best.to_assignment())
                assert is_system_stable(rebuilt)
                recomputed = transformation_cost(state.assignment,
                                                 result.best.to_assignment(), state.tasks)
                assert result.best.stc_from_origin == pytest.approx(recomputed)
                assert result.stc_mb >= FULL_SCAN_TEST1_OPTIMUM
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        _report("4 strategy soundness",
                f"5 strategies x 10 seeds stable, stc >= {FULL_SCAN_TEST1_OPTIMUM} in {elapsed:.0f}s")


# -- 5. seeding benefit -------------------------------------------------------------------

SEEDING_BUDGETS = {"test1": 12_000, "test2": 30_000, "test3": 24_000}


class TestCriterion5SeedingBenefit:
    def test_seeded_beats_plain_on_paired_seeds(self):
        start = time.monotonic()
        ga_costs, sga_costs = [], []
        per_fixture = {}
        for scenario, budget in SEEDING_BUDGETS.items():
            state = benchmark_state(scenario)
            fixture_ga, fixture_sga = [], []
            for seed in range(20):
                ga = genetic(state, StrategyConfig(seed=seed, max_candidates=budget))
                sga = seeded_genetic(state, StrategyConfig(seed=seed, max_candidates=budget))
                assert ga.stable and sga.stable
                fixture_ga.append(ga.stc_mb)
                fixture_sga.append(sga.stc_mb)
            per_fixture[scenario] = (np.mean(fixture_ga), np.mean(fixture_sga))
            ga_costs.extend(fixture_ga)
            sga_costs.extend(fixture_sga)
        mean_ga, mean_sga = float(np.mean(ga_costs)), float(np.mean(sga_costs))
        # one-sided paired comparison at the sample means over Tests I-III
        assert mean_sga <= mean_ga, f"SGA-TS mean {mean_sga} > GA mean {mean_ga}"
        elapsed = time.monotonic() - start
        assert elapsed < 900.0
        detail = ", ".join(f"{s}: GA {g:.1f} vs SGA-TS {v:.1f}"
                           for s, (g, v) in per_fixture.items())
        _report("5 seeding benefit", f"pooled {mean_sga:.1f} <= {mean_ga:.1f} ({detail})")


# -- 6. transfer-estimate properties --------------------------------------------------------

TABLE_PROFILES = {
    "idle": (90.0, 0.0),
    "apache": (175.0, 0.00682),
    "specjvm2008": (115.0, 0.03305),
    "postgresql": (145.0, 0.01072),
    "vm-allocator-i": (213.0, 0.00620),
    "vm-allocator-ii": (213.0, 0.00676),
    "vm-allocator-iii": (213.0, 0.00714),
}


class TestCriterion6TransferEstimate:
    def test_constants_identity_monotonicity(self):
        for kind, (cmdt, af) in TABLE_PROFILES.items():
            profile = profile_for(kind)
            assert (profile.cmdt_mb, profile.af) == (cmdt, af)
            assert profile.mf_mb == DEFAULT_MF_MB
            assert lmdt_estimate(profile, 0.0) == profile.cmdt_mb + profile.mf_mb
            samples = [lmdt_estimate(profile, am) for am in np.linspace(0.0, 1000.0, 201)]
            for lo, hi in zip(samples, samples[1:]):
                if profile.af > 0:
                    assert lo < hi
                else:
                    assert lo == hi
        _report("6 transfer-estimate properties",
                f"{len(TABLE_PROFILES)} profiles exact, monotone over [0,1000] MB")


# -- 7. scoring-surface shape ---------------------------------------------------------------

class TestCriterion7ScoringSurface:
    def test_grid_shape(self):
        start = time.monotonic()
        points = np.linspace(0.0, 1.0, 101)
        xs, ys = np.meshgrid(points, points, indexing="ij")
        used = np.stack([xs.ravel(), ys.ravel()], axis=1)
        totals = np.ones_like(used)
        initial = allocation_score_vec(INITIAL_PARAMS, totals, used)
        realloc = allocation_score_vec(REALLOC_PARAMS, totals, used)

        ix, iy = used[int(np.argmax(initial))]
        assert ix < 0.7 and iy < 0.7  # proportional region
        rx, ry = used[int(np.argmax(realloc))]
        assert 0.7 <= rx < 0.9 and 0.7 <= ry < 0.9  # tight region

        cutoff = (used >= 0.9).any(axis=1)
        assert np.all(initial[cutoff] == 0.0)
        assert np.all(realloc[cutoff] == 0.0)

        # symmetry under resource swap
        swapped = used[:, ::-1].copy()
        assert np.allclose(initial, allocation_score_vec(INITIAL_PARAMS, totals, swapped),
                           atol=1e-12)
        assert np.allclose(realloc, allocation_score_vec(REALLOC_PARAMS, totals, swapped),
                           atol=1e-12)

        # both families score exactly 0.2 at their bias point
        sias_bias = allocation_score_vec(INITIAL_PARAMS, np.ones((1, 2)),
                                         np.array([[0.3, 0.3]]))[0]
        sras_bias = allocation_score_vec(REALLOC_PARAMS, np.ones((1, 2)),
                                         np.array([[0.6, 0.6]]))[0]
        assert abs(sias_bias - 0.2) <= 1e-12
        assert abs(sras_bias - 0.2) <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        _report("7 scoring-surface shape",
                f"argmax initial=({ix:.2f},{iy:.2f}) realloc=({rx:.2f},{ry:.2f}), "
                f"bias points exact in {elapsed:.2f}s")


# -- 8. protocol safety -------------------------------------------------------------------

def _random_protocol_scenario(seed: int, records: list) -> AgentEngine:
    rng = random.Random(seed)
    n_nodes = rng.randint(20, 100)
    cell = CellState(CAT2)
    engine = AgentEngine(cell, AgentConfig(), seed=seed)
    engine.audit = records.append
    groups = rng.randint(2, 4)
    engine.apply_events([
        ev.AddNodeEvent(0, f"n{i:04d}", (1.0, 1.0),
                        attributes=(("group", str(i % groups)),))
        for i in range(n_nodes)
    ])
    n_tasks = rng.randint(n_nodes, 3 * n_nodes)
    events = []
    costs = {}
    for t in range(n_tasks):
        constraints = ()
        if rng.random() < 0.15:
            from cellsim.workload import ConstraintOperator, TaskConstraint
            constraints = (TaskConstraint(ConstraintOperator.EQUAL, "group",
                                          str(rng.randrange(groups))),)
        required = (rng.uniform(0.02, 0.2), rng.uniform(0.02, 0.2))
        events.append(ev.AddTaskEvent(0, f"t{t:05d}", required,
                                      production=rng.random() < 0.3,
                                      constraints=constraints))
        events.append(ev.UpdateTaskUsedEvent(
            0, f"t{t:05d}",
            (required[0] * rng.uniform(0.5, 1.2), required[1] * rng.uniform(0.5, 1.2))))
        costs[f"t{t:05d}"] = rng.uniform(50, 500)
    engine.apply_events(events)
    for task_id, cost in costs.items():
        cell.tasks[task_id].migration_cost_mb = cost
    # place most tasks directly, some onto deliberately overloaded nodes
    hot = [f"n{i:04d}" for i in rng.sample(range(n_nodes), max(1, n_nodes // 10))]
    for t in range(n_tasks):
        task_id = f"t{t:05d}"
        for broker in engine.brokers.values():
            try:
                broker.pending.remove(task_id)
            except ValueError:
                pass
        task = cell.tasks[task_id]
        if rng.random() < 0.3:
            node = rng.choice(hot)
        else:
            node = f"n{rng.randrange(n_nodes):04d}"
        from cellsim.workload.constraints import matches_attributes
        if matches_attributes(task.constraints, cell.nodes[node].attributes):
            place_directly(engine, task_id, node)
        else:
            engine.retry_placement(task_id, rng)
    return engine


class TestCriterion8ProtocolSafety:
    def test_thousand_randomized_scenarios(self):
        start = time.monotonic()
        completed = 0
        conservation_failures = 0
        for seed in range(1000):
            records = []
            engine = _random_protocol_scenario(seed, records)
            ticks = 2 if seed % 4 else 3
            for _ in range(ticks):
                engine.run_tick()
            for record in records:
                if not record.forced:
                    assert record.stable_after, f"seed {seed}: unstable target after non-forced"
                    assert record.rus_after, f"seed {seed}: production overcommit after non-forced"
                assert record.constraints_ok, f"seed {seed}: constraint violation"
                assert record.capacity_ok, f"seed {seed}: total-capacity violation"
                assert record.rec_age_us <= record.ttl_us, f"seed {seed}: expired recommendation used"
            if not engine.cell.conservation_holds():
                conservation_failures += 1
            assert reservation_invariant_holds(engine), f"seed {seed}: reservation imbalance"
            completed += len(records)
        assert conservation_failures == 0
        elapsed = time.monotonic() - start
        assert elapsed < 600.0
        _report("8 protocol safety",
                f"1000 scenarios, {completed} audited migrations clean in {elapsed:.0f}s")


# -- 9. protocol liveness --------------------------------------------------------------------

def _liveness_scenario(seed: int, nodes: int = 200, burst: int = 10) -> AgentEngine:
    rng = random.Random(seed)
    cell = CellState(CAT2)
    engine = AgentEngine(cell, AgentConfig(), seed=seed)
    engine.apply_events([ev.AddNodeEvent(0, f"n{i:04d}", (1.0, 1.0))
                         for i in range(nodes)])
    tid = 0

    def inject(node: str, size: float) -> None:
        nonlocal tid
        task_id = f"t{tid:05d}"
        tid += 1
        required = (size * 1.05, size * 1.05)
        used = (size, size * rng.uniform(0.85, 1.1))
        engine.apply_events([ev.AddTaskEvent(0, task_id, required)])
        engine.apply_events([ev.UpdateTaskUsedEvent(0, task_id, used)])
        cell.tasks[task_id].migration_cost_mb = rng.uniform(50, 300)
        for broker in engine.brokers.values():
            try:
                broker.pending.remove(task_id)
            except ValueError:
                pass
        place_directly(engine, task_id, node)

    # background load ~85% of aggregate capacity
    for i in range(nodes):
        load, limit = 0.0, 0.85 + rng.uniform(-0.05, 0.03)
        while load < limit - 0.08:
            size = rng.uniform(0.05, 0.12)
            inject(f"n{i:04d}", size)
            load += size
    # overload burst: ten nodes pushed well past capacity
    for i in range(burst):
        for _ in range(3):
            inject(f"n{i:04d}", 0.12)
    return engine


class TestCriterion9ProtocolLiveness:
    def test_burst_converges_under_half_percent(self):
        start = time.monotonic()
        for seed in range(10):
            engine = _liveness_scenario(seed)
            assert overloaded_count(engine) >= 10
            final = None
            for tick in range(30):
                engine.run_tick()
                final = overloaded_count(engine)
                if final == 0:
                    break
            limit = max(1, int(0.005 * len(engine.agents)))
            assert final <= limit, f"seed {seed}: {final} overloaded after 30 minutes"
        elapsed = time.monotonic() - start
        assert elapsed < 600.0
        _report("9 protocol liveness",
                f"10 seeds converge to <=0.5% overloaded in {elapsed:.0f}s")


# -- 10. scoring-pairing experiment ------------------------------------------------------------

PAIRING_SYNTH = dict(seed=1234, node_count=60, task_arrival_rate=50.0,
                     duration_minutes=35.0, batch_fraction=0.75,
                     usage_ratio=(0.6, 1.05), usage_interval_minutes=2.0,
                     usage_ramp_updates=4,
                     service_required=(0.06, 0.18), batch_required=(0.005, 0.03),
                     record_placements=False)


class TestCriterion10ScoringPairings:
    def test_gain_on_reallocation_inflates_cost(self, tmp_path):
        start = time.monotonic()
        totals = {}
        for initial, realloc in (("sias", "sras"), ("sias", "sras_gain"),
                                 ("sias_gain", "sras"), ("sias_gain", "sras_gain")):
            config = RunConfig(
                mode="masb", seed=42,
                output_dir=tmp_path / f"{initial}-{realloc}",
                synth=SynthConfig(**PAIRING_SYNTH), ticks=35,
                initial_scorer=initial, realloc_scorer=realloc,
                usage_dump_every=0,
            )
            runner = SimulationRunner(config)
            assert runner.run() == 0
            totals[(initial, realloc)] = runner.accumulated_stc
        assert totals[("sias_gain", "sras")] <= totals[("sias_gain", "sras_gain")]
        elapsed = time.monotonic() - start
        assert elapsed < 1200.0
        _report("10 scoring pairings",
                f"(sias_gain,sras) {totals[('sias_gain','sras')]:.0f} MB <= "
                f"(sias_gain,sras_gain) {totals[('sias_gain','sras_gain')]:.0f} MB "
                f"in {elapsed:.0f}s")


# -- 11. determinism & snapshot ------------------------------------------------------------------

class TestCriterion11DeterminismSnapshot:
    def _config(self, out, **kw):
        defaults = dict(
            mode="masb", seed=77, output_dir=out,
            synth=SynthConfig(seed=3, node_count=15, task_arrival_rate=25.0,
                              duration_minutes=12.0, usage_interval_minutes=2.0),
            ticks=12, usage_dump_every=0,
        )
        defaults.update(kw)
        return RunConfig(**defaults)

    def test_identical_seeds_identical_bytes(self, tmp_path):
        start = time.monotonic()
        a = self._config(tmp_path / "a")
        b = self._config(tmp_path / "b")
        SimulationRunner(a).run()
        SimulationRunner(b).run()
        bytes_a = (Path(a.output_dir) / "logs" / "run-ticks.csv").read_bytes()
        bytes_b = (Path(b.output_dir) / "logs" / "run-ticks.csv").read_bytes()
        assert bytes_a == bytes_b

        # snapshot round-trip mid-run yields identical subsequent rows
        half = self._config(tmp_path / "half", ticks=6, snapshot_every=6)
        SimulationRunner(half).run()
        resumed = self._config(
            tmp_path / "half", ticks=12, run_name="resumed",
            resume_from=Path(half.output_dir) / "run-6.snapshot")
        SimulationRunner(resumed).run()
        full_lines = bytes_a.decode().splitlines()
        resumed_lines = (Path(resumed.output_dir) / "logs"
                         / "resumed-ticks.csv").read_text().splitlines()
        assert resumed_lines[1:] == full_lines[7:]  # after shared header
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        _report("11 determinism & snapshot",
                f"byte-identical CSV; resume matches rows 7.. in {elapsed:.0f}s")


# -- 12. performance smoke ------------------------------------------------------------------------

PERF_SYNTH = dict(seed=5, node_count=10_000, task_arrival_rate=10_000.0,
                  arrival_window_minutes=10.0, duration_minutes=60.0,
                  batch_fraction=0.8, usage_ratio=(0.6, 1.0),
                  usage_interval_minutes=5.0,
                  service_required=(0.1, 0.3), batch_required=(0.005, 0.04),
                  record_placements=False)


class TestCriterion12PerformanceSmoke:
    def test_large_cell_advances_an_hour(self, tmp_path):
        config = RunConfig(
            mode="masb", seed=9, output_dir=tmp_path / "perf",
            synth=SynthConfig(**PERF_SYNTH), ticks=60,
            initial_scorer="sias", usage_dump_every=0,
        )
        start = time.monotonic()
        runner = SimulationRunner(config)
        assert runner.run() == 0
        elapsed = time.monotonic() - start
        assert elapsed <= 600.0, f"60 simulated minutes took {elapsed:.0f}s wall"
        engine = runner.engine
        assert runner.cell.counters.tasks_added >= 100_000 * 0.97  # Poisson draw
        assert len(engine.agents) == 10_000
        ratio = overloaded_count(engine) / len(engine.agents)
        assert ratio <= 0.005, f"overloaded ratio {ratio:.4f} at steady state"
        _report("12 performance smoke",
                f"{runner.cell.counters.tasks_added} tasks / 10k nodes, 60 sim-min in "
                f"{elapsed:.0f}s wall, overloaded {ratio:.4%}")
