"""The four benchmark workloads and the measurement of one run.

Every workload is closed-loop batch work: the simulator consumes its input as
fast as it can.  A run builds the workload's inputs from the seed, times the
set-up several times, then repeats a fixed unit of work (one simulation of a
fixed tick count, or one sweep of strategy calls) while the time budget
lasts.  Times are medians over the repeats; the deterministic figures must
read the same on every repeat.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import resource
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep
from typing import Callable, Optional

from cellsim import model
from cellsim.harness.config import RunConfig
from cellsim.harness.runner import SimulationRunner
from cellsim.harness.tracewriter import write_synthetic_trace
from cellsim.metaheuristics import STRATEGIES, StrategyConfig, benchmark_state
from cellsim.workload.anomalies import AnomalyKind
from cellsim.workload.synth import SynthConfig

from tracing import Tracer, installed, layer_metrics

#: Set-ups timed per run before the first unit of work; setup_s is the median.
SETUP_REPEATS = 40
#: Pause before each timed set-up.  It lets caches go cold, as they are for
#: the one set-up a process makes, and spreads the samples over a second so
#: that their median does not depend on the machine's speed at one instant.
SETUP_GAP_S = 0.025
CLASS_COLUMNS = ("idle", "sta", "ta", "pa", "da", "overloaded")


# -- workload definitions ---------------------------------------------------------

@dataclass(frozen=True)
class Simulation:
    """A `SimulationRunner` scenario: run config factory and tick count."""
    make_config: Callable[[Path], RunConfig]
    ticks: int


def masb_trace_1k(seed: int, workdir: Path, quick: bool) -> Simulation:
    ticks = 6 if quick else 8
    synth = SynthConfig(
        seed=seed, node_count=60 if quick else 1000,
        task_arrival_rate=90.0 if quick else 1500.0, duration_minutes=float(ticks),
        batch_fraction=0.8, batch_duration_min=(4.0, 8.0), service_duration_min=(8.0, 16.0),
        batch_required=(0.005, 0.04), service_required=(0.1, 0.3), usage_ratio=(0.6, 1.0),
        usage_interval_minutes=2.0, usage_ramp_updates=2,
        constraint_rate=0.1, attribute_groups=8, record_placements=False)
    trace_dir = workdir / "trace"
    write_synthetic_trace(synth, trace_dir)
    return Simulation(lambda out: RunConfig(
        mode="masb", seed=seed, output_dir=out, trace_dir=trace_dir, ticks=ticks,
        usage_dump_every=0), ticks)


def masb_burst_10k(seed: int, workdir: Path, quick: bool) -> Simulation:
    # The acceptance suite's Criterion-12 cell with the workload seed as the
    # generator seed; its run seed (9) and scorer stay as the suite has them.
    synth = SynthConfig(
        seed=seed, node_count=200 if quick else 10_000,
        task_arrival_rate=200.0 if quick else 10_000.0,
        arrival_window_minutes=10.0, duration_minutes=60.0,
        batch_fraction=0.8, usage_ratio=(0.6, 1.0), usage_interval_minutes=5.0,
        service_required=(0.1, 0.3), batch_required=(0.005, 0.04),
        record_placements=False)
    ticks = 2
    return Simulation(lambda out: RunConfig(
        mode="masb", seed=9, output_dir=out, synth=synth, ticks=ticks,
        initial_scorer="sias", usage_dump_every=0), ticks)


def metaheuristic_cell_200(seed: int, workdir: Path, quick: bool) -> Simulation:
    ticks = 4 if quick else 30
    synth = SynthConfig(
        seed=seed, node_count=20 if quick else 200,
        task_arrival_rate=16.0 if quick else 160.0, duration_minutes=float(ticks),
        batch_fraction=0.9, service_duration_min=(20.0, 40.0),
        constraint_rate=0.1, attribute_groups=4)
    return Simulation(lambda out: RunConfig(
        mode="metaheuristic", seed=seed, output_dir=out, synth=synth, ticks=ticks,
        strategy="tabu", strategy_budget=30_000, usage_dump_every=0), ticks)


SIMULATIONS = {
    "masb-trace-1k": masb_trace_1k,
    "masb-burst-10k": masb_burst_10k,
    "metaheuristic-cell-200": metaheuristic_cell_200,
}

#: The acceptance suite's Criterion-5 budgets per fixture scenario.
FIXTURE_BUDGETS = {"test1": 12_000, "test2": 30_000, "test3": 24_000}
QUICK_FIXTURE_BUDGETS = {"test1": 1_000}
FIXTURE_STRATEGIES = ("greedy", "tabu", "sa", "ga", "sga")
WORKLOADS = (*SIMULATIONS, "strategies-fixtures")


# -- one unit of work ---------------------------------------------------------------

@dataclass
class Unit:
    """Outcome of one simulation or one fixture sweep."""
    wall_s: float
    sim_hours: float
    digest: str
    figures: dict          # deterministic quality figures
    problems: list[str]    # failed correctness checks


def _simulate(sim: Simulation, out_dir: Path) -> Unit:
    runner = SimulationRunner(sim.make_config(out_dir))
    start = perf_counter()
    code = runner.run()
    wall_s = perf_counter() - start

    ticks_csv = out_dir / "logs" / f"{runner.config.run_name}-ticks.csv"
    raw = ticks_csv.read_bytes()
    rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
    shutil.rmtree(out_dir)
    problems = []
    if code != 0:
        problems.append(f"run() returned {code}")
    if len(rows) != sim.ticks:
        problems.append(f"ticks.csv has {len(rows)} rows for {sim.ticks} ticks")
    if not runner.cell.conservation_holds():
        problems.append("task conservation does not hold at the end of the run")

    overloaded = [int(r["overloaded"]) / nodes for r in rows
                  if (nodes := sum(int(r[c]) for c in CLASS_COLUMNS))]
    dropped = runner.sink.count(AnomalyKind.UNMATCHABLE_CONSTRAINTS)
    submitted = runner.cell.counters.tasks_added + dropped
    migrations = sum(int(r["migrations_attempted"]) for r in rows)
    completed = sum(int(r["migrations_completed"]) for r in rows)
    failed = dropped + len(runner.cell.pending) + max(0, migrations - completed)
    overloaded_pct = 100.0 * statistics.fmean(overloaded) if overloaded else 0.0
    failed_pct = 100.0 * failed / (submitted + migrations) if submitted + migrations else 0.0
    figures = {
        "stc_gb": runner.accumulated_stc / 1024.0,
        "overloaded_node_pct": overloaded_pct,
        "failed_pct": failed_pct,
        "migrations": migrations,
        "tasks_submitted": submitted,
    }
    sim_hours = sim.ticks * runner.config.tick_length_us / 3.6e9
    return Unit(wall_s, sim_hours, hashlib.sha256(raw).hexdigest(), figures, problems)


def _fixture_states(budgets: dict) -> dict:
    return {scenario: benchmark_state(scenario) for scenario in budgets}


def _sweep(seed: int, budgets: dict) -> Unit:
    states = _fixture_states(budgets)
    problems: list[str] = []
    outcomes = []
    node_pcts = []
    stcs = []
    wall_s = 0.0
    for scenario, budget in budgets.items():
        state = states[scenario]
        for name in FIXTURE_STRATEGIES:
            cfg = StrategyConfig(seed=seed, max_candidates=budget)
            start = perf_counter()
            result = STRATEGIES[name](state, cfg)
            wall_s += perf_counter() - start
            outcomes.append((scenario, name, result.stable, result.stc_mb,
                             result.stats["candidates_examined"], result.stats["runs"]))
            if not result.stable:
                node_pcts.append(0.0)
                continue
            best = result.best.to_assignment()
            placed = dataclasses.replace(state, assignment=best)
            within = sum(model.is_node_stable(placed, node.id) for node in state.nodes)
            node_pcts.append(100.0 * within / len(state.nodes))
            if not model.is_system_stable(placed):
                problems.append(f"{name} on {scenario}: 'stable' result overloads a node")
            stc = model.transformation_cost(state.assignment, best, state.tasks)
            if not math.isclose(stc, result.stc_mb, rel_tol=1e-9, abs_tol=1e-6):
                problems.append(f"{name} on {scenario}: reported STC {result.stc_mb} "
                                f"!= recomputed {stc}")
            stcs.append(stc)
    calls = len(outcomes)
    stable_calls = sum(1 for o in outcomes if o[2])
    figures = {
        "best_stc_mb": statistics.fmean(stcs) if stcs else 0.0,
        "overloaded_node_pct": 100.0 - statistics.fmean(node_pcts),
        "failed_pct": 100.0 * (calls - stable_calls) / calls,
        "candidates": sum(o[4] for o in outcomes),
        "calls": calls,
    }
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    # metaheuristic mode makes at most one strategy call per one-minute tick,
    # so each call stands for one simulated minute of centralized balancing
    return Unit(wall_s, calls / 60.0, digest, figures, problems)


# -- one run --------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        quick: bool = False, spans_path: Optional[Path] = None) -> dict:
    """Measure one workload; returns the result object the command prints."""
    if workload == "strategies-fixtures":
        budgets = QUICK_FIXTURE_BUDGETS if quick else FIXTURE_BUDGETS
        setup = lambda: _fixture_states(budgets)  # noqa: E731
        unit = lambda: _sweep(seed, budgets)  # noqa: E731
    else:
        sim = SIMULATIONS[workload](seed, workdir, quick)
        setup = lambda: SimulationRunner(sim.make_config(workdir / "setup"))  # noqa: E731
        counter = itertools.count()
        unit = lambda: _simulate(sim, workdir / f"run-{next(counter)}")  # noqa: E731
    setups = []
    for _ in range(SETUP_REPEATS):
        sleep(SETUP_GAP_S)
        start = perf_counter()
        setup()
        setups.append(perf_counter() - start)

    units: list[Unit] = []
    tracer: Optional[Tracer] = None
    started = perf_counter()
    if trace:
        # untraced repeats on both sides of the traced one, so warm-up and
        # drift in machine speed do not land on one side of the difference
        units.append(unit())
        tracer = Tracer()
        with installed(tracer):
            units.append(unit())
        units.append(unit())
        if spans_path is not None:
            tracer.write(spans_path)
    else:
        while True:
            units.append(unit())
            elapsed = perf_counter() - started
            if elapsed + statistics.median(u.wall_s for u in units) > seconds:
                break

    problems = [p for u in units for p in u.problems]
    if len({u.digest for u in units}) != 1:
        problems.append("output digest differs between repeats of the same input")
    if any(u.figures != units[0].figures for u in units):
        problems.append("quality figures differ between repeats of the same input")
    first = units[0]
    info = {"workload": workload, "seed": seed, "repeats": len(units),
            "digest": first.digest, "wall_s": [u.wall_s for u in units],
            **first.figures, "problems": problems}

    if trace:
        untraced = (units[0].wall_s + units[2].wall_s) / 2.0
        traced = units[1].wall_s
        metrics = layer_metrics(tracer)
        metrics["bench.tracing_overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
        metrics["stc_gb"] = (first.figures.get("stc_gb", 0.0), "GB")
        metrics["overloaded_node_pct"] = (first.figures["overloaded_node_pct"], "%")
        metrics["failed_pct"] = (first.figures["failed_pct"], "%")
    else:
        host_s = statistics.median(u.wall_s / u.sim_hours for u in units)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "host_s_per_sim_hour": (host_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "stable_node_pct": (100.0 - first.figures["overloaded_node_pct"], "%"),
            "succeeded_pct": (100.0 - first.figures["failed_pct"], "%"),
        }
    return {
        "info": info,
        "result": {
            "correct": not problems,
            "attempted": len(units),
            "failed": sum(1 for u in units if u.problems),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }
