"""In-memory tracing of cellsim's layers, installed from outside the package.

The traced run wraps the public entry points of each layer (by patching the
class or module attribute the caller looks up) and records one span per call:
name, start, end, parent span and tick id.  Calls made once per event
(``CellState.apply``) are aggregated into a call counter and a time total
instead of spans.  A span's self time is its duration minus the time its
child spans and aggregated calls cover.  Nothing is written until
``Tracer.write`` is called at the end of the run.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from time import perf_counter

from cellsim.agents import engine as agent_engine
from cellsim.agents.engine import AgentEngine, BrokerAgent, TickMetrics
from cellsim.harness import runner as harness_runner
from cellsim.harness.outputs import RunOutputs
from cellsim.harness.runner import MetaheuristicEngine, SimulationRunner
from cellsim.metaheuristics.strategies import STRATEGIES
from cellsim.workload.anomalies import AnomalyKind
from cellsim.workload.state import CellState
from cellsim.workload.window import WindowCollector


class Tracer:
    """Spans, aggregated calls and counts of one traced pass."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id or -1, tick id)
        self.spans: list[tuple] = []
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.tick = -1
        self._next_id = 0
        # open spans: [span id, time covered by children]
        self._open: list[list] = []

    def span(self, name: str, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else -1
        frame = [span_id, 0.0]
        self._open.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            duration = end - start
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if self._open:
                self._open[-1][1] += duration
            self.spans.append((span_id, name, start, end, parent, self.tick))

    def aggregate(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self.total_s[name] += duration
            self.self_s[name] += duration
            self.calls[name] += 1
            if self._open:
                self._open[-1][1] += duration

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order, then the aggregates."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, tick in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "tick": tick}) + "\n")
            fh.write(json.dumps({"aggregates": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]} for name in sorted(self.calls)},
                "counts": dict(sorted(self.counts.items()))}) + "\n")


def _patch(owner, attribute: str, make_wrapper, undo: list) -> None:
    """Replace a class or module attribute (a module by its ``__dict__``)."""
    if isinstance(owner, dict):
        original = owner[attribute]
        owner[attribute] = make_wrapper(original)
        undo.append(lambda: owner.__setitem__(attribute, original))
    else:
        original = getattr(owner, attribute)
        setattr(owner, attribute, make_wrapper(original))
        undo.append(lambda: setattr(owner, attribute, original))


def _strategy_counts(result) -> dict:
    stats = result.stats
    return {"candidates_examined": stats["candidates_examined"],
            "cache_hits": stats["cache_hits"], "runs": stats["runs"],
            "stable": int(result.stable),
            "best_stc_mb": result.stc_mb if result.stable else 0.0}


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary the benchmark measures; undone on exit."""
    undo: list = []
    t = tracer

    def span(name, count=None):
        """A span per call; ``count`` maps the call's result to counter increments."""
        def make(original):
            def wrapper(*args, **kwargs):
                result = t.span(name, original, *args, **kwargs)
                if count is not None:
                    t.counts.update(count(result))
                return result
            return wrapper
        return make

    def tick_id(original):
        def wrapper(runner, outputs):
            t.tick = runner.tick
            return original(runner, outputs)
        return wrapper

    # harness: the tick loop, its per-tick id and the tick writer
    _patch(SimulationRunner, "run", span("harness.run"), undo)
    _patch(SimulationRunner, "_run_one_tick", tick_id, undo)
    _patch(RunOutputs, "write_tick", span("harness.write_tick"), undo)
    _patch(MetaheuristicEngine, "run_tick", span("harness.metaheuristic_tick"), undo)

    # workload: window collection, anomaly filter, event fold
    _patch(WindowCollector, "collect_window", span(
        "workload.collect_window", lambda batch: {"events_in": len(batch.events)}), undo)
    _patch(harness_runner.__dict__, "filter_anomalies", span(
        "workload.filter_anomalies", lambda out: {"tasks_dropped": sum(
            r.count for r in out[1] if r.kind is AnomalyKind.UNMATCHABLE_CONSTRAINTS)}), undo)
    _patch(CellState, "apply", lambda original: (
        lambda *a, **k: t.aggregate("workload.cell_apply", original, *a, **k)), undo)

    # agents: event application, the round scheduler, quoting, selection
    _patch(AgentEngine, "apply_events", span("agents.apply_events"), undo)
    _patch(AgentEngine, "run_tick", span("agents.run_tick", lambda metrics: {
        f"tick.{f.name}": getattr(metrics, f.name) for f in fields(TickMetrics)}), undo)
    _patch(BrokerAgent, "compute_recommendations", span(
        "agents.quote", lambda recs: {"quote_unschedulable": int(recs is None)}), undo)
    _patch(agent_engine.__dict__, "select_candidate_services", span(
        "agents.select", lambda result: {"select_feasible": int(result.feasible)}), undo)

    # metaheuristics: every strategy reached through the registry
    for name in list(STRATEGIES):
        _patch(STRATEGIES, name, span("metaheuristics.strategy", _strategy_counts), undo)

    try:
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced pass."""
    c = t.counts
    placements, collisions = c["tick.placements"], c["tick.collisions"]
    strategy_calls = t.calls["metaheuristics.strategy"]
    return {
        "agents.quote_s": (t.total_s["agents.quote"], "s"),
        "agents.quote_calls": (t.calls["agents.quote"], "count"),
        "agents.quote_unschedulable_ratio": (
            _ratio(c["quote_unschedulable"], t.calls["agents.quote"]), "ratio"),
        "agents.select_s": (t.total_s["agents.select"], "s"),
        "agents.select_calls": (t.calls["agents.select"], "count"),
        "agents.select_feasible_ratio": (
            _ratio(c["select_feasible"], t.calls["agents.select"]), "ratio"),
        "agents.apply_events_s": (t.self_s["agents.apply_events"], "s"),
        "agents.run_tick_s": (t.self_s["agents.run_tick"], "s"),
        "agents.placements": (placements, "count"),
        "agents.collisions": (collisions, "count"),
        "agents.unschedulable": (c["tick.unschedulable"], "count"),
        "agents.migrations_attempted": (c["tick.migrations_attempted"], "count"),
        "agents.rus_spikes": (c["tick.rus_spikes"], "count"),
        "agents.scs_runs": (c["tick.scs_runs"], "count"),
        "agents.san_restarts": (c["tick.san_restarts"], "count"),
        "agents.placement_success_ratio": (_ratio(placements, placements + collisions), "ratio"),
        "agents.migration_completion_ratio": (
            _ratio(c["tick.migrations_completed"], c["tick.migrations_attempted"]), "ratio"),
        "workload.cell_apply_s": (t.total_s["workload.cell_apply"], "s"),
        "workload.cell_apply_calls": (t.calls["workload.cell_apply"], "count"),
        "workload.collect_window_s": (t.total_s["workload.collect_window"], "s"),
        "workload.events_in": (c["events_in"], "count"),
        "workload.filter_anomalies_s": (t.total_s["workload.filter_anomalies"], "s"),
        "workload.tasks_dropped": (c["tasks_dropped"], "count"),
        "metaheuristics.strategy_s": (t.total_s["metaheuristics.strategy"], "s"),
        "metaheuristics.strategy_calls": (strategy_calls, "count"),
        "metaheuristics.candidates_examined": (c["candidates_examined"], "count"),
        "metaheuristics.cache_hit_ratio": (
            _ratio(c["cache_hits"], c["candidates_examined"]), "ratio"),
        "metaheuristics.runs": (c["runs"], "count"),
        "metaheuristics.stable_ratio": (_ratio(c["stable"], strategy_calls), "ratio"),
        "harness.metaheuristic_tick_self_s": (t.self_s["harness.metaheuristic_tick"], "s"),
        "harness.write_tick_s": (t.total_s["harness.write_tick"], "s"),
        "harness.self_s": (t.self_s["harness.run"], "s"),
        "candidates_per_s": (
            _ratio(c["candidates_examined"], t.total_s["metaheuristics.strategy"]), "1/s"),
        "best_stc_mb": (_ratio(c["best_stc_mb"], c["stable"]), "MB"),
    }
