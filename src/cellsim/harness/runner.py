"""Simulation driver: tick loop, engine dispatch, metrics, snapshots.

Per tick: collect the event window, filter anomalies, apply events to the
engine, write every anomaly reported since the last tick to the error log,
let the engine act, then emit one tick record.  The three engines (replay,
metaheuristic, agents) are driven through the same ``Engine`` calls and all
keep their placements in the one ``CellState``, so the tick record, its
cell-wide ratios and the usage dumps are read from the per-node loads the
cell fold keeps (``CellState.node_table``), whatever the mode.  Everything
is deterministic for a (config, seed) pair; resuming from a snapshot
replays the already-consumed windows from the deterministic sources and
continues bit-identically.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable

import numpy as np

from .. import model
from ..agents.engine import AgentEngine, Engine, TickMetrics
from ..agents.scoring import asr_metrics, classify_vec
from ..livemigration import ProfileCatalog
from ..metaheuristics.problem import PackedProblem
from ..metaheuristics.strategies import STRATEGIES
from ..workload.anomalies import AnomalyKind, AnomalySink, filter_anomalies
from ..workload.events import AddTaskEvent
from ..workload.parsers import GCD_TIME_SHIFT_US, open_trace_directory
from ..workload.state import CellState
from ..workload.synth import RESOURCES, synth_generate
from ..workload.window import WindowCollector
from .config import ConfigError, RunConfig, read_config_file
from .outputs import RunOutputs, TickRecord
from .scaling import compaction_events, scale_cell
from .snapshot import load_snapshot, save_snapshot

class TraceError(RuntimeError):
    """Trace source cannot be read (CLI exit code 2)."""


class InfeasibleWorkloadError(RuntimeError):
    """Total demand exceeds total capacity (CLI exit code 3)."""


def _usage_rows(table, classes):
    node_ids, totals, used, required, counts = table
    rows = []
    for i, node_id in enumerate(node_ids):
        rows.append((node_id, classes[i].value,
                     used[i][0], used[i][1] if used.shape[1] > 1 else 0.0,
                     required[i][0], required[i][1] if required.shape[1] > 1 else 0.0))
    return rows


class CellEngine(Engine):
    """An engine whose whole state is the cell fold: it applies events to
    the cell as they come."""

    def __init__(self, cell: CellState):
        self.cell = cell

    def apply_events(self, events: Iterable) -> None:
        for event in events:
            self.cell.apply(event)

    def run_tick(self) -> TickMetrics:
        return TickMetrics()


class ReplayEngine(CellEngine):
    """Mirrors recorded placements; does no scheduling of its own.  A task
    whose recorded machine is not in the cell stays pending, and is
    reported to the run's anomaly sink."""

    def apply_events(self, events: Iterable) -> None:
        cell = self.cell
        for event in events:
            cell.apply(event)
            if not isinstance(event, AddTaskEvent) or event.recorded_node is None:
                continue
            if event.recorded_node in cell.nodes:
                cell.place(event.task_id, event.recorded_node)
            elif self.sink is not None:
                self.sink.report(AnomalyKind.UNPLACEABLE_TASK,
                                 f"task {event.task_id}: recorded machine "
                                 f"{event.recorded_node} is not in the cell; left pending")


class MetaheuristicEngine(CellEngine):
    """Runs one centralized strategy whenever the cell needs re-balancing;
    each call's outcome and stats go to the run log."""

    def __init__(self, cell: CellState, config: RunConfig):
        super().__init__(cell)
        self.config = config
        self.tick_index = 0

    def run_tick(self) -> TickMetrics:
        self.tick_index += 1
        metrics = TickMetrics()
        problem = PackedProblem.from_cell(self.cell)
        if problem.task_count == 0 or (problem.origin_in_cell()
                                       and problem.is_stable(problem.origin)):
            return metrics
        if problem.node_count == 0:
            raise InfeasibleWorkloadError("tasks exist but the cell has no nodes")
        if not problem.demand_fits():
            raise InfeasibleWorkloadError(
                f"aggregate demand {problem.required.sum(axis=0).tolist()} exceeds "
                f"capacity {problem.capacity.sum(axis=0).tolist()}")
        cfg = self.config.strategy_config(seed=self.config.seed * 1_000_003 + self.tick_index)
        result = STRATEGIES[self.config.strategy](problem, cfg)
        if result.stable:
            assign = result.best.assign
            # task indices follow task-id order, so tasks are placed in that order
            for t in np.flatnonzero(assign != problem.origin):
                self.cell.place(problem.task_ids[t], problem.node_ids[assign[t]])
                if problem.origin[t] >= 0:
                    # a true migration, not an initial placement
                    metrics.migrations_attempted += 1
                    metrics.migrations_completed += 1
                    metrics.stc_mb += float(problem.costs[t])
                else:
                    metrics.placements += 1
        if self.log is not None:  # without elapsed_s, so the run log stays byte-identical
            stats = " ".join(f"{k}={v}" for k, v in sorted(result.stats.items()) if k != "elapsed_s")
            self.log(f"strategy tick {self.tick_index - 1} {self.config.strategy}: "
                     f"stable={result.stable} migrations={metrics.migrations_completed} "
                     f"placements={metrics.placements} stc_mb={result.stc_mb} {stats}")
        return metrics


class SimulationRunner:
    def __init__(self, config: RunConfig):
        config.validate()
        self.config = config
        self.catalog = model.ResourceTypeCatalog(RESOURCES)
        profiles = (read_config_file(ProfileCatalog.from_file, config.profile_file, "profile file")
                    if config.profile_file else ProfileCatalog())
        try:
            profile = profiles.get(config.migration_profile)
        except KeyError as exc:
            raise ConfigError(f"{exc.args[0]}; known: {', '.join(profiles.kinds())}") from None
        self.sink = AnomalySink()
        self.tick = 0
        self.accumulated_stc = 0.0
        self.cell: CellState = CellState(self.catalog, profile)
        self.engine = self._build_engine()
        self.collector = self._build_collector()
        if config.resume_from is not None:
            self._resume(config.resume_from)

    # -- construction ----------------------------------------------------------

    def _build_engine(self) -> Engine:
        mode = self.config.mode
        if mode == "replay":
            return ReplayEngine(self.cell)
        if mode == "metaheuristic":
            return MetaheuristicEngine(self.cell, self.config)
        return AgentEngine(self.cell, self.config.agent_config(), seed=self.config.seed)

    def _build_collector(self) -> WindowCollector:
        config = self.config
        if config.trace_dir is not None:
            trace_dir = Path(config.trace_dir)
            if not trace_dir.is_dir():
                raise TraceError(f"trace directory {trace_dir} does not exist")
            time_offset_us = GCD_TIME_SHIFT_US if config.gcd_time_shift else 0
            sources = open_trace_directory(trace_dir, time_offset_us, self.sink)
            if not sources:
                raise TraceError(f"no trace files found under {trace_dir}")
        else:
            synth = config.synth
            if config.mode != "replay":
                # only replay reads recorded placements: skip their first-fit scan
                synth = dataclasses.replace(synth, record_placements=False)
            sources = [synth_generate(synth)]
        if config.scale_factor > 1:
            sources = [scale_cell(src, config.scale_factor) for src in sources]
        return WindowCollector(sources, self.sink)

    # -- snapshots ---------------------------------------------------------------

    def save_snapshot_file(self, path: Path) -> None:
        save_snapshot(path, {
            "tick": self.tick,
            "cell": self.cell,
            "engine": self.engine,
            "accumulated_stc": self.accumulated_stc,
            "anomaly_counts": self.sink.counts,
            "seed": self.config.seed,
            "mode": self.config.mode,
        })

    def _resume(self, path: Path) -> None:
        data = load_snapshot(path)
        if data["mode"] != self.config.mode or data["seed"] != self.config.seed:
            raise ConfigError("snapshot was produced by a different mode or seed")
        self.tick = data["tick"]
        self.cell = data["cell"]
        self.engine = data["engine"]  # shares the unpickled cell reference
        self.accumulated_stc = data["accumulated_stc"]
        # fast-forward the deterministic sources past the consumed windows;
        # the run that saved the snapshot already logged and counted what
        # they report, and its counts cover the filter's reports too
        for index in range(self.tick):
            start = index * self.config.tick_length_us
            self.collector.collect_window(start, start + self.config.tick_length_us)
        self.sink.drain()
        self.sink.counts = data["anomaly_counts"]

    # -- main loop -----------------------------------------------------------------

    def _tick_record(self, metrics: TickMetrics) -> tuple[TickRecord, tuple, list]:
        table = self.cell.node_table()
        node_ids, totals, used, required, counts = table
        classes = list(classify_vec(totals, used, counts)) if len(node_ids) else []
        capacity, used_sum, required_sum = totals.sum(axis=0), used.sum(axis=0), required.sum(axis=0)

        def ratio(values, index):
            return values[index] / capacity[index] if index < len(capacity) and capacity[index] > 0 else 0.0

        record = TickRecord(
            tick=self.tick,
            metrics=metrics,
            classes=asr_metrics(classes)["counts"],
            ratios=tuple(ratio(values, i) for values in (used_sum, required_sum) for i in (0, 1)),
            pending=len(self.cell.pending),
        )
        return record, table, classes

    def run(self) -> int:
        config = self.config
        with RunOutputs(config.output_dir, config.run_name) as outputs:
            self.engine.log = outputs.log
            self.engine.sink = self.sink
            if config.message_trace:
                self.engine.message_trace = outputs.line_writer("-messages.log")
            if config.audit:
                self.engine.audit = outputs.audit_writer()
            idle_ticks = 0
            while True:
                if config.ticks is not None and self.tick >= config.ticks:
                    break
                if config.ticks is None and self.collector.exhausted:
                    # drain pending placements, but never spin forever on
                    # unschedulable leftovers
                    if not self.cell.pending or idle_ticks >= 5:
                        break
                pending_before = len(self.cell.pending)
                self._run_one_tick(outputs)
                if self.collector.exhausted and len(self.cell.pending) >= pending_before:
                    idle_ticks += 1
                else:
                    idle_ticks = 0
            outputs.log(f"run complete at tick {self.tick}; accumulated STC "
                        f"{self.accumulated_stc:.3f} MB")
        return 0

    def _run_one_tick(self, outputs: RunOutputs) -> None:
        config = self.config
        start = self.tick * config.tick_length_us
        batch = self.collector.collect_window(start, start + config.tick_length_us)
        batch, reports = filter_anomalies(self.cell, batch)
        for report in reports:
            self.sink.report(report.kind, report.detail, report.count)
        if config.compaction_fraction > 0 and self.tick == config.compaction_tick:
            removals = compaction_events(self.cell, config.compaction_fraction,
                                         seed=config.seed, timestamp=start)
            outputs.log(f"compaction at tick {self.tick}: removing {len(removals)} nodes")
            self.engine.apply_events(removals)
        self.engine.apply_events(batch)
        # one path to the error log for every anomaly: the parsers' and the
        # collector's (reported while reading the window) and the filter's
        for report in self.sink.drain():
            outputs.error(report.as_line())
        metrics = self.engine.run_tick()
        self.accumulated_stc += metrics.stc_mb
        record, table, classes = self._tick_record(metrics)
        outputs.write_tick(record)
        if config.audit and not self.cell.conservation_holds():
            outputs.error(f"CONSERVATION tick {self.tick}: task accounting mismatch")
        self.tick += 1
        if config.usage_dump_every and self.tick % config.usage_dump_every == 0:
            outputs.dump_usage(self.tick, _usage_rows(table, classes))
        if config.snapshot_every and self.tick % config.snapshot_every == 0:
            path = Path(config.output_dir) / f"{config.run_name}-{self.tick}.snapshot"
            self.save_snapshot_file(path)
            outputs.log(f"snapshot saved: {path.name}")
