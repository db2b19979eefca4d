"""Harness behavior: tick loop, modes, scaling, snapshots, CLI plumbing."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cell_oracle import assert_loads_match
from support import transfers_settled, write_synth_config
from cellsim.agents import AuditRecord
from cellsim.harness import (
    ConfigError,
    RunConfig,
    SimulationRunner,
    SnapshotError,
    clone_id,
    compaction_events,
    load_snapshot,
    save_snapshot,
    scale_cell,
)
from cellsim.harness.cli import main as cli_main
from cellsim.harness.scaling import IdCollisionError
from cellsim.harness.snapshot import MAGIC, VERSION
from cellsim.harness.tracewriter import write_synthetic_trace
from cellsim.livemigration import MigrationProfile, lmdt_estimate, memory_mb
from cellsim.metaheuristics import STRATEGIES, PackedProblem, StrategyConfig, benchmark_state
from cellsim.model import NodeSpec, ResourceTypeCatalog, SystemState, TaskSpec
from cellsim.workload import AnomalyKind, CellState, SynthConfig, synth_generate
from cellsim.workload import events as ev

CAT2 = ResourceTypeCatalog(("cpu", "memory"))


def synth_config(**kw):
    defaults = dict(seed=7, node_count=8, task_arrival_rate=10.0,
                    duration_minutes=10.0, usage_interval_minutes=2.0)
    defaults.update(kw)
    return SynthConfig(**defaults)


def run_config(tmp_path, **kw):
    defaults = dict(mode="masb", seed=11, output_dir=tmp_path / "out",
                    synth=synth_config(), ticks=8, usage_dump_every=5)
    defaults.update(kw)
    return RunConfig(**defaults)


def read_ticks(config):
    path = Path(config.output_dir) / "logs" / f"{config.run_name}-ticks.csv"
    with open(path) as fh:
        return list(csv.DictReader(fh))


def read_audit(config):
    path = Path(config.output_dir) / "logs" / f"{config.run_name}-audit.csv"
    with open(path) as fh:
        return list(csv.DictReader(fh))


def output_tree(config):
    """Every file a run wrote, by path relative to its output directory."""
    root = Path(config.output_dir)
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def cell_state_oracle(cell):
    """The cell as validated model values, with a sentinel node for pending
    tasks: the per-tick conversion the centralized balancer once made."""
    assignment = {tid: cell.placement.get(tid, "@unplaced") for tid in cell.tasks}
    return SystemState(
        catalog=cell.catalog,
        nodes=tuple(NodeSpec(id=n.node_id, total=n.total)
                    for n in sorted(cell.nodes.values(), key=lambda n: n.node_id)),
        tasks=tuple(TaskSpec(id=t.task_id, required=t.required,
                             migration_cost_mb=t.migration_cost_mb)
                    for t in sorted(cell.tasks.values(), key=lambda t: t.task_id)),
        assignment=assignment,
    )


class TestConfig:
    def test_requires_one_source(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig(mode="masb", seed=1, output_dir=tmp_path).validate()
        with pytest.raises(ConfigError):
            RunConfig(mode="masb", seed=1, output_dir=tmp_path,
                      synth=synth_config(), trace_dir=tmp_path).validate()

    def test_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig(mode="magic", seed=1, output_dir=tmp_path,
                      synth=synth_config()).validate()

    @pytest.mark.parametrize("field,name", [
        ("initial_scorer", "sias_typo"), ("realloc_scorer", "sras_typo"),
        ("strategy", "anneal")])
    def test_unknown_scorer_or_strategy_refused_at_construction(self, tmp_path, field, name):
        # without the check the run fails at its first quote or balancing tick
        mode = "metaheuristic" if field == "strategy" else "masb"
        with pytest.raises(ConfigError, match=name):
            SimulationRunner(run_config(tmp_path, mode=mode, **{field: name}))


class TestScaleCell:
    def test_factor_one_identity(self):
        events = list(synth_generate(synth_config()))
        assert list(scale_cell(iter(events), 1)) == events

    def test_factor_two_doubles_everything(self):
        events = list(synth_generate(synth_config()))
        scaled = list(scale_cell(iter(events), 2))
        assert len(scaled) == 2 * len(events)
        adds = [e for e in scaled if isinstance(e, ev.AddNodeEvent)]
        names = {e.node_id for e in adds}
        assert len(names) == len(adds)  # injective ids

    def test_recorded_placement_remapped(self):
        base = [ev.AddNodeEvent(0, "n1", (1.0, 1.0)),
                ev.AddTaskEvent(1, "t1", (0.1, 0.1), recorded_node="n1")]
        scaled = list(scale_cell(iter(base), 2))
        clones = [e for e in scaled if isinstance(e, ev.AddTaskEvent)
                  and e.task_id == clone_id("t1", 1)]
        assert clones[0].recorded_node == clone_id("n1", 1)

    def test_collision_aborts(self):
        bad = [ev.AddNodeEvent(0, "n~1", (1.0, 1.0))]
        with pytest.raises(IdCollisionError):
            list(scale_cell(iter(bad), 2))

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            list(scale_cell(iter([]), 3))


class TestCompaction:
    def test_fraction_zero_identity(self):
        cell = CellState(CAT2)
        cell.apply(ev.AddNodeEvent(0, "n1", (1.0, 1.0)))
        assert compaction_events(cell, 0.0, seed=1, timestamp=0) == []

    def test_removes_floor_fraction(self):
        cell = CellState(CAT2)
        for i in range(100):
            cell.apply(ev.AddNodeEvent(0, f"n{i}", (1.0, 1.0)))
        removals = compaction_events(cell, 0.02, seed=1, timestamp=0)
        assert len(removals) == 2

    def test_seeded_choice_is_deterministic(self):
        cell = CellState(CAT2)
        for i in range(50):
            cell.apply(ev.AddNodeEvent(0, f"n{i}", (1.0, 1.0)))
        a = [e.node_id for e in compaction_events(cell, 0.1, seed=9, timestamp=0)]
        b = [e.node_id for e in compaction_events(cell, 0.1, seed=9, timestamp=0)]
        assert a == b


class TestReplayMode:
    def test_recorded_placements_no_migrations(self, tmp_path):
        config = run_config(tmp_path, mode="replay", ticks=10)
        runner = SimulationRunner(config)
        assert runner.run() == 0
        rows = read_ticks(config)
        assert len(rows) == 10
        assert all(r["migrations_completed"] == "0" for r in rows)
        assert all(float(r["stc_mb"]) == 0.0 for r in rows)
        # recorded placements fit, so nothing is overloaded
        assert all(r["overloaded"] == "0" for r in rows)
        assert runner.cell.conservation_holds()

    @pytest.mark.parametrize("mode", ["replay", "masb", "metaheuristic"])
    def test_only_replay_records_synthetic_placements(self, tmp_path, mode):
        """The other modes read no recorded placement, so their synthetic
        source skips the first-fit scan; the stream is otherwise the same."""
        config = run_config(tmp_path, mode=mode)
        runner = SimulationRunner(config)
        events = list(runner.collector.collect_window(0, 10 * 60_000_000))
        recorded = [e.recorded_node for e in events if isinstance(e, ev.AddTaskEvent)]
        assert recorded and any(recorded) == (mode == "replay")
        plain = dataclasses.replace(config.synth, record_placements=False)
        assert [dataclasses.replace(e, recorded_node=None) if isinstance(e, ev.AddTaskEvent)
                else e for e in events] == list(synth_generate(plain))

    def test_task_on_a_machine_not_in_the_cell_is_reported(self, tmp_path):
        """A task whose recorded machine is not in the cell (its row was
        corrupt) gets one UnplaceableTask line naming the task and the
        machine, counted in the sink, and stays pending."""
        trace_dir = tmp_path / "trace"
        write_synthetic_trace(synth_config(node_count=4), trace_dir)
        [part] = (trace_dir / "machine_events").glob("part-*")
        rows = part.read_text().splitlines()
        cells = rows[0].split(",")
        cells[4] = "nan"  # the first machine's cpus
        part.write_text("\n".join([",".join(cells), *rows[1:]]) + "\n")
        config = run_config(tmp_path, mode="replay", synth=None, trace_dir=trace_dir, ticks=5)
        runner = SimulationRunner(config)
        assert runner.run() == 0
        lines = (Path(config.output_dir) / "logs" / "run-error.log").read_text().splitlines()
        kind = AnomalyKind.UNPLACEABLE_TASK
        named = [re.fullmatch(rf"{kind.value}\t1\ttask (\S+): recorded machine n00000 is not "
                              r"in the cell; left pending", line)
                 for line in lines if line.startswith(kind.value + "\t")]
        assert named and all(named)
        tasks = [match.group(1) for match in named]
        assert len(set(tasks)) == len(tasks) == runner.sink.count(kind)
        cell = runner.cell
        assert "n00000" not in cell.nodes
        assert not set(tasks) & set(cell.placement)
        assert set(cell.pending) == set(tasks) & set(cell.tasks)
        assert cell.conservation_holds()

    def test_usage_dump_written(self, tmp_path):
        config = run_config(tmp_path, mode="replay", ticks=10, usage_dump_every=5)
        SimulationRunner(config).run()
        dumps = sorted((Path(config.output_dir) / "usage").iterdir())
        assert [p.name for p in dumps] == ["run-10.csv", "run-5.csv"]


class TestMasbMode:
    def test_places_and_balances(self, tmp_path):
        config = run_config(tmp_path, mode="masb", ticks=10)
        runner = SimulationRunner(config)
        assert runner.run() == 0
        rows = read_ticks(config)
        assert len(rows) == 10
        assert runner.cell.conservation_holds()
        # everything got placed by the brokers
        assert list(runner.cell.pending) == []

    def test_byte_identical_with_same_seed(self, tmp_path):
        out_a = run_config(tmp_path / "a")
        out_b = run_config(tmp_path / "b")
        SimulationRunner(out_a).run()
        SimulationRunner(out_b).run()
        bytes_a = (Path(out_a.output_dir) / "logs" / "run-ticks.csv").read_bytes()
        bytes_b = (Path(out_b.output_dir) / "logs" / "run-ticks.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_different_seed_differs(self, tmp_path):
        out_a = run_config(tmp_path / "a", seed=1)
        out_b = run_config(tmp_path / "b", seed=2)
        SimulationRunner(out_a).run()
        SimulationRunner(out_b).run()
        bytes_a = (Path(out_a.output_dir) / "logs" / "run-ticks.csv").read_bytes()
        bytes_b = (Path(out_b.output_dir) / "logs" / "run-ticks.csv").read_bytes()
        assert bytes_a != bytes_b

    def test_long_ticks_keep_broker_caches(self, tmp_path):
        # every node reports each tick, so a broker's cache holds the whole
        # cell when a tick starts, however long the tick: on an
        # unconstrained cell no task is unschedulable
        config = run_config(tmp_path, ticks=3, tick_length_us=10 * 60 * 1_000_000,
                            synth=synth_config(duration_minutes=30.0))
        runner = SimulationRunner(config)
        assert runner.run() == 0
        log = (Path(config.output_dir) / "logs" / "run.log").read_text()
        assert "unschedulable" not in log
        assert runner.cell.placement

    def test_quotes_outlive_long_ticks(self, tmp_path):
        # a regular target is chosen three rounds after its quote; at
        # 70-s rounds a 3-minute quote lifetime expired every quote first,
        # and no regular migration ever happened
        config = run_config(tmp_path, seed=3, ticks=12, tick_length_us=420 * 1_000_000,
                            usage_dump_every=0, audit=True,
                            synth=synth_config(node_count=40, task_arrival_rate=12.0,
                                               duration_minutes=400.0, usage_ratio=(0.7, 1.1),
                                               usage_ramp_updates=3, usage_interval_minutes=5.0))
        runner = SimulationRunner(config)
        assert runner.run() == 0
        audit = read_audit(config)
        assert [row for row in audit if row["initial"] == "0" and row["forced"] == "0"]
        assert {row["ttl_us"] for row in audit} == {str(3 * config.tick_length_us)}
        # with quotes that outlive the tick, migrations keep overloads to a
        # few of the 40 nodes in every tick (at most 1 for run seeds 1-5);
        # with 3-minute quotes nothing migrates and 7-9 nodes end overloaded.
        # A node that overloads in the last tick may still be overloaded at
        # its end, so the check is not that none is.
        assert max(int(row["overloaded"]) for row in read_ticks(config)) <= 3


class TestScalingInvariance:
    def test_replay_class_ratios_stable_under_scaling(self, tmp_path):
        # clones are identical, so per-node class ratios barely move
        def ratios(config):
            SimulationRunner(config).run()
            rows = read_ticks(config)
            last = rows[-1]
            balance = sum(int(last[k]) for k in ("sta", "ta", "pa", "da"))
            if balance == 0:
                return None
            return {k: int(last[k]) / balance for k in ("sta", "ta", "pa", "da")}

        base = run_config(tmp_path / "base", mode="replay", ticks=10,
                          synth=synth_config(node_count=12, task_arrival_rate=30.0))
        doubled = run_config(tmp_path / "x2", mode="replay", ticks=10, scale_factor=2,
                             synth=synth_config(node_count=12, task_arrival_rate=30.0))
        r1, r2 = ratios(base), ratios(doubled)
        assert r1 is not None and r2 is not None
        for key in r1:
            assert abs(r1[key] - r2[key]) <= 0.01


class TestStcAccounting:
    def test_ticks_csv_stc_matches_migration_log(self, tmp_path):
        # overload one node so the agents actually migrate something
        config = run_config(tmp_path, mode="masb", ticks=8, audit=True,
                            synth=synth_config(node_count=6, task_arrival_rate=40.0,
                                               service_required=(0.15, 0.3),
                                               batch_fraction=0.3,
                                               usage_ratio=(0.8, 1.1)))
        runner = SimulationRunner(config)
        assert runner.run() == 0
        ticks, audit = read_ticks(config), read_audit(config)
        migrations = [row for row in audit if row["initial"] == "0"]
        assert migrations
        # both files round each value to 0.001 MB
        csv_total = sum(float(r["stc_mb"]) for r in ticks)
        audit_total = sum(float(r["cost_mb"]) for r in migrations)
        assert csv_total == pytest.approx(audit_total, abs=0.0005 * (len(ticks) + len(migrations)))
        assert len(migrations) == sum(int(r["migrations_completed"]) for r in ticks)

    def test_ticks_csv_carries_the_engine_counters(self, tmp_path):
        # the engine's counters follow the first fifteen columns, which keep
        # their order; each is the tick's own count, and pending is the
        # cell's at the end of the tick
        config = run_config(tmp_path, mode="masb", ticks=8, audit=True,
                            synth=synth_config(node_count=6, task_arrival_rate=40.0,
                                               service_required=(0.15, 0.3),
                                               batch_fraction=0.3,
                                               usage_ratio=(0.8, 1.1)))
        runner = SimulationRunner(config)
        assert runner.run() == 0
        header = (Path(config.output_dir) / "logs" / "run-ticks.csv").read_text().splitlines()[0]
        assert header.split(",")[15:] == ["placements", "unschedulable", "scs_runs",
                                          "rus_spikes", "san_restarts", "pending"]
        ticks, audit = read_ticks(config), read_audit(config)
        placements = [row for row in audit if row["initial"] == "1"]
        assert len(placements) == sum(int(r["placements"]) for r in ticks) > 0
        assert sum(int(r["scs_runs"]) for r in ticks) > 0
        log = (Path(config.output_dir) / "logs" / "run.log").read_text()
        assert sum(int(r["unschedulable"]) for r in ticks) == log.count("unschedulable")
        assert int(ticks[-1]["pending"]) == len(runner.cell.pending)

    @pytest.mark.parametrize("override", [{"node_count": "5"}, {"node_capacity": [1.0]},
                                          {"usage_ratio": [0.5]}, {"seed": 1.5},
                                          {"node_capacity": [math.nan, 1.0]},
                                          {"node_capacity": [-1.0, 1.0]},
                                          {"node_capacity": [1.0, 0]},
                                          {"duration_minutes": math.inf},
                                          {"usage_ratio": [0.5, math.nan]}],
                             ids=["text-count", "short-capacity", "short-range", "float-seed",
                                  "nan-capacity", "negative-capacity", "zero-capacity",
                                  "infinite-duration", "nan-range"])
    def test_wrongly_typed_synth_config_is_config_error(self, tmp_path, capsys, override):
        # a value of the wrong type, length or sign, or a NaN or infinity
        # (which JSON config files may hold), is one config error line, not
        # a traceback out of validation or out of the run, and not a run
        # that places nothing
        config_path = tmp_path / "synth.json"
        write_synth_config(synth_config(node_count=5), config_path)
        raw = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**raw, **override}))
        code = cli_main(["run", "--mode", "masb", "--seed", "1", "--synth-config",
                         str(config_path), "--out", str(tmp_path / "out"), "--ticks", "2"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        (key,) = override
        assert len(lines) == 1 and lines[0].startswith("config error: ") and key in lines[0]

    def test_audit_csv_format(self, tmp_path):
        config = run_config(tmp_path, mode="masb", ticks=4, audit=True)
        assert SimulationRunner(config).run() == 0
        path = Path(config.output_dir) / "logs" / "run-audit.csv"
        header = path.read_text().splitlines()[0]
        assert header.split(",") == [field.name for field in dataclasses.fields(AuditRecord)]
        rows = read_audit(config)
        assert rows
        for row in rows:
            for flag in ("forced", "initial", "constraints_ok", "capacity_ok",
                         "stable_after", "rus_after"):
                assert row[flag] in ("0", "1")
            if row["initial"] == "1":
                assert (row["source"], row["cost_mb"]) == ("", "0.000")
            assert re.fullmatch(r"\d+\.\d{3}", row["cost_mb"])

    def test_no_audit_file_without_audit(self, tmp_path):
        config = run_config(tmp_path, mode="masb", ticks=4)
        assert SimulationRunner(config).run() == 0
        assert not (Path(config.output_dir) / "logs" / "run-audit.csv").exists()


class TestMetaheuristicMode:
    def test_balances_unplaced_tasks(self, tmp_path):
        config = run_config(tmp_path, mode="metaheuristic", ticks=6,
                            strategy="greedy", strategy_budget=4000)
        runner = SimulationRunner(config)
        assert runner.run() == 0
        assert list(runner.cell.pending) == []
        rows = read_ticks(config)
        assert all(r["overloaded"] == "0" for r in rows[1:])

    @pytest.mark.parametrize("strategy", ["tabu", "sa"])
    def test_cold_cell_places_without_migrating(self, tmp_path, strategy):
        """On a cell no node of which overloads, every pending task is
        first-fitted and no running task moves; each strategy line counts
        the tick's migrations and placements as ticks.csv does."""
        config = run_config(tmp_path, mode="metaheuristic", ticks=8, strategy=strategy,
                            strategy_budget=4000, synth=synth_config(node_count=20))
        runner = SimulationRunner(config)
        assert runner.run() == 0 and list(runner.cell.pending) == []
        rows = read_ticks(config)
        assert [r["migrations_completed"] for r in rows] == ["0"] * 8
        assert all(r["overloaded"] == "0" for r in rows)
        log = (Path(config.output_dir) / "logs" / "run.log").read_text()
        logged = {int(tick): (migrations, placements) for tick, migrations, placements in re.findall(
            r"^strategy tick (\d+) \w+: stable=True migrations=(\d+) placements=(\d+) ", log, re.M)}
        assert logged and logged == {int(r["tick"]): ("0", r["placements"])
                                     for r in rows if r["placements"] != "0"}

    def test_every_strategy_call_is_logged(self, tmp_path, monkeypatch):
        calls = []

        def counted(problem, cfg):
            result = STRATEGIES["tabu"](problem, cfg)
            calls.append((result.stable, result.stats["candidates_examined"]))
            return result

        monkeypatch.setitem(STRATEGIES, "counted", counted)
        config = run_config(tmp_path, mode="metaheuristic", ticks=6,
                            strategy="counted", strategy_budget=500)
        assert SimulationRunner(config).run() == 0
        log = Path(config.output_dir) / "logs" / "run.log"
        lines = [line for line in log.read_text().splitlines() if line.startswith("strategy ")]
        assert calls and len(lines) == len(calls)
        for line, (stable, examined) in zip(lines, calls):
            assert f" counted: stable={stable} " in line
            assert f" candidates_examined={examined}" in line
            assert " runs=" in line and " cache_hits=" in line
            assert "elapsed_s" not in line

    def test_from_cell_matches_state_oracle(self, tmp_path):
        config = run_config(tmp_path, mode="metaheuristic", ticks=4,
                            strategy="greedy", strategy_budget=4000)
        runner = SimulationRunner(config)
        runner.run()
        cell = runner.cell
        # mid-run: the next window is folded but not balanced, and the
        # busiest node leaves, so tasks are placed, pending and unplaced
        start = runner.tick * config.tick_length_us
        runner.engine.apply_events(
            runner.collector.collect_window(start, start + config.tick_length_us))
        hosted = list(cell.placement.values())
        busiest = max(sorted(set(hosted)), key=hosted.count)
        cell.apply(ev.RemoveNodeEvent(start, busiest))
        assert cell.placement and len(cell.pending) > hosted.count(busiest)

        packed = PackedProblem.from_cell(cell)
        expected = PackedProblem.from_state(cell_state_oracle(cell))
        assert packed.task_ids == expected.task_ids
        assert packed.node_ids == expected.node_ids
        assert busiest not in packed.node_ids
        for name in ("required", "capacity", "costs", "origin"):
            got, want = getattr(packed, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        assert np.count_nonzero(packed.origin < 0) == len(cell.pending)


class TestSnapshotRoundtrip:
    def test_save_load_identity(self, tmp_path):
        payload = {"mode": "masb", "seed": 3, "tick": 5, "cell": CellState(CAT2),
                   "accumulated_stc": 1.5}
        path = tmp_path / "x.snapshot"
        save_snapshot(path, payload)
        loaded = load_snapshot(path)
        assert loaded["tick"] == 5
        assert loaded["accumulated_stc"] == 1.5

    def test_corrupted_refused(self, tmp_path):
        path = tmp_path / "x.snapshot"
        save_snapshot(path, {"a": 1})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_not_a_snapshot_refused(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world, definitely not a snapshot")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    @pytest.mark.parametrize("mode", ["replay", "masb", "masb-constrained", "metaheuristic"])
    def test_resume_reproduces_run(self, tmp_path, mode):
        # masb also traces messages and audits, so the engine's writers must
        # survive being left out of the snapshot; its constrained run
        # snapshots the cell's eligibility rows too
        extra = {"masb": dict(message_trace=True, audit=True),
                 "masb-constrained": dict(message_trace=True, audit=True, synth=synth_config(
                     constraint_rate=0.3, attribute_groups=4)),
                 "metaheuristic": dict(strategy="greedy", strategy_budget=4000)}.get(mode, {})
        mode = mode.removesuffix("-constrained")
        full_config = run_config(tmp_path / "full", mode=mode, ticks=8,
                                 snapshot_every=None, **extra)
        SimulationRunner(full_config).run()
        full_rows = read_ticks(full_config)

        half_config = run_config(tmp_path / "half", mode=mode, ticks=4,
                                 snapshot_every=4, **extra)
        SimulationRunner(half_config).run()
        resumed_config = run_config(
            tmp_path / "half", mode=mode, ticks=8,
            resume_from=Path(half_config.output_dir) / "run-4.snapshot",
            run_name="resumed", **extra)
        SimulationRunner(resumed_config).run()
        resumed_rows = read_ticks(resumed_config)
        assert resumed_rows == full_rows[4:]
        if mode == "masb":
            logs = Path(full_config.output_dir) / "logs"
            full_trace = (logs / "run-messages.log").read_text().splitlines()
            resumed_trace = (Path(resumed_config.output_dir) / "logs"
                             / "resumed-messages.log").read_text().splitlines()
            resumed_from_us = 4 * full_config.tick_length_us
            assert resumed_trace
            assert resumed_trace == [line for line in full_trace
                                     if int(line.split("\t")[0]) >= resumed_from_us]
            resumed_audit = read_audit(resumed_config)
            assert resumed_audit
            assert read_audit(half_config) + resumed_audit == read_audit(full_config)

    @pytest.mark.parametrize("source", ["trace", "synth"])
    def test_resumed_anomaly_counts_cover_whole_run(self, tmp_path, source):
        # anomalies reported before the snapshot tick: with the trace, one
        # corrupt row (a parser report) and a usage row overcommitting the
        # one node's memory (a filter report); with the synthetic source,
        # tasks constrained to attribute groups that no node has (two nodes
        # hold groups 0 and 1 of four; filter reports)
        if source == "trace":
            trace_dir = tmp_path / "trace"
            write_synthetic_trace(synth_config(node_count=1), trace_dir)
            events = trace_dir / "task_events" / "part-00000-of-00001.csv"
            events.write_text("not-a-timestamp,0,1,0,,0\n" + events.read_text())
            usage = trace_dir / "task_usage" / "part-00000-of-00001.csv"
            first, rest = usage.read_text().split("\n", 1)
            usage.write_text(",".join(first.split(",")[:-1] + ["1.5"]) + "\n" + rest)
            kinds = (AnomalyKind.CORRUPT_RECORD, AnomalyKind.OVER_USAGE_WINDOW)
            extra = dict(synth=None, trace_dir=trace_dir)
        else:
            kinds = (AnomalyKind.UNMATCHABLE_CONSTRAINTS,)
            extra = dict(synth=synth_config(node_count=2, attribute_groups=4,
                                            constraint_rate=0.3))
        full = SimulationRunner(run_config(tmp_path / "full", mode="replay", **extra))
        full.run()
        half_config = run_config(tmp_path / "half", mode="replay", ticks=4,
                                 snapshot_every=4, **extra)
        half = SimulationRunner(half_config)
        half.run()
        resumed = SimulationRunner(run_config(
            tmp_path / "half", mode="replay",
            resume_from=Path(half_config.output_dir) / "run-4.snapshot",
            run_name="resumed", **extra))
        resumed.run()
        assert all(half.sink.count(kind) > 0 for kind in kinds)
        assert resumed.sink.counts == full.sink.counts

    def test_old_snapshot_version_refused(self, tmp_path):
        path = tmp_path / "x.snapshot"
        save_snapshot(path, {"a": 1})
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC):len(MAGIC) + 4] = (VERSION - 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(path)


class TestBrokersAndNodeLoss:
    """Runs with two or three brokers (cache gossip) or with a compaction that takes
    nodes away: repeatable to the byte, every task accounted for, and the
    cell's node loads equal to a recount afterwards."""

    CASES = {
        "masb-2-brokers": dict(mode="masb", broker_count=2),
        "masb-3-brokers": dict(mode="masb", broker_count=3),
        "masb-compaction": dict(mode="masb", compaction_fraction=0.25, compaction_tick=3),
        "metaheuristic-compaction": dict(mode="metaheuristic", compaction_fraction=0.25,
                                         compaction_tick=3, strategy="greedy",
                                         strategy_budget=4000),
        "replay-compaction": dict(mode="replay", compaction_fraction=0.25, compaction_tick=3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_repeatable_and_conserving(self, tmp_path, case):
        trees = []
        for name in ("a", "b"):
            config = run_config(tmp_path / name, message_trace=True, **self.CASES[case])
            runner = SimulationRunner(config)
            assert runner.run() == 0
            assert runner.cell.conservation_holds()
            assert_loads_match(runner.cell)
            if config.mode == "masb":
                assert transfers_settled(runner.engine)
            if config.compaction_fraction:
                assert len(runner.cell.nodes) == 6  # 2 of the 8 nodes left
            trees.append(output_tree(config))
        assert trees[0] == trees[1]


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize("mode", ["replay", "masb", "metaheuristic"])
    def test_output_ignores_hash_seed(self, tmp_path, mode):
        """Set iteration order follows PYTHONHASHSEED; no output may."""
        synth_path = tmp_path / "synth.json"
        write_synth_config(synth_config(node_count=30, duration_minutes=12.0), synth_path)
        src = Path(__file__).resolve().parent.parent / "src"
        trees = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"out-{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            subprocess.run(
                [sys.executable, "-m", "cellsim.harness.cli", "run", "--mode", mode,
                 "--seed", "5", "--synth-config", str(synth_path), "--out", str(out),
                 "--ticks", "12", "--message-trace", "--usage-dump-every", "3",
                 "--brokers", "2", "--compaction", "0.2"],
                env=env, check=True, capture_output=True, timeout=300)
            trees.append(output_tree(RunConfig(mode=mode, seed=5, output_dir=out)))
        assert len(trees[0]) >= 6  # log, error log, ticks, four usage dumps
        assert trees[0] == trees[1]


class TestErrorLog:
    def test_corrupt_trace_row_reaches_error_log(self, tmp_path):
        trace_dir = tmp_path / "trace"
        write_synthetic_trace(synth_config(), trace_dir)
        part = trace_dir / "task_events" / "part-00000-of-00001.csv"
        part.write_text("not-a-timestamp,0,1,0,,0\n" + part.read_text())
        config = run_config(tmp_path, mode="replay", synth=None,
                            trace_dir=trace_dir, ticks=3)
        runner = SimulationRunner(config)
        assert runner.run() == 0
        error_log = Path(config.output_dir) / "logs" / "run-error.log"
        corrupt = [line for line in error_log.read_text().splitlines()
                   if line.startswith(AnomalyKind.CORRUPT_RECORD.value + "\t")]
        assert len(corrupt) == 1
        assert runner.sink.count(AnomalyKind.CORRUPT_RECORD) == 1
        assert runner.sink.reports == []  # drained every tick, not kept

    def test_unmatchable_trace_constraint_removes_its_task(self, tmp_path):
        # trace constraints reach the cell as updates after their task's
        # AddTask; one that names a value no machine has must not leave the
        # task pending for ever
        trace_dir = tmp_path / "trace"
        write_synthetic_trace(synth_config(constraint_rate=0.5), trace_dir)
        ended = {row.split(",")[2] for row in
                 (trace_dir / "task_events" / "part-00000-of-00001.csv").read_text().splitlines()
                 if row.split(",")[5] == "4"}
        constraints = trace_dir / "task_constraints" / "part-00000-of-00001.csv"
        rows = [row.split(",") for row in constraints.read_text().splitlines()]
        victim = next(row[1] for row in rows if row[1] not in ended)
        constraints.write_text("".join(
            ",".join(row[:5] + ["no-such-group" if row[1] == victim else row[5]]) + "\n"
            for row in rows))
        config = run_config(tmp_path, synth=None, trace_dir=trace_dir)
        runner = SimulationRunner(config)
        assert runner.run() == 0
        task_id = f"{victim}-0"
        error_log = Path(config.output_dir) / "logs" / "run-error.log"
        assert [line for line in error_log.read_text().splitlines()
                if line.startswith(AnomalyKind.UNMATCHABLE_CONSTRAINTS.value + "\t")
                and f"task {task_id} " in line]
        assert task_id not in runner.cell.tasks
        assert runner.cell.conservation_holds()
        assert_loads_match(runner.cell)

    def test_huge_usage_row_is_priced_not_reported(self, tmp_path):
        # memory 100.0 scales to 100 x 64 GiB, where e^(af * am) alone
        # would overflow a float; the estimate is linear there
        trace_dir = tmp_path / "trace"
        write_synthetic_trace(synth_config(), trace_dir)
        usage = trace_dir / "task_usage" / "part-00000-of-00001.csv"
        first, rest = usage.read_text().split("\n", 1)
        usage.write_text(",".join(first.split(",")[:-1] + ["100.0"]) + "\n" + rest)
        config = run_config(tmp_path, mode="replay", synth=None, trace_dir=trace_dir)
        runner = SimulationRunner(config)
        assert runner.run() == 0
        # the only lines are the over-usage the row itself causes
        error_log = Path(config.output_dir) / "logs" / "run-error.log"
        lines = error_log.read_text().splitlines()
        assert lines and all(line.startswith(AnomalyKind.OVER_USAGE_WINDOW.value + "\t")
                             for line in lines)
        assert all(np.isfinite(task.migration_cost_mb) for task in runner.cell.tasks.values())


class TestCli:
    def test_synth_then_replay_run(self, tmp_path):
        config_path = tmp_path / "synth.json"
        write_synth_config(synth_config(), config_path)
        trace_dir = tmp_path / "trace"
        assert cli_main(["synth", "--config", str(config_path),
                         "--out", str(trace_dir)]) == 0
        assert (trace_dir / "machine_events" / "part-00000-of-00001.csv").exists()
        code = cli_main(["run", "--mode", "replay", "--seed", "4",
                         "--trace-dir", str(trace_dir),
                         "--out", str(tmp_path / "out"), "--ticks", "10"])
        assert code == 0
        assert (tmp_path / "out" / "logs" / "run-ticks.csv").exists()

    def test_missing_source_is_config_error(self, tmp_path):
        code = cli_main(["run", "--mode", "masb", "--seed", "1",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_bad_trace_dir_is_trace_error(self, tmp_path):
        code = cli_main(["run", "--mode", "replay", "--seed", "1",
                         "--trace-dir", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("where", ["flag", "synth"])
    def test_unknown_migration_profile_is_config_error(self, tmp_path, capsys, where):
        # the run names the profile; a synthetic config naming one is
        # rejected as having an unknown key
        config_path = tmp_path / "synth.json"
        write_synth_config(synth_config(), config_path)
        if where == "synth":
            raw = json.loads(config_path.read_text())
            config_path.write_text(json.dumps({**raw, "migration_profile": "apache"}))
        args = ["run", "--mode", "masb", "--seed", "1", "--synth-config", str(config_path),
                "--out", str(tmp_path / "out"), "--ticks", "2"]
        if where == "flag":
            args += ["--migration-profile", "nope"]
        assert cli_main(args) == 1
        if where == "synth":
            assert cli_main(["synth", "--config", str(config_path),
                             "--out", str(tmp_path / "trace")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == (2 if where == "synth" else 1)
        expected = ("config error: unknown synth config keys: ['migration_profile']"
                    if where == "synth" else "config error: unknown migration profile 'nope'")
        assert all(line.startswith(expected) for line in lines)

    @pytest.mark.parametrize("flags,named", [
        (["--brokers", "0"], None),
        (["--brokers", "-1"], None),
        (["--synth-config", "missing.json"], "missing.json"),
        (["--profile-file", "missing.json"], "missing.json"),
        (["--profile-file", "profiles.json", "--migration-profile", "x"], "profiles.json"),
        # a negative interval would dump or snapshot on every tick (tick % -1
        # is 0), and a zero budget would search nothing
        (["--usage-dump-every", "-1"], None),
        (["--snapshot-every", "-1"], None),
        (["--strategy-budget", "0"], None),
    ], ids=["no-broker", "negative-brokers", "missing-synth-config", "missing-profile-file",
            "profile-without-cmdt", "negative-dump-interval", "negative-snapshot-interval",
            "zero-strategy-budget"])
    def test_bad_run_input_is_config_error(self, tmp_path, capsys, flags, named):
        # each is one config error line, not a traceback out of the run
        write_synth_config(synth_config(), tmp_path / "synth.json")
        (tmp_path / "profiles.json").write_text('{"x": {"af": 0.01}}')
        flags = [str(tmp_path / flag) if flag.endswith(".json") else flag for flag in flags]
        code = cli_main(["run", "--mode", "masb", "--seed", "1",
                         "--synth-config", str(tmp_path / "synth.json"),
                         "--out", str(tmp_path / "out"), "--ticks", "2", *flags])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        if named is not None:
            assert str(tmp_path / named) in lines[0]

    def test_profile_file_reaches_synthetic_config(self, tmp_path):
        # a synthetic run's tasks are priced with the run's profile
        profile_path = tmp_path / "profiles.json"
        profile_path.write_text('{"custom": {"cmdt_mb": 50.0, "af": 0.0}}')
        config_path = tmp_path / "synth.json"
        write_synth_config(synth_config(), config_path)
        config = run_config(tmp_path, synth=SynthConfig.from_file(config_path),
                            profile_file=profile_path, migration_profile="custom", ticks=2)
        runner = SimulationRunner(config)
        assert runner.run() == 0
        custom = MigrationProfile(50.0, 0.0)
        assert runner.cell.tasks
        for task in runner.cell.tasks.values():
            assert task.migration_cost_mb == lmdt_estimate(custom, memory_mb(task.used[1]))
        code = cli_main(["run", "--mode", "masb", "--seed", "1",
                         "--synth-config", str(config_path), "--profile-file", str(profile_path),
                         "--migration-profile", "custom",
                         "--out", str(tmp_path / "cli"), "--ticks", "2"])
        assert code == 0

    def test_bench_writes_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli_main(["bench", "--scenario", "test1", "--strategies", "greedy,tabu",
                         "--budget", "1500", "--seed", "5", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["strategy"] for r in rows} == {"greedy", "tabu"}
        assert all(r["stable"] == "1" for r in rows)
        for row in rows:
            result = STRATEGIES[row["strategy"]](benchmark_state("test1"),
                                                 StrategyConfig(seed=5, max_candidates=1500))
            assert int(row["candidates_examined"]) == result.stats["candidates_examined"]

    def test_snapshot_inspect(self, tmp_path, capsys):
        config = run_config(tmp_path, ticks=4, snapshot_every=2)
        SimulationRunner(config).run()
        snap = Path(config.output_dir) / "run-2.snapshot"
        assert cli_main(["snapshot", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "tick: 2" in out

    def test_infeasible_exit_code(self, tmp_path):
        # one tiny node, service tasks demanding more than the cell holds
        config_path = tmp_path / "synth.json"
        write_synth_config(SynthConfig(seed=1, node_count=1, task_arrival_rate=30.0,
                                       duration_minutes=5.0, batch_fraction=0.0,
                                       service_required=(0.4, 0.4),
                                       node_capacity=(1.0, 1.0)), config_path)
        code = cli_main(["run", "--mode", "metaheuristic", "--seed", "2",
                         "--synth-config", str(config_path),
                         "--out", str(tmp_path / "out"), "--ticks", "6"])
        assert code == 3
