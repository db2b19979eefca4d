"""Event model, windowed collection, anomaly filtering, replay determinism."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cell_oracle import assert_loads_match
from cellsim.harness.tracewriter import write_synthetic_trace
from cellsim.livemigration import BUILTIN_PROFILES, lmdt_estimate, memory_mb
from cellsim.model import ResourceTypeCatalog
from cellsim.workload import (
    AnomalyKind,
    AnomalySink,
    CellState,
    ConstraintOperator as Op,
    EventBatch,
    SynthConfig,
    TaskConstraint,
    WindowCollector,
    filter_anomalies,
    sort_events,
    synth_generate,
)
from cellsim.workload import events as ev
from cellsim.workload.parsers import GCD_TIME_SHIFT_US, open_trace_directory
from support import write_synth_config
from synth_oracle import eager_synth_events

CAT2 = ResourceTypeCatalog(("cpu", "memory"))
MIN_US = 60 * 1_000_000


def add_node(ts, nid, total=(1.0, 1.0), attrs=()):
    return ev.AddNodeEvent(timestamp=ts, node_id=nid, total=total, attributes=tuple(attrs))


def add_task(ts, tid, required=(0.1, 0.1), **kw):
    return ev.AddTaskEvent(timestamp=ts, task_id=tid, required=required, **kw)


class TestEventOrdering:
    def test_sorted_by_timestamp(self):
        events = [add_task(50, "t"), add_node(10, "n"), ev.RemoveTaskEvent(30, "x")]
        assert [e.timestamp for e in sort_events(events)] == [10, 30, 50]

    def test_tie_break_nodes_before_tasks_removals_first(self):
        events = [
            add_task(10, "t1"),
            ev.RemoveTaskEvent(10, "t0"),
            add_node(10, "n1"),
            ev.RemoveNodeEvent(10, "n0"),
            ev.UpdateTaskUsedEvent(10, "t1", (0.1, 0.1)),
        ]
        kinds = [e.kind for e in sort_events(events)]
        assert kinds == [
            ev.EventKind.REMOVE_NODE,
            ev.EventKind.ADD_NODE,
            ev.EventKind.REMOVE_TASK,
            ev.EventKind.ADD_TASK,
            ev.EventKind.UPDATE_TASK_USED,
        ]

    def test_add_task_precedes_first_usage_at_same_timestamp(self):
        events = [ev.UpdateTaskUsedEvent(5, "t", (0.1, 0.1)), add_task(5, "t")]
        kinds = [e.kind for e in sort_events(events)]
        assert kinds == [ev.EventKind.ADD_TASK, ev.EventKind.UPDATE_TASK_USED]

    def test_batch_rejects_outside_window(self):
        with pytest.raises(ValueError):
            EventBatch(0, 10, (add_node(10, "n"),))


class TestWindowCollector:
    def test_interleaved_sources_merge_sorted(self):
        a = [add_node(5, "n1"), add_node(25, "n2")]
        b = [add_task(10, "t1"), add_task(20, "t2")]
        collector = WindowCollector([iter(a), iter(b)])
        batch = collector.collect_window(0, 30)
        assert [e.timestamp for e in batch] == [5, 10, 20, 25]

    def test_empty_window(self):
        collector = WindowCollector([iter([add_node(100, "n")])])
        assert len(collector.collect_window(0, 50)) == 0

    def test_events_never_leak_across_windows(self):
        events = [add_task(ts, f"t{ts}") for ts in range(0, 100, 7)]
        collector = WindowCollector([iter(events)])
        seen = []
        for start in range(0, 110, 10):
            for event in collector.collect_window(start, start + 10):
                assert start <= event.timestamp < start + 10
                seen.append(event.timestamp)
        assert seen == sorted(e.timestamp for e in events)

    def test_count_matches_sum_of_sources(self):
        import random
        rng = random.Random(7)
        sources = []
        total = 0
        for _ in range(5):
            n = rng.randrange(5, 40)
            total += n
            stamps = sorted(rng.randrange(0, 1000) for _ in range(n))
            sources.append([add_task(ts, f"s{id(stamps)}-{i}") for i, ts in enumerate(stamps)])
        collector = WindowCollector([iter(s) for s in sources])
        collected = sum(len(collector.collect_window(t, t + 100)) for t in range(0, 1100, 100))
        assert collected == total

    def test_late_event_reported_not_lost(self):
        # out of order: the t=30 event is read only after window [0, 60) is done
        events = [add_node(0, "n"), add_task(70, "a"), add_task(30, "late"),
                  add_task(100, "b")]
        sink = AnomalySink()
        collector = WindowCollector([iter(events)], sink)
        assert [e.timestamp for e in collector.collect_window(0, 60)] == [0]
        assert [e.timestamp for e in collector.collect_window(60, 120)] == [70, 100]
        assert sink.count(AnomalyKind.LATE_EVENT) == 1
        (report,) = sink.reports
        assert report.kind is AnomalyKind.LATE_EVENT
        assert "at 30 " in report.detail and "[60,120)" in report.detail

    def test_no_source_read_before_the_first_window(self):
        read = []

        def source():
            read.append(0)
            yield add_task(1, "t")

        collector = WindowCollector([source()])
        assert read == [] and not collector.exhausted
        assert len(collector.collect_window(0, 10)) == 1
        assert read == [0] and collector.exhausted

    def test_buffer_cap_still_collects_everything(self):
        events = [add_task(1, f"t{i}") for i in range(50)]
        collector = WindowCollector([iter(events)])
        assert len(collector.collect_window(0, 10)) == 50


class TestCellStateFold:
    def test_fold_basic_lifecycle(self):
        cell = CellState(CAT2)
        for event in [
            add_node(0, "n1", total=(1.0, 1.0)),
            add_task(1, "t1", required=(0.2, 0.3)),
            ev.UpdateTaskUsedEvent(2, "t1", (0.1, 0.1)),
        ]:
            cell.apply(event)
        assert list(cell.pending) == ["t1"]
        cell.place("t1", "n1")
        assert list(cell.pending) == []
        task = cell.tasks["t1"]
        assert task.used.tolist() == [0.1, 0.1]
        assert task.migration_cost_mb == lmdt_estimate(BUILTIN_PROFILES["apache"], memory_mb(0.1))
        cell.apply(ev.RemoveTaskEvent(3, "t1"))
        assert cell.tasks == {} and cell.placement == {}
        assert cell.conservation_holds()

    def test_fold_vectors_are_read_only(self):
        cell = CellState(CAT2)
        cell.apply(add_node(0, "n1"))
        cell.apply(add_task(0, "t1"))
        cell.apply(ev.UpdateTaskUsedEvent(1, "t1", (0.1, 0.1)))
        task = cell.tasks["t1"]
        for vector in (cell.nodes["n1"].total, task.required, task.used):
            with pytest.raises(ValueError):
                vector[0] = 0.5
        assert task.used.tolist() == [0.1, 0.1]

    def test_remove_node_requeues_tasks(self):
        cell = CellState(CAT2)
        cell.apply(add_node(0, "n1"))
        cell.apply(add_task(0, "t1"))
        cell.place("t1", "n1")
        cell.apply(ev.RemoveNodeEvent(1, "n1"))
        assert list(cell.pending) == ["t1"]
        assert cell.conservation_holds()

    def test_constraints_replace_wholesale(self):
        cell = CellState(CAT2)
        c1 = TaskConstraint(Op.EQUAL, "a", "1")
        c2 = TaskConstraint(Op.EQUAL, "b", "2")
        cell.apply(add_task(0, "t", constraints=(c1,)))
        cell.apply(ev.UpdateTaskConstraintsEvent(1, "t", (c2,)))
        assert cell.tasks["t"].constraints == (c2,)

    def test_snapshot_roundtrip_is_deterministic(self):
        config = SynthConfig(seed=11, node_count=5, task_arrival_rate=20.0,
                             duration_minutes=10.0)
        events = list(synth_generate(config))

        def fields(record):
            """Every field of a node or task, its vectors as lists."""
            return {name: value.tolist() if isinstance(value, np.ndarray) else value
                    for name, value in vars(record).items()}

        def run():
            cell = CellState(CAT2)
            for event in events:
                cell.apply(event)
                if cell.pending and isinstance(event, ev.AddTaskEvent) and event.recorded_node:
                    if event.recorded_node in cell.nodes:
                        cell.place(event.task_id, event.recorded_node)
            return ({node_id: fields(node) for node_id, node in cell.nodes.items()},
                    {task_id: fields(task) for task_id, task in cell.tasks.items()},
                    cell.placement, cell.pending)

        first, second = run(), run()
        assert first[2], "the fold placed no task; the comparison would be vacuous"
        assert first == second


NODE_IDS = ("n0", "n1", "n2")
TASK_IDS = ("t0", "t1", "t2", "t3", "t4")
#: place and the adds come more often, so tasks move between live nodes
FOLD_KINDS = ("add_node", "add_node", "remove_node", "node_total", "add_task", "add_task",
              "remove_task", "used", "required", "place", "place", "place")
#: (kind, index, index, vector, flag): adds take the first index into the id
#: pools above, so a live id may come again; every other step takes it into
#: the live ids, and place takes the second into the live nodes
FOLD_STEPS = st.tuples(st.sampled_from(FOLD_KINDS), st.integers(0, 15), st.integers(0, 15),
                       st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)), st.booleans())


def fold_step(cell, step):
    kind, index, other, vector, flag = step
    if kind == "add_node":
        cell.apply(add_node(0, NODE_IDS[index % len(NODE_IDS)], total=vector))
        return
    if kind == "add_task":
        cell.apply(add_task(0, TASK_IDS[index % len(TASK_IDS)], required=vector,
                            production=flag))
        return
    ids = sorted(cell.nodes if kind in ("remove_node", "node_total") else cell.tasks)
    if not ids:
        return
    target = ids[index % len(ids)]
    if kind == "remove_node":
        cell.apply(ev.RemoveNodeEvent(0, target))
    elif kind == "node_total":
        cell.apply(ev.UpdateNodeTotalEvent(0, target, vector))
    elif kind == "remove_task":
        cell.apply(ev.RemoveTaskEvent(0, target))
    elif kind == "used":
        cell.apply(ev.UpdateTaskUsedEvent(0, target, vector))
    elif kind == "required":
        cell.apply(ev.UpdateTaskRequiredEvent(0, target, vector))
    elif kind == "place":
        if cell.nodes:
            cell.place(target, sorted(cell.nodes)[other % len(cell.nodes)])


@settings(max_examples=200, deadline=None)
@given(st.lists(FOLD_STEPS, min_size=20, max_size=80))
def test_node_loads_match_recount(steps):
    """After every step the cell's per-node residents and sums equal a
    recount from the placement map, and every task is accounted for once."""
    cell = CellState(CAT2)
    for step in steps:
        fold_step(cell, step)
        assert_loads_match(cell)
        assert cell.conservation_holds()


class TestMigrationCost:
    def test_huge_usage_gets_a_finite_cost(self):
        # 100 nodes' worth of memory: e^(af * am) alone would overflow a float
        cell = CellState(CAT2)
        cell.apply(add_node(0, "n1"))
        cell.apply(add_task(0, "t1"))
        cell.place("t1", "n1")
        cell.apply(ev.UpdateTaskUsedEvent(1, "t1", (0.1, 0.2)))
        cost = cell.tasks["t1"].migration_cost_mb
        cell.apply(ev.UpdateTaskUsedEvent(2, "t1", (0.1, 100.0)))
        task = cell.tasks["t1"]
        assert task.used.tolist() == [0.1, 100.0]
        assert cell.nodes["n1"].used.tolist() == [0.1, 100.0]
        assert math.isfinite(task.migration_cost_mb)
        assert task.migration_cost_mb == pytest.approx(500 * cost)

    def test_profile_prices_every_task(self):
        cell = CellState(CAT2, BUILTIN_PROFILES["idle"])
        cell.apply(add_task(0, "t1"))
        assert cell.tasks["t1"].migration_cost_mb == 99.6
        cell.apply(ev.UpdateTaskUsedEvent(1, "t1", (0.1, 0.01)))
        assert cell.tasks["t1"].migration_cost_mb == 99.6

    def test_synthetic_and_written_trace_price_tasks_alike(self, tmp_path):
        config = SynthConfig(seed=3, node_count=10, task_arrival_rate=30.0,
                             duration_minutes=15.0, usage_interval_minutes=2.0,
                             usage_ramp_updates=3, constraint_rate=0.2)
        direct = CellState(CAT2)
        reported = set()
        for event in synth_generate(config):
            direct.apply(event)
            if isinstance(event, ev.UpdateTaskUsedEvent):
                reported.add(event.task_id)
        write_synthetic_trace(config, tmp_path / "trace")
        parsed = CellState(CAT2)
        streams = open_trace_directory(tmp_path / "trace", GCD_TIME_SHIFT_US)
        for event in sort_events(itertools.chain(*streams)):
            parsed.apply(event)
        started = {task_id: task.migration_cost_mb for task_id, task in direct.tasks.items()
                   if task_id in reported}
        assert len(started) > 20
        # the trace names a task "<job>-<index>", and the writer puts the id in the job
        assert {task_id: parsed.tasks[f"{task_id}-0"].migration_cost_mb
                for task_id in started} == pytest.approx(started, rel=1e-6)


class TestAnomalyFilter:
    def _cell_with_node(self, attrs):
        cell = CellState(CAT2)
        cell.apply(add_node(0, "n1", attrs=attrs))
        return cell

    def test_unmatchable_task_dropped_and_reported(self):
        cell = self._cell_with_node([("kernel", "abc")])
        bad = add_task(1, "bad", constraints=(TaskConstraint(Op.GREATER_THAN, "kernel", "10"),))
        good = add_task(2, "good")
        batch = EventBatch(0, 10, (bad, good))
        filtered, reports = filter_anomalies(cell, batch)
        assert [e.task_id for e in filtered] == ["good"]
        assert [r.kind for r in reports] == [AnomalyKind.UNMATCHABLE_CONSTRAINTS]

    def test_unmatchable_constraint_update_removes_its_task(self):
        cell = self._cell_with_node([("zone", "eu")])
        us = (TaskConstraint(Op.EQUAL, "zone", "us"),)
        eu = (TaskConstraint(Op.EQUAL, "zone", "eu"),)
        batch = EventBatch(0, 10, (
            add_task(1, "t"),
            ev.UpdateTaskConstraintsEvent(1, "t", us),
            ev.UpdateTaskConstraintsEvent(2, "u", eu),
        ))
        filtered, reports = filter_anomalies(cell, batch)
        assert list(filtered) == [batch.events[0], ev.RemoveTaskEvent(1, "t"), batch.events[2]]
        assert [(r.kind, r.detail) for r in reports] == [
            (AnomalyKind.UNMATCHABLE_CONSTRAINTS, "task t matches no node; removed")]

    def test_node_events_never_dropped(self):
        cell = self._cell_with_node([])
        batch = EventBatch(0, 10, (add_node(1, "n2"), ev.RemoveNodeEvent(2, "n1")))
        filtered, _ = filter_anomalies(cell, batch)
        assert len(filtered) == 2

    def test_over_usage_flagged_not_dropped(self):
        cell = self._cell_with_node([])
        cell.apply(add_task(0, "t", required=(0.5, 2.0)))
        cell.apply(ev.UpdateTaskUsedEvent(1, "t", (0.5, 1.3)))
        batch = EventBatch(0, 10, (add_task(3, "t2"),))
        filtered, reports = filter_anomalies(cell, batch)
        assert len(filtered) == 1
        assert any(r.kind is AnomalyKind.OVER_USAGE_WINDOW for r in reports)

    def test_clean_batch_untouched(self):
        cell = self._cell_with_node([])
        batch = EventBatch(0, 10, (add_task(1, "t"),))
        filtered, reports = filter_anomalies(cell, batch)
        assert list(filtered) == list(batch)
        assert reports == []

    def test_constrained_tasks_see_the_batch_node_events_before_them(self):
        cell = self._cell_with_node([("zone", "eu")])
        eu = (TaskConstraint(Op.EQUAL, "zone", "eu"),)
        us = (TaskConstraint(Op.EQUAL, "zone", "us"),)
        gpu = (TaskConstraint(Op.EQUAL, "gpu", "yes"),)
        batch = EventBatch(0, 10, (
            add_task(1, "us-early", constraints=us),     # before its node: dropped
            add_node(2, "n2", attrs=[("zone", "us")]),
            add_task(2, "us-late", constraints=us),
            ev.AddNodeAttributesEvent(3, "n1", (("gpu", "yes"),)),
            add_task(3, "gpu", constraints=gpu),
            ev.RemoveNodeAttributesEvent(4, "n1", ("zone",)),
            add_task(4, "eu-late", constraints=eu),      # attribute gone: dropped
            ev.RemoveNodeEvent(5, "n2"),
            add_task(5, "us-gone", constraints=us),      # node gone: dropped
        ))
        filtered, reports = filter_anomalies(cell, batch)
        kept = [e.task_id for e in filtered if isinstance(e, ev.AddTaskEvent)]
        assert kept == ["us-late", "gpu"]
        assert len(filtered) == len(batch) - 3
        assert [r.detail.split()[1] for r in reports] == ["us-early", "eu-late", "us-gone"]
        assert cell.nodes["n1"].attributes == {"zone": "eu"}  # the cell is not written

    def test_first_window_constrained_tasks_kept(self):
        # a synthetic stream adds its nodes at t=0, in the first window
        config = SynthConfig(seed=3, node_count=4, task_arrival_rate=60.0,
                             duration_minutes=2.0, constraint_rate=0.5)
        events = [e for e in synth_generate(config) if e.timestamp < 60_000_000]
        constrained = [e for e in events if isinstance(e, ev.AddTaskEvent) and e.constraints]
        assert constrained
        filtered, reports = filter_anomalies(CellState(CAT2), EventBatch(0, 60_000_000, events))
        assert reports == [] and list(filtered) == events


class TestSynthGenerator:
    def test_same_seed_identical_streams(self):
        config = SynthConfig(seed=99, node_count=4, task_arrival_rate=30.0, duration_minutes=20.0)
        assert list(synth_generate(config)) == list(synth_generate(config))

    def test_different_seed_differs(self):
        a = SynthConfig(seed=1, node_count=4, task_arrival_rate=30.0, duration_minutes=20.0)
        b = SynthConfig(seed=2, node_count=4, task_arrival_rate=30.0, duration_minutes=20.0)
        assert list(synth_generate(a)) != list(synth_generate(b))

    def test_rate_zero_only_node_events(self):
        config = SynthConfig(seed=5, node_count=3, task_arrival_rate=0.0, duration_minutes=10.0)
        events = list(synth_generate(config))
        assert len(events) == 3
        assert all(e.kind is ev.EventKind.ADD_NODE for e in events)

    def test_batch_service_mix_near_configured(self):
        config = SynthConfig(seed=123, node_count=50, task_arrival_rate=1000.0 / 60.0,
                             duration_minutes=60.0, batch_fraction=0.8)
        events = list(synth_generate(config))
        adds = [e for e in events if isinstance(e, ev.AddTaskEvent)]
        removed = {e.task_id for e in events if isinstance(e, ev.RemoveTaskEvent)}
        assert len(adds) > 800
        # Batch tasks run at most 20 minutes, services at least 120: among
        # tasks arriving in the first 40 minutes every batch task terminates
        # in-window and no service does, so the removal rate is the mix.
        early = [e for e in adds if e.timestamp < 40 * MIN_US]
        ratio = sum(1 for e in early if e.task_id in removed) / len(early)
        assert ratio == pytest.approx(0.8, abs=0.05)

    @pytest.mark.parametrize("constraint_rate", [0.0, 0.3])
    def test_recorded_placements_respect_capacity(self, constraint_rate):
        """First-fit placements hold a task's requirement until the task
        ends, so replaying them never loads a node past its capacity."""
        config = SynthConfig(seed=1, node_count=10, task_arrival_rate=40.0,
                             duration_minutes=60.0, constraint_rate=constraint_rate)
        load = {}
        placed = {}
        for event in synth_generate(config):
            if isinstance(event, ev.AddTaskEvent) and event.recorded_node is not None:
                placed[event.task_id] = (event.recorded_node, event.required)
                node = load.setdefault(event.recorded_node, [0.0, 0.0])
                for i, value in enumerate(event.required):
                    node[i] += value
                    # a sum of released and re-taken shares may round past
                    # the capacity in the last bits, never by a task's worth
                    assert node[i] <= config.node_capacity[i] + 1e-9, event
            elif isinstance(event, ev.RemoveTaskEvent) and event.task_id in placed:
                node_id, required = placed.pop(event.task_id)
                for i, value in enumerate(required):
                    load[node_id][i] -= value
        assert len(load) == config.node_count

    @pytest.mark.parametrize("config", [
        # recorded first-fit placements with constraints
        SynthConfig(seed=1, node_count=10, task_arrival_rate=40.0, duration_minutes=60.0,
                    constraint_rate=0.3),
        # an arrival window and a usage ramp above 1
        SynthConfig(seed=2, node_count=20, task_arrival_rate=100.0, duration_minutes=30.0,
                    arrival_window_minutes=5.0, usage_ramp_updates=4),
        SynthConfig(seed=3, node_count=5, task_arrival_rate=0.0, duration_minutes=10.0),
        # the burst cell's shape at a tenth of its rate
        SynthConfig(seed=4, node_count=200, task_arrival_rate=1000.0, duration_minutes=60.0,
                    arrival_window_minutes=10.0, batch_fraction=0.8, usage_ratio=(0.6, 1.0),
                    service_required=(0.1, 0.3), batch_required=(0.005, 0.04),
                    record_placements=False),
    ], ids=["placements", "window-ramp", "rate-zero", "burst"])
    def test_lazy_stream_equals_eager_oracle(self, config):
        assert list(synth_generate(config)) == eager_synth_events(config)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_lazy_stream_equals_eager_oracle_on_random_configs(self, data):
        """Horizons of microseconds (arrivals that share a microsecond,
        1-µs usage intervals, tasks of zero drawn length) and of minutes,
        with ramps, arrival windows, constraints and recorded placements."""
        horizon_us = data.draw(st.one_of(st.integers(1, 200), st.integers(MIN_US, 30 * MIN_US)))
        tasks = data.draw(st.integers(0, 60))
        # at most 200 reports per task, 1 µs apart on the shortest horizons
        interval_us = max(1, horizon_us // data.draw(st.sampled_from([3, 10, 200])))

        def minutes(us):
            # a whole number of microseconds, whatever the float rounding
            return (us + 0.5) / MIN_US

        def durations():
            lo = data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
            hi = lo + data.draw(st.sampled_from([0.0, 0.2, 1.5]))
            return (lo * horizon_us / MIN_US, hi * horizon_us / MIN_US)

        window = data.draw(st.sampled_from([None, 0.0, 0.3, 1.0, 2.0]))
        config = SynthConfig(
            seed=data.draw(st.integers(0, 2**32 - 1)),
            node_count=data.draw(st.integers(1, 6)),
            task_arrival_rate=tasks / (horizon_us / MIN_US),
            duration_minutes=minutes(horizon_us),
            arrival_window_minutes=None if window is None else window * horizon_us / MIN_US,
            batch_fraction=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
            batch_duration_min=durations(),
            service_duration_min=durations(),
            usage_interval_minutes=minutes(interval_us),
            usage_ramp_updates=data.draw(st.integers(0, 4)),
            constraint_rate=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
            attribute_groups=data.draw(st.integers(0, 3)),
            record_placements=data.draw(st.booleans()),
        )
        assert list(synth_generate(config)) == eager_synth_events(config)

    def test_zero_length_tasks_end(self):
        """A task whose drawn duration rounds to 0 µs still lasts 1 µs: its
        removal sorts after its AddTask, so the cell ends empty."""
        config = SynthConfig(seed=5, node_count=4, task_arrival_rate=50.0, duration_minutes=10.0,
                             batch_fraction=1.0, batch_duration_min=(0.0, 0.0))
        cell = CellState(CAT2)
        adds = 0
        for event in synth_generate(config):
            adds += isinstance(event, ev.AddTaskEvent)
            cell.apply(event)
        assert adds > 400
        assert cell.tasks == {} and not cell.pending

    def test_first_minutes_build_one_follow_up_per_task(self, monkeypatch):
        """Reading the first 2 minutes of the burst cell builds at most one
        usage report per task built: later follow-ups wait for their turn."""
        config = SynthConfig(seed=101, node_count=10_000, task_arrival_rate=10_000.0,
                             arrival_window_minutes=10.0, duration_minutes=60.0,
                             batch_fraction=0.8, usage_ratio=(0.6, 1.0),
                             usage_interval_minutes=5.0, service_required=(0.1, 0.3),
                             batch_required=(0.005, 0.04), record_placements=False)
        built = {"AddTaskEvent": 0, "UpdateTaskUsedEvent": 0}
        for name in built:
            real = getattr(ev, name)

            def counting(real=real, name=name, **fields):
                built[name] += 1
                return real(**fields)

            monkeypatch.setattr(ev, name, counting)
        for event in synth_generate(config):
            if event.timestamp >= 2 * MIN_US:
                break
        assert built["AddTaskEvent"] > 19_000
        assert built["UpdateTaskUsedEvent"] <= built["AddTaskEvent"]

    def test_first_minute_builds_only_its_tasks(self, monkeypatch):
        """Reading the first minute of a 10k-arrivals-a-minute stream builds
        no task arriving after the first arrival at or after 60 s."""
        config = SynthConfig(seed=8, node_count=10, task_arrival_rate=10_000.0,
                             duration_minutes=60.0, arrival_window_minutes=10.0,
                             record_placements=False)
        first_late = next(e.timestamp for e in synth_generate(config)
                          if isinstance(e, ev.AddTaskEvent) and e.timestamp >= MIN_US)
        built = []
        real = ev.AddTaskEvent

        def recording(**fields):
            built.append(fields["timestamp"])
            return real(**fields)

        monkeypatch.setattr(ev, "AddTaskEvent", recording)
        for event in synth_generate(config):
            if event.timestamp >= MIN_US:
                break
        assert len(built) > 9000
        assert max(built) <= first_late

    def test_timestamps_non_decreasing(self):
        config = SynthConfig(seed=77, node_count=5, task_arrival_rate=50.0, duration_minutes=15.0)
        stamps = [e.timestamp for e in synth_generate(config)]
        assert all(a <= b for a, b in zip(stamps, stamps[1:]))

    def test_config_file_roundtrip(self, tmp_path):
        config = SynthConfig(seed=3, node_count=7)
        path = tmp_path / "synth.json"
        write_synth_config(config, path)
        assert SynthConfig.from_file(path) == config

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(seed=1, node_count=0).validate()
        with pytest.raises(ValueError):
            SynthConfig(seed=1, batch_fraction=1.5).validate()

    @pytest.mark.parametrize("minutes", [0.0, -5.0, 1e-9])
    def test_usage_interval_under_a_microsecond_rejected(self, minutes):
        # a zero interval would report usage at the same instant for ever
        with pytest.raises(ValueError, match="usage_interval_minutes"):
            SynthConfig(seed=1, usage_interval_minutes=minutes).validate()
        SynthConfig(seed=1, usage_interval_minutes=2e-8).validate()  # 1.2 µs
