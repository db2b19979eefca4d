"""Trace parser behavior on hand-authored CSV fixtures."""

import dataclasses
import gzip
from pathlib import Path

import pytest

from cellsim.harness.cli import main as cli_main
from cellsim.harness.config import RunConfig
from cellsim.harness.runner import SimulationRunner
from cellsim.harness.tracewriter import write_synthetic_trace
from cellsim.workload import AnomalyKind, AnomalySink, ConstraintOperator as Op
from cellsim.workload import SynthConfig, synth_generate
from cellsim.workload import events as ev
from cellsim.workload import parsers
from cellsim.workload.parsers import (
    GCD_TIME_SHIFT_US,
    LAYOUT,
    ROW_EVENTS,
    open_trace_directory,
    parse_table,
)

NO_SHIFT = 0


def write_csv(path: Path, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    return path


def parse(kind, paths, offset=NO_SHIFT, sink=None):
    return list(parse_table(kind, paths, offset, sink if sink is not None else AnomalySink()))


def corrupt_details(sink):
    return [r.detail for r in sink.reports if r.kind is AnomalyKind.CORRUPT_RECORD]


class TestMachineEvents:
    def test_add_remove_update(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", [
            [0, "m1", 0, "p", 0.5, 0.5],
            [100, "m1", 2, "p", 0.5, 0.25],
            [200, "m1", 1, "p", "", ""],
        ])
        events = parse("machine_events", [path])
        assert [e.kind for e in events] == [
            ev.EventKind.ADD_NODE, ev.EventKind.UPDATE_NODE_TOTAL, ev.EventKind.REMOVE_NODE,
        ]
        assert events[0].total == (0.5, 0.5)
        assert events[1].total == (0.5, 0.25)

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", [
            [0, "m1", 0, "p", 0.5, 0.5],
            ["junk", "m2", 0, "p", 0.5, 0.5],
            [10, "m3", 99, "p", 0.5, 0.5],
        ])
        sink = AnomalySink()
        events = parse("machine_events", [path], sink=sink)
        assert len(events) == 1
        assert sink.count(AnomalyKind.CORRUPT_RECORD) == 2
        assert corrupt_details(sink) == [
            "machine_events: invalid literal for int() with base 10: 'junk'",
            "machine_events: unknown machine event code 99",
        ]

    @pytest.mark.parametrize("cpus", ["nan", "inf", "-0.5"])
    def test_capacity_that_is_no_finite_non_negative_number_is_corrupt(self, tmp_path, cpus):
        path = write_csv(tmp_path / "m.csv", [
            [0, "m1", 0, "p", cpus, 0.5],
            [0, "m2", 0, "p", 0.5, 0.5],
        ])
        sink = AnomalySink()
        assert [e.node_id for e in parse("machine_events", [path], sink=sink)] == ["m2"]
        assert corrupt_details(sink) == [
            f"machine_events: field 'cpus' is not a finite non-negative number: '{cpus}'"]

    def test_gzip_supported(self, tmp_path):
        path = tmp_path / "machine_events" / "part-00000-of-00001.csv.gz"
        path.parent.mkdir(parents=True)
        with gzip.open(path, "wt") as fh:
            fh.write("0,m1,0,p,1.0,1.0\n")
        events = parse("machine_events", [path])
        assert len(events) == 1

    def test_time_shift_applied_and_clamped(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", [
            [0, "m1", 0, "p", 1, 1],
            [700_000_000, "m2", 0, "p", 1, 1],
        ])
        events = parse("machine_events", [path], GCD_TIME_SHIFT_US)
        assert [e.timestamp for e in events] == [0, 100_000_000]


class TestTaskEvents:
    def _events(self, tmp_path, values, sink=None):
        """The events of one task_events row whose fields are named."""
        row = [values.get(name, "") for name in LAYOUT["task_events"]]
        return parse("task_events", [write_csv(tmp_path / "t.csv", [row])], sink=sink)

    def test_submit_maps_to_add(self, tmp_path):
        [event] = self._events(tmp_path, {
            "timestamp": 5, "job_id": 10, "task_index": 3, "event_type": 0, "priority": 11,
            "cpu_request": 0.25, "memory_request": 0.125})
        assert isinstance(event, ev.AddTaskEvent)
        assert event.task_id == "10-3"
        assert event.required == (0.25, 0.125)
        assert event.production is True  # priority 11 >= production band

    def test_negative_request_is_corrupt(self, tmp_path):
        sink = AnomalySink()
        assert self._events(tmp_path, {
            "timestamp": 5, "job_id": 10, "task_index": 3, "event_type": 0,
            "cpu_request": 0.25, "memory_request": -0.125}, sink) == []
        assert corrupt_details(sink) == [
            "task_events: field 'memory_request' is not a finite non-negative number: '-0.125'"]

    def test_schedule_generates_nothing(self, tmp_path):
        sink = AnomalySink()
        assert self._events(tmp_path, {"timestamp": 5, "job_id": 1, "task_index": 0,
                                       "event_type": parsers.TASK_SCHEDULE}, sink) == []
        assert sink.reports == []

    @pytest.mark.parametrize("action", ["EVICT", "FAIL", "FINISH", "KILL", "LOST"])
    def test_terminal_actions_remove(self, tmp_path, action):
        [event] = self._events(tmp_path, {"timestamp": 5, "job_id": 1, "task_index": 0,
                                          "event_type": getattr(parsers, f"TASK_{action}")})
        assert isinstance(event, ev.RemoveTaskEvent)
        assert event.task_id == "1-0"

    @pytest.mark.parametrize("action", ["UPDATE_PENDING", "UPDATE_RUNNING"])
    def test_updates_refresh_required(self, tmp_path, action):
        [event] = self._events(tmp_path, {"timestamp": 5, "job_id": 1, "task_index": 0,
                                          "event_type": getattr(parsers, f"TASK_{action}"),
                                          "cpu_request": 0.5, "memory_request": 0.5})
        assert isinstance(event, ev.UpdateTaskRequiredEvent)
        assert event.required == (0.5, 0.5)

    def test_unknown_code_reported(self, tmp_path):
        sink = AnomalySink()
        assert self._events(tmp_path, {"timestamp": 5, "job_id": 1, "task_index": 0,
                                       "event_type": 9}, sink) == []
        assert corrupt_details(sink) == ["unknown task event code 9"]

    def test_file_parse_emits_in_order(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [
            [0, "", 1, 0, "", 0, "", 2, 2, 0.1, 0.2, "", ""],
            [50, "", 1, 0, "m7", 1, "", 2, 2, "", "", "", ""],
            [900, "", 1, 0, "m7", 4, "", 2, 2, "", "", "", ""],
        ])
        events = parse("task_events", [path])
        assert [type(e) for e in events] == [ev.AddTaskEvent, ev.RemoveTaskEvent]
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(stamps)


class TestTaskUsage:
    def test_usage_event(self, tmp_path):
        path = write_csv(tmp_path / "u.csv", [
            [0, 300_000_000, 42, 7, "m1", 0.03, 0.01, 0.02],
        ])
        events = parse("task_usage", [path])
        assert len(events) == 1
        event = events[0]
        assert isinstance(event, ev.UpdateTaskUsedEvent)
        assert event.task_id == "42-7"
        assert event.used == (0.03, 0.02)
        assert event.canonical_memory == 0.01


class TestTaskConstraints:
    def test_rows_grouped_into_one_replace(self, tmp_path):
        write_csv(tmp_path / "task_constraints" / "part-00000-of-00001.csv", [
            [10, 1, 0, 0, "attr_a", "x"],
            [10, 1, 0, 3, "attr_b", "5"],
            [20, 1, 0, 1, "attr_a", "y"],
        ])
        [stream] = open_trace_directory(tmp_path, NO_SHIFT)
        events = list(stream)
        assert len(events) == 2
        first, second = events
        assert [c.operator for c in first.constraints] == [Op.EQUAL, Op.GREATER_THAN]
        assert [c.operator for c in second.constraints] == [Op.NOT_EQUAL]

    def test_non_numeric_value_under_numeric_operator_is_corrupt(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [
            [10, 1, 0, 2, "attr_a", "oops"],
        ])
        sink = AnomalySink()
        events = parse("task_constraints", [path], sink=sink)
        assert events == []
        assert sink.count(AnomalyKind.CORRUPT_RECORD) == 1


class TestMachineAttributes:
    def test_add_and_delete(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [
            [0, "m1", "kernel", "3.1", ""],
            [10, "m1", "kernel", "", 1],
        ])
        events = parse("machine_attributes", [path])
        assert isinstance(events[0], ev.AddNodeAttributesEvent)
        assert events[0].attributes == (("kernel", "3.1"),)
        assert isinstance(events[1], ev.RemoveNodeAttributesEvent)
        assert events[1].attribute_names == ("kernel",)


class TestDirectoryLayout:
    def test_open_trace_directory_finds_all_kinds(self, tmp_path):
        write_csv(tmp_path / "machine_events" / "part-00000-of-00001.csv",
                  [[0, "m1", 0, "p", 1, 1]])
        write_csv(tmp_path / "task_events" / "part-00000-of-00002.csv",
                  [[0, "", 1, 0, "", 0, "", 2, 2, 0.1, 0.1, "", ""]])
        write_csv(tmp_path / "task_events" / "part-00001-of-00002.csv",
                  [[10, "", 2, 0, "", 0, "", 2, 2, 0.1, 0.1, "", ""]])
        # job_events carries no per-task state and is not read
        write_csv(tmp_path / "job_events" / "part-00000-of-00001.csv",
                  [[0, "", 1, 0, "user", 2]])
        streams = open_trace_directory(tmp_path, NO_SHIFT)
        assert [[type(e) for e in stream] for stream in streams] == [
            [ev.AddNodeEvent], [ev.AddTaskEvent, ev.AddTaskEvent]]

    def test_parse_trace_file_dispatch(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", [[0, "m1", 0, "p", 1, 1]])
        assert len(parse("machine_events", [path])) == 1
        assert "job_events" not in ROW_EVENTS
        with pytest.raises(KeyError):
            parse("nonsense", [path])


#: Machine rows that parse, a part's worth before its fault.
GOOD_ROWS = "".join(f"{i},m{i},0,p,1,1\n" for i in range(3000)).encode()


def unreadable_part(directory: Path, case: str) -> Path:
    """A machine_events part that cannot be read to its end."""
    if case == "not-utf8":
        path, data = directory / "part-00000-of-00002.csv", GOOD_ROWS + b"9,m\xff,0,p,1,1\n"
    elif case == "truncated-gzip":
        packed = gzip.compress(GOOD_ROWS)
        path, data = directory / "part-00000-of-00002.csv.gz", packed[:len(packed) // 2]
    elif case == "long-field":
        path = directory / "part-00000-of-00002.csv"
        data = b"0,m0,0,p,1,1\n9," + b"x" * 131_073 + b",0,p,1,1\n"
    else:  # not-gzip
        path, data = directory / "part-00000-of-00002.csv.gz", GOOD_ROWS
    directory.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


UNREADABLE_CASES = ["not-utf8", "truncated-gzip", "long-field", "not-gzip"]


@pytest.mark.parametrize("case", UNREADABLE_CASES)
def test_unreadable_part_is_reported_and_skipped(tmp_path, case):
    # the events read before the fault are kept, the fault is one report
    # naming the part and the rows read, and the next part is read
    bad = unreadable_part(tmp_path, case)
    good = write_csv(tmp_path / "part-00001-of-00002.csv", [[5, "last", 0, "p", 1, 1]])
    sink = AnomalySink()
    events = parse("machine_events", [bad, good], sink=sink)
    assert events[-1].node_id == "last"
    kept = events[:-1]
    assert [e.node_id for e in kept] == [f"m{i}" for i in range(len(kept))]
    [detail] = corrupt_details(sink)
    assert detail.startswith(f"machine_events: cannot read {bad} after {len(kept)} rows: ")
    if case in ("not-utf8", "truncated-gzip"):
        assert kept  # the fault lies past the first read
    if case == "long-field":
        assert len(kept) == 1
    if case == "not-gzip":
        assert kept == []


@pytest.mark.parametrize("case", UNREADABLE_CASES)
def test_run_over_an_unreadable_part_exits_0(tmp_path, case):
    trace_dir = tmp_path / "trace"
    write_synthetic_trace(SynthConfig(seed=1, node_count=4, duration_minutes=5.0), trace_dir)
    bad = unreadable_part(trace_dir / "machine_events", case)
    out = tmp_path / "out"
    assert cli_main(["run", "--mode", "replay", "--seed", "1", "--trace-dir", str(trace_dir),
                     "--out", str(out), "--ticks", "3", "--usage-dump-every", "0"]) == 0
    lines = (out / "logs" / "run-error.log").read_text().splitlines()
    corrupt = [line for line in lines if line.startswith(AnomalyKind.CORRUPT_RECORD.value + "\t")]
    assert len(corrupt) == 1 and f"cannot read {bad} after " in corrupt[0]


def test_machine_with_nan_capacity_is_left_out_of_the_cell(tmp_path):
    """A NaN capacity is one CorruptRecord; the centralized balancer places
    the tasks on the other three nodes (a NaN total would have made every
    assignment unstable, so nothing would have been placed)."""
    trace_dir = tmp_path / "trace"
    write_synthetic_trace(SynthConfig(seed=1, node_count=4, task_arrival_rate=10.0,
                                      duration_minutes=10.0), trace_dir)
    [part] = (trace_dir / "machine_events").glob("part-*")
    rows = part.read_text().splitlines()
    cells = rows[0].split(",")
    cells[LAYOUT["machine_events"].index("cpus")] = "nan"
    part.write_text("\n".join([",".join(cells), *rows[1:]]) + "\n")
    out = tmp_path / "out"
    runner = SimulationRunner(RunConfig(mode="metaheuristic", seed=1, output_dir=out,
                                        trace_dir=trace_dir, ticks=5, usage_dump_every=0))
    assert runner.run() == 0
    assert (out / "logs" / "run-error.log").read_text().splitlines() == [
        f"{AnomalyKind.CORRUPT_RECORD.value}\t1\tmachine_events: field 'cpus' is not a "
        f"finite non-negative number: 'nan'"]
    cell = runner.cell
    assert sorted(cell.nodes) == ["n00001", "n00002", "n00003"]
    assert cell.placement and not cell.pending
    assert set(cell.placement.values()) <= set(cell.nodes)


def expected_tables(config):
    """``synth_generate``'s stream as the written trace reads back, per
    table: ids get the task index, totals and requirements keep 6 decimals,
    and attributes and constraints come in their own tables."""
    def rounded(vector):
        return tuple(round(v, 6) for v in vector)

    tables = {kind: [] for kind in ROW_EVENTS}
    for event in synth_generate(config):
        if isinstance(event, ev.AddNodeEvent):
            tables["machine_events"].append(
                dataclasses.replace(event, total=rounded(event.total), attributes=()))
            tables["machine_attributes"].extend(
                ev.AddNodeAttributesEvent(event.timestamp, event.node_id, (attribute,))
                for attribute in event.attributes)
        elif isinstance(event, ev.UpdateNodeTotalEvent):
            tables["machine_events"].append(dataclasses.replace(event, total=rounded(event.total)))
        elif isinstance(event, ev.RemoveNodeEvent):
            tables["machine_events"].append(event)
        elif isinstance(event, ev.AddTaskEvent):
            task_id = f"{event.task_id}-0"
            tables["task_events"].append(dataclasses.replace(
                event, task_id=task_id, required=rounded(event.required), constraints=()))
            if event.constraints:
                tables["task_constraints"].append(
                    ev.UpdateTaskConstraintsEvent(event.timestamp, task_id, event.constraints))
        else:
            table = "task_usage" if isinstance(event, ev.UpdateTaskUsedEvent) else "task_events"
            tables[table].append(dataclasses.replace(event, task_id=f"{event.task_id}-0"))
    return tables


ROUND_TRIP_CONFIGS = {
    "constraints": SynthConfig(seed=3, node_count=12, task_arrival_rate=30.0,
                               duration_minutes=15.0, usage_interval_minutes=2.0,
                               usage_ramp_updates=3, constraint_rate=0.4),
    "service-heavy": SynthConfig(seed=5, node_count=20, task_arrival_rate=20.0,
                                 duration_minutes=20.0, batch_fraction=0.2,
                                 production_fraction=0.6, constraint_rate=0.1),
    "churn": SynthConfig(seed=8, node_count=8, task_arrival_rate=30.0, duration_minutes=20.0,
                         batch_fraction=0.9, batch_duration_min=(0.5, 2.0),
                         usage_ratio=(0.8, 1.1), constraint_rate=0.2, attribute_groups=2),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CONFIGS))
def test_written_trace_reads_back_as_generated(tmp_path, name):
    config = ROUND_TRIP_CONFIGS[name]
    write_synthetic_trace(config, tmp_path)
    sink = AnomalySink()
    streams = open_trace_directory(tmp_path, GCD_TIME_SHIFT_US, sink)
    parsed = {kind: list(stream) for kind, stream in zip(ROW_EVENTS, streams)}
    expected = expected_tables(config)
    assert parsed == expected
    assert sink.reports == []
    assert expected["task_constraints"]
    assert any(event.recorded_node for event in expected["task_events"]
               if isinstance(event, ev.AddTaskEvent))
