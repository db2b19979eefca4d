"""Trace parser behavior on hand-authored CSV fixtures."""

import gzip
from pathlib import Path

import pytest

from cellsim.workload import AnomalyKind, AnomalySink, ConstraintOperator as Op
from cellsim.workload import events as ev
from cellsim.workload.parsers import (
    COLUMNS,
    GCD_TIME_SHIFT_US,
    MachineAttributesParser,
    MachineEventsParser,
    PARSER_CLASSES,
    Row,
    TaskConstraintsParser,
    TaskEventsParser,
    TaskUsageParser,
    map_task_action,
    open_trace_directory,
)

NO_SHIFT = 0


def write_csv(path: Path, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    return path


class TestMachineEvents:
    def test_add_remove_update(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", [
            [0, "m1", 0, "p", 0.5, 0.5],
            [100, "m1", 2, "p", 0.5, 0.25],
            [200, "m1", 1, "p", "", ""],
        ])
        events = list(MachineEventsParser([path], NO_SHIFT))
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
        events = list(MachineEventsParser([path], NO_SHIFT, sink))
        assert len(events) == 1
        assert sink.count(AnomalyKind.CORRUPT_RECORD) == 2

    def test_gzip_supported(self, tmp_path):
        path = tmp_path / "machine_events" / "part-00000-of-00001.csv.gz"
        path.parent.mkdir(parents=True)
        with gzip.open(path, "wt") as fh:
            fh.write("0,m1,0,p,1.0,1.0\n")
        events = list(MachineEventsParser([path], NO_SHIFT))
        assert len(events) == 1

    def test_time_shift_applied_and_clamped(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", [
            [0, "m1", 0, "p", 1, 1],
            [700_000_000, "m2", 0, "p", 1, 1],
        ])
        events = list(MachineEventsParser([path], GCD_TIME_SHIFT_US))
        assert [e.timestamp for e in events] == [0, 100_000_000]


class TestTaskEvents:
    def _row(self, values):
        layout = COLUMNS["task_events"]
        padded = [""] * 11
        for name, value in values.items():
            padded[layout[name]] = str(value)
        return Row(padded, layout)

    def test_submit_maps_to_add(self):
        row = self._row({"timestamp": 5, "job_id": 10, "task_index": 3,
                         "event_type": 0, "priority": 11, "cpu_request": 0.25,
                         "memory_request": 0.125})
        event = map_task_action("SUBMIT", row, AnomalySink(), 5)
        assert isinstance(event, ev.AddTaskEvent)
        assert event.task_id == "10-3"
        assert event.required == (0.25, 0.125)
        assert event.production is True  # priority 11 >= production band

    def test_schedule_generates_nothing(self):
        row = self._row({"timestamp": 5, "job_id": 1, "task_index": 0, "event_type": 1})
        assert map_task_action("SCHEDULE", row, AnomalySink(), 5) is None

    @pytest.mark.parametrize("action", ["EVICT", "FAIL", "FINISH", "KILL", "LOST"])
    def test_terminal_actions_remove(self, action):
        row = self._row({"timestamp": 5, "job_id": 1, "task_index": 0})
        event = map_task_action(action, row, AnomalySink(), 5)
        assert isinstance(event, ev.RemoveTaskEvent)
        assert event.task_id == "1-0"

    @pytest.mark.parametrize("action", ["UPDATE_PENDING", "UPDATE_RUNNING"])
    def test_updates_refresh_required(self, action):
        row = self._row({"timestamp": 5, "job_id": 1, "task_index": 0,
                         "cpu_request": 0.5, "memory_request": 0.5})
        event = map_task_action(action, row, AnomalySink(), 5)
        assert isinstance(event, ev.UpdateTaskRequiredEvent)

    def test_unknown_action_reported(self):
        sink = AnomalySink()
        row = self._row({"timestamp": 5, "job_id": 1, "task_index": 0})
        assert map_task_action("EXPLODE", row, sink, 5) is None
        assert sink.count(AnomalyKind.CORRUPT_RECORD) == 1

    def test_file_parse_emits_in_order(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [
            [0, "", 1, 0, "", 0, "", 2, 2, 0.1, 0.2, "", ""],
            [50, "", 1, 0, "m7", 1, "", 2, 2, "", "", "", ""],
            [900, "", 1, 0, "m7", 4, "", 2, 2, "", "", "", ""],
        ])
        events = list(TaskEventsParser([path], NO_SHIFT))
        assert [type(e) for e in events] == [ev.AddTaskEvent, ev.RemoveTaskEvent]
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(stamps)


class TestTaskUsage:
    def test_usage_event(self, tmp_path):
        path = write_csv(tmp_path / "u.csv", [
            [0, 300_000_000, 42, 7, "m1", 0.03, 0.01, 0.02],
        ])
        events = list(TaskUsageParser([path], NO_SHIFT))
        assert len(events) == 1
        event = events[0]
        assert isinstance(event, ev.UpdateTaskUsedEvent)
        assert event.task_id == "42-7"
        assert event.used == (0.03, 0.02)
        assert event.canonical_memory == 0.01


class TestTaskConstraints:
    def test_rows_grouped_into_one_replace(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [
            [10, 1, 0, 0, "attr_a", "x"],
            [10, 1, 0, 3, "attr_b", "5"],
            [20, 1, 0, 1, "attr_a", "y"],
        ])
        events = list(TaskConstraintsParser([path], NO_SHIFT))
        assert len(events) == 2
        first, second = events
        assert [c.operator for c in first.constraints] == [Op.EQUAL, Op.GREATER_THAN]
        assert [c.operator for c in second.constraints] == [Op.NOT_EQUAL]

    def test_non_numeric_value_under_numeric_operator_is_corrupt(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [
            [10, 1, 0, 2, "attr_a", "oops"],
        ])
        sink = AnomalySink()
        events = list(TaskConstraintsParser([path], NO_SHIFT, sink))
        assert events == []
        assert sink.count(AnomalyKind.CORRUPT_RECORD) == 1


class TestMachineAttributes:
    def test_add_and_delete(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [
            [0, "m1", "kernel", "3.1", ""],
            [10, "m1", "kernel", "", 1],
        ])
        events = list(MachineAttributesParser([path], NO_SHIFT))
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
        parsers = open_trace_directory(tmp_path, NO_SHIFT)
        assert len(parsers) == 2
        counts = {p.kind: len(list(p)) for p in parsers}
        assert counts == {"machine_events": 1, "task_events": 2}

    def test_parse_trace_file_dispatch(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", [[0, "m1", 0, "p", 1, 1]])
        events = list(PARSER_CLASSES["machine_events"]([path], NO_SHIFT))
        assert len(events) == 1
        assert "job_events" not in PARSER_CLASSES
        with pytest.raises(KeyError):
            PARSER_CLASSES["nonsense"]
