"""Write a synthetic workload as a trace directory in the standard six-group
CSV layout, so the regular file parsers can replay it.

Timestamps are written with the conventional ten-minute lead applied, which
a run with the trace time shift (the default) strips back off.  Usage is
written exactly, so a task read back costs what the generated one costs.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..workload import events as ev
from ..workload.constraints import ConstraintOperator
from ..workload.parsers import GCD_TIME_SHIFT_US
from ..workload.synth import SynthConfig, synth_generate

OPERATOR_CODES = {
    ConstraintOperator.EQUAL: 0,
    ConstraintOperator.NOT_EQUAL: 1,
    ConstraintOperator.LESS_THAN: 2,
    ConstraintOperator.GREATER_THAN: 3,
}

# Removal reason written for synthetic terminations (normal finish).
FINISH_CODE = 4
SUBMIT_CODE = 0


def _writer(directory: Path, group: str):
    group_dir = directory / group
    group_dir.mkdir(parents=True, exist_ok=True)
    handle = open(group_dir / "part-00000-of-00001.csv", "w",
                  encoding="utf-8", newline="")
    return handle, csv.writer(handle)


def write_synthetic_trace(config: SynthConfig, out_dir: Path) -> dict:
    """Generate and persist the stream; returns per-group row counts."""
    out_dir = Path(out_dir)
    handles = {}
    writers = {}
    for group in ("machine_events", "machine_attributes", "job_events",
                  "task_events", "task_usage", "task_constraints"):
        handles[group], writers[group] = _writer(out_dir, group)
    counts = {group: 0 for group in writers}

    def put(group: str, row: list) -> None:
        writers[group].writerow(row)
        counts[group] += 1

    shift = GCD_TIME_SHIFT_US
    try:
        for event in synth_generate(config):
            ts = event.timestamp + shift
            if isinstance(event, ev.AddNodeEvent):
                put("machine_events", [ts, event.node_id, 0, "synthetic",
                                       f"{event.total[0]:.6f}", f"{event.total[1]:.6f}"])
                for name, value in event.attributes:
                    put("machine_attributes", [ts, event.node_id, name, value, ""])
            elif isinstance(event, ev.RemoveNodeEvent):
                put("machine_events", [ts, event.node_id, 1, "synthetic", "", ""])
            elif isinstance(event, ev.UpdateNodeTotalEvent):
                put("machine_events", [ts, event.node_id, 2, "synthetic",
                                       f"{event.total[0]:.6f}", f"{event.total[1]:.6f}"])
            elif isinstance(event, ev.AddTaskEvent):
                put("job_events", [ts, "", event.task_id, SUBMIT_CODE, "synthetic-user", 2])
                put("task_events", [ts, "", event.task_id, 0,
                                    event.recorded_node or "", SUBMIT_CODE, "synthetic-user",
                                    2, event.priority,
                                    f"{event.required[0]:.6f}", f"{event.required[1]:.6f}",
                                    "", ""])
                for constraint in event.constraints:
                    put("task_constraints", [ts, event.task_id, 0,
                                             OPERATOR_CODES[constraint.operator],
                                             constraint.attribute_name, constraint.value])
            elif isinstance(event, ev.RemoveTaskEvent):
                put("task_events", [ts, "", event.task_id, 0, "", FINISH_CODE,
                                    "synthetic-user", 2, "", "", "", "", ""])
            elif isinstance(event, ev.UpdateTaskUsedEvent):
                put("task_usage", [ts, ts + 300_000_000, event.task_id, 0, "",
                                   repr(event.used[0]), "0.0", repr(event.used[1])])
    finally:
        for handle in handles.values():
            handle.close()
    return counts
