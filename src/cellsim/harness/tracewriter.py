"""Write a synthetic workload as a trace directory in the standard six-table
CSV layout (``parsers.LAYOUT``), so the regular file parsers can replay it.

Timestamps are written with the conventional ten-minute lead applied, which
a run with the trace time shift (the default) strips back off.  Usage is
written exactly, so a task read back costs what the generated one costs.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..workload import events as ev
from ..workload import parsers as trace
from ..workload.synth import SynthConfig, synth_generate

#: Scheduling class written for every synthetic job and task.
SCHEDULING_CLASS = 2


def write_synthetic_trace(config: SynthConfig, out_dir: Path) -> dict:
    """Generate and persist the stream; returns per-table row counts."""
    handles, writers = {}, {}
    for table in trace.LAYOUT:
        part = Path(out_dir) / table / "part-00000-of-00001.csv"
        part.parent.mkdir(parents=True, exist_ok=True)
        handles[table] = open(part, "w", encoding="utf-8", newline="")
        writers[table] = csv.writer(handles[table])
    counts = {table: 0 for table in writers}

    def put(table: str, **fields) -> None:
        """One row, its fields named as in ``LAYOUT``; the rest are empty."""
        writers[table].writerow([fields.get(name, "") for name in trace.LAYOUT[table]])
        counts[table] += 1

    def task(ts: int, task_id: str, code: int, **fields) -> None:
        put("task_events", timestamp=ts, job_id=task_id, task_index=0, event_type=code,
            user="synthetic-user", scheduling_class=SCHEDULING_CLASS, **fields)

    def machine(ts: int, node_id: str, code: int, total=None) -> None:
        cpus, memory = ("", "") if total is None else (f"{v:.6f}" for v in total)
        put("machine_events", timestamp=ts, machine_id=node_id, event_type=code,
            platform_id="synthetic", cpus=cpus, memory=memory)

    shift = trace.GCD_TIME_SHIFT_US
    try:
        for event in synth_generate(config):
            ts = event.timestamp + shift
            if isinstance(event, ev.AddNodeEvent):
                machine(ts, event.node_id, trace.MACHINE_ADD, event.total)
                for name, value in event.attributes:
                    put("machine_attributes", timestamp=ts, machine_id=event.node_id,
                        attribute_name=name, attribute_value=value)
            elif isinstance(event, ev.RemoveNodeEvent):
                machine(ts, event.node_id, trace.MACHINE_REMOVE)
            elif isinstance(event, ev.UpdateNodeTotalEvent):
                machine(ts, event.node_id, trace.MACHINE_UPDATE, event.total)
            elif isinstance(event, ev.AddTaskEvent):
                put("job_events", timestamp=ts, job_id=event.task_id,
                    event_type=trace.TASK_SUBMIT, user="synthetic-user",
                    scheduling_class=SCHEDULING_CLASS)
                task(ts, event.task_id, trace.TASK_SUBMIT,
                     machine_id=event.recorded_node or "", priority=event.priority,
                     cpu_request=f"{event.required[0]:.6f}",
                     memory_request=f"{event.required[1]:.6f}")
                for constraint in event.constraints:
                    put("task_constraints", timestamp=ts, job_id=event.task_id, task_index=0,
                        comparison_operator=trace.CONSTRAINT_OPERATORS.index(constraint.operator),
                        attribute_name=constraint.attribute_name,
                        attribute_value=constraint.value)
            elif isinstance(event, ev.RemoveTaskEvent):
                # a synthetic task ends with a normal finish
                task(ts, event.task_id, trace.TASK_FINISH)
            elif isinstance(event, ev.UpdateTaskUsedEvent):
                put("task_usage", start_time=ts, end_time=ts + 300_000_000,
                    job_id=event.task_id, task_index=0, cpu_rate=repr(event.used[0]),
                    canonical_memory="0.0", assigned_memory=repr(event.used[1]))
    finally:
        for handle in handles.values():
            handle.close()
    return counts
