"""Deterministic synthetic workload generation for desk-scale runs.

Generates an event stream with the empirical shape of large-cluster traces:
a high churn of short batch jobs (~80% of tasks, 12-20 minutes) plus a
smaller population of long-running services that hold the majority of the
resources.  Everything is driven by one seed, so identical configs produce
byte-identical streams.  The cell fold prices tasks from their usage.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from . import events as ev
from .constraints import ConstraintOperator, TaskConstraint

#: The resources of a simulated cell, in vector order: the trace tables'
#: two, and one ``node_capacity`` value each.
RESOURCES = ("cpu", "memory")
#: Fields by the type a config file must give them.
WHOLE_FIELDS = ("seed", "node_count", "usage_ramp_updates", "attribute_groups")
NUMBER_FIELDS = ("task_arrival_rate", "duration_minutes", "batch_fraction",
                 "usage_interval_minutes", "production_fraction", "constraint_rate")
RANGE_FIELDS = ("batch_duration_min", "service_duration_min", "batch_required",
                "service_required", "usage_ratio")


def _is_number(value) -> bool:
    """A finite int or float (JSON's NaN and Infinity are not numbers here)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def _numbers(value, count: int) -> bool:
    return (isinstance(value, (tuple, list)) and len(value) == count
            and all(_is_number(v) for v in value))


@dataclass
class SynthConfig:
    seed: int
    node_count: int = 20
    #: Mean new tasks per simulated minute (Poisson arrivals).
    task_arrival_rate: float = 10.0
    duration_minutes: float = 60.0
    #: When set, arrivals stop after this many minutes (burst-shaped load).
    arrival_window_minutes: float | None = None
    #: Fraction of tasks that are short batch jobs.
    batch_fraction: float = 0.8
    batch_duration_min: tuple[float, float] = (12.0, 20.0)
    #: Service durations are open-ended; drawn uniform in this range.
    service_duration_min: tuple[float, float] = (120.0, 2400.0)
    node_capacity: tuple[float, float] = (1.0, 1.0)
    #: Requirement ranges per resource, as a fraction of node capacity.
    batch_required: tuple[float, float] = (0.005, 0.03)
    service_required: tuple[float, float] = (0.05, 0.20)
    #: Usage reported as this fraction band of the requirement.
    usage_ratio: tuple[float, float] = (0.4, 0.95)
    usage_interval_minutes: float = 5.0
    #: Number of usage reports over which a task ramps from a small initial
    #: footprint up to its drawn usage level (1 = constant from the start).
    usage_ramp_updates: int = 1
    production_fraction: float = 0.25
    #: Fraction of tasks carrying one attribute constraint.
    constraint_rate: float = 0.0
    #: When >0, this many distinct attribute values are spread over nodes so
    #: every constrained task matches a controllable node subset.
    attribute_groups: int = 4
    #: Record a first-fit placement in AddTask events for replay mode.
    record_placements: bool = True

    def validate(self) -> None:
        for name in WHOLE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
        for name in NUMBER_FIELDS:
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.arrival_window_minutes is not None and not _is_number(self.arrival_window_minutes):
            raise ValueError(f"arrival_window_minutes must be a finite number, "
                             f"got {self.arrival_window_minutes!r}")
        for name in RANGE_FIELDS:
            if not _numbers(getattr(self, name), 2):
                raise ValueError(f"{name} must be a pair of finite numbers, "
                                 f"got {getattr(self, name)!r}")
        if not _numbers(self.node_capacity, len(RESOURCES)) or min(self.node_capacity) <= 0:
            raise ValueError(f"node_capacity must hold one positive finite number per resource "
                             f"({', '.join(RESOURCES)}), got {self.node_capacity!r}")
        if not isinstance(self.record_placements, bool):
            raise ValueError(f"record_placements must be true or false, "
                             f"got {self.record_placements!r}")
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.task_arrival_rate < 0:
            raise ValueError("task_arrival_rate must be >= 0")
        if not (0 <= self.batch_fraction <= 1):
            raise ValueError("batch_fraction must be in [0, 1]")
        for lo, hi in (getattr(self, name) for name in RANGE_FIELDS):
            if lo < 0 or hi < lo:
                raise ValueError("distribution ranges must satisfy 0 <= lo <= hi")
        if not (0 <= self.constraint_rate <= 1):
            raise ValueError("constraint_rate must be in [0, 1]")
        if int(self.usage_interval_minutes * ev.MINUTE_US) < 1:
            raise ValueError("usage_interval_minutes must be at least 1 microsecond")

    @classmethod
    def from_file(cls, path: str | Path) -> "SynthConfig":
        """Raises OSError when the file cannot be read and ValueError when
        it is not a JSON object of known keys."""
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("a synth config is a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown synth config keys: {sorted(unknown)}")
        for key in (*RANGE_FIELDS, "node_capacity"):
            if key in raw:
                if not isinstance(raw[key], list):
                    raise ValueError(f"{key} must be a list")
                raw[key] = tuple(raw[key])
        return cls(**raw)


def _node_attributes(config: SynthConfig, index: int) -> tuple[tuple[str, str], ...]:
    if config.attribute_groups <= 0:
        return ()
    group = index % config.attribute_groups
    return (("group", str(group)), ("slot", str(index)))


def synth_generate(config: SynthConfig) -> Iterator[ev.WorkloadEvent]:
    """Yield a reproducible, timestamp-sorted workload event stream.

    The stream is generated lazily.  All arrivals are drawn first; then each
    task is built in arrival order.  A built task has at most one follow-up
    event pending: its AddTask goes onto a heap with its first usage report
    (or its removal), and each later follow-up is pushed only when the one
    before it is yielded, always strictly later.  Heap keys are
    ``(timestamp, VARIANT_PRIORITY, task index, step)``, the order
    ``sort_events`` gives the whole list.  Arrivals never decrease and a
    task's events are never stamped before its arrival, so before each
    arrival every event stamped earlier is final and is yielded.  Reading
    the first minutes of a long horizon builds only the tasks arriving in
    them and only the follow-ups stamped in them, and memory follows the
    live tasks, not the horizon.  Every task lasts at least 1 µs, so its
    removal never sorts ahead of its AddTask.
    """
    config.validate()
    rng = random.Random(config.seed)
    horizon_us = int(config.duration_minutes * ev.MINUTE_US)

    node_ids = [f"n{index:05d}" for index in range(config.node_count)]
    node_groups: list[Optional[str]] = []
    # AddNode events at t=0 precede every task event: none has a lower
    # variant priority, and none is stamped earlier.
    for index, node_id in enumerate(node_ids):
        attributes = _node_attributes(config, index)
        node_groups.append(dict(attributes).get("group"))
        yield ev.AddNodeEvent(
            timestamp=0, node_id=node_id, total=config.node_capacity,
            attributes=attributes,
        )

    # First-fit headroom for recorded placements.  A task's share returns to
    # its node when the task ends, before any arrival at that time or later
    # (removals sort ahead of additions with the same timestamp).
    headroom = [list(config.node_capacity) for _ in node_ids]
    running: list[tuple[int, int, tuple]] = []  # heap of (end_us, node index, required)

    def record_placement(arrival_us: int, required: tuple, group: Optional[str]) -> Optional[int]:
        while running and running[0][0] <= arrival_us:
            _, index, freed = heapq.heappop(running)
            room = headroom[index]
            for i, value in enumerate(freed):
                room[i] += value
        for index, room in enumerate(headroom):
            if group is not None and node_groups[index] != group:
                continue
            if all(free >= value for free, value in zip(room, required)):
                for i, value in enumerate(required):
                    room[i] -= value
                return index
        return None

    # Poisson arrivals over the horizon (optionally front-loaded).
    arrivals: list[int] = []
    arrival_stop_us = horizon_us
    if config.arrival_window_minutes is not None:
        arrival_stop_us = min(horizon_us, int(config.arrival_window_minutes * ev.MINUTE_US))
    if config.task_arrival_rate > 0:
        t = 0.0
        while True:
            t += rng.expovariate(config.task_arrival_rate / ev.MINUTE_US)
            if t >= arrival_stop_us:
                break
            arrivals.append(int(t))

    add_rank = ev.VARIANT_PRIORITY[ev.EventKind.ADD_TASK]
    used_rank = ev.VARIANT_PRIORITY[ev.EventKind.UPDATE_TASK_USED]
    remove_rank = ev.VARIANT_PRIORITY[ev.EventKind.REMOVE_TASK]
    # heap of (timestamp, variant priority, task index, step, payload): an
    # AddTask's payload is its event, a follow-up's the task's
    # (task_id, usage, stop, end_us); no two entries tie on the first three
    scheduled: list[tuple] = []
    push, pop = heapq.heappush, heapq.heappop
    interval = int(config.usage_interval_minutes * ev.MINUTE_US)
    ramp = max(1, config.usage_ramp_updates)

    def follow(report: int, index: int, step: int, task: tuple) -> None:
        """Push the task's next follow-up: the usage report stamped
        ``report`` while the task lives, then its removal, if it ends
        within the horizon."""
        _, _, stop, end_us = task
        if report < stop:
            push(scheduled, (report, used_rank, index, step, task))
        elif end_us is not None:
            push(scheduled, (end_us, remove_rank, index, step, task))

    def release(entry: tuple) -> ev.WorkloadEvent:
        """The entry's event; a usage report pushes the task's next follow-up."""
        timestamp, rank, index, step, payload = entry
        if rank == add_rank:
            return payload
        task_id, usage, _, _ = payload
        if rank == remove_rank:
            return ev.RemoveTaskEvent(timestamp=timestamp, task_id=task_id)
        follow(timestamp + interval, index, step + 1, payload)
        scale = min(1.0, step / ramp)
        return ev.UpdateTaskUsedEvent(timestamp=timestamp, task_id=task_id,
                                      used=tuple(u * scale for u in usage))

    for index, arrival in enumerate(arrivals):
        while scheduled and scheduled[0][0] < arrival:
            yield release(pop(scheduled))
        task_id = f"t{index:07d}"
        is_batch = rng.random() < config.batch_fraction
        if is_batch:
            duration = rng.uniform(*config.batch_duration_min) * ev.MINUTE_US
            required = tuple(rng.uniform(*config.batch_required) * cap
                             for cap in config.node_capacity)
        else:
            duration = rng.uniform(*config.service_duration_min) * ev.MINUTE_US
            required = tuple(rng.uniform(*config.service_required) * cap
                             for cap in config.node_capacity)
        end = arrival + max(1, int(duration))
        end_us = end if end < horizon_us else None
        usage = tuple(req * rng.uniform(*config.usage_ratio) for req in required)
        group: Optional[str] = None
        constraints: tuple[TaskConstraint, ...] = ()
        if config.constraint_rate > 0 and rng.random() < config.constraint_rate:
            group = str(rng.randrange(max(1, config.attribute_groups)))
            constraints = (TaskConstraint(ConstraintOperator.EQUAL, "group", group),)
        production = rng.random() < config.production_fraction

        recorded_node = None
        if config.record_placements:
            node = record_placement(arrival, required, group)
            if node is not None:
                recorded_node = node_ids[node]
                if end_us is not None:
                    heapq.heappush(running, (end_us, node, required))
        push(scheduled, (arrival, add_rank, index, 0, ev.AddTaskEvent(
            timestamp=arrival,
            task_id=task_id,
            required=required,
            priority=9 if production else 2,
            production=production,
            constraints=constraints,
            recorded_node=recorded_node,
        )))
        stop = end_us if end_us is not None else horizon_us
        follow(arrival + interval // 2, index, 1, (task_id, usage, stop, end_us))

    while scheduled:
        yield release(pop(scheduled))
