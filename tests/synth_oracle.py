"""Eager reference for the synthetic generator.

Builds every event of the horizon into one list, then sorts it with
``sort_events``.  ``synth_generate`` streams the same events lazily from a
heap; the tests require the two streams to be equal.
"""

from __future__ import annotations

import heapq
import random
from typing import Optional

from cellsim.workload import events as ev
from cellsim.workload.constraints import ConstraintOperator, TaskConstraint
from cellsim.workload.synth import SynthConfig, _node_attributes


def eager_synth_events(config: SynthConfig) -> list[ev.WorkloadEvent]:
    config.validate()
    rng = random.Random(config.seed)
    horizon_us = int(config.duration_minutes * ev.MINUTE_US)

    events: list[ev.WorkloadEvent] = []
    node_ids = [f"n{index:05d}" for index in range(config.node_count)]
    node_groups: list[Optional[str]] = []
    for index, node_id in enumerate(node_ids):
        attributes = _node_attributes(config, index)
        node_groups.append(dict(attributes).get("group"))
        events.append(ev.AddNodeEvent(
            timestamp=0, node_id=node_id, total=config.node_capacity,
            attributes=attributes,
        ))

    headroom = [list(config.node_capacity) for _ in node_ids]
    running: list[tuple[int, int, tuple]] = []

    def record_placement(arrival_us, required, group):
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

    interval = int(config.usage_interval_minutes * ev.MINUTE_US)
    ramp = max(1, config.usage_ramp_updates)
    for seq, arrival in enumerate(arrivals):
        task_id = f"t{seq:07d}"
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
        group = None
        constraints: tuple = ()
        if config.constraint_rate > 0 and rng.random() < config.constraint_rate:
            group = str(rng.randrange(max(1, config.attribute_groups)))
            constraints = (TaskConstraint(ConstraintOperator.EQUAL, "group", group),)
        production = rng.random() < config.production_fraction

        recorded_node = None
        if config.record_placements:
            index = record_placement(arrival, required, group)
            if index is not None:
                recorded_node = node_ids[index]
                if end_us is not None:
                    heapq.heappush(running, (end_us, index, required))
        events.append(ev.AddTaskEvent(
            timestamp=arrival, task_id=task_id, required=required,
            priority=9 if production else 2, production=production,
            constraints=constraints, recorded_node=recorded_node,
        ))
        report = arrival + interval // 2
        stop = end_us if end_us is not None else horizon_us
        step = 0
        while report < stop:
            step += 1
            scale = min(1.0, step / ramp)
            events.append(ev.UpdateTaskUsedEvent(
                timestamp=report, task_id=task_id, used=tuple(u * scale for u in usage),
            ))
            report += interval
        if end_us is not None:
            events.append(ev.RemoveTaskEvent(timestamp=end_us, task_id=task_id))

    return ev.sort_events(events)
