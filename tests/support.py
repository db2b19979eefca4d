"""Test-side helpers for driving an agent engine and writing configs.

Nothing in the program calls these: they set a scenario up, or check an
engine's bookkeeping, from outside.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path


def place_directly(engine, task_id: str, node_id: str) -> None:
    """Replay-style placement bypassing negotiation (scenario setup);
    broker caches learn the new load immediately."""
    engine.cell.place(task_id, node_id)
    engine._report_to_brokers(node_id)


def overloaded_count(engine) -> int:
    return sum(1 for agent in engine.agents.values() if agent.overloaded())


def reservation_invariant_holds(engine) -> bool:
    """Every reserved task is reserved on exactly one target."""
    reserved: dict[str, int] = {}
    for agent in engine.agents.values():
        for task_id in agent.in_migrations:
            reserved[task_id] = reserved.get(task_id, 0) + 1
    return all(count == 1 for count in reserved.values())


def write_synth_config(config, path: str | Path) -> None:
    """``config`` as the JSON file ``SynthConfig.from_file`` reads."""
    Path(path).write_text(json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True) + "\n")
