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


def transfers_settled(engine) -> bool:
    """No transfer is open, and no agent counts any load coming in: every
    agent's incoming sums are exactly zero."""
    return not engine.transfers and all(
        not agent.incoming_used.any() and not agent.incoming_prod_req.any()
        for agent in engine.agents.values())


def write_synth_config(config, path: str | Path) -> None:
    """``config`` as the JSON file ``SynthConfig.from_file`` reads."""
    Path(path).write_text(json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True) + "\n")
