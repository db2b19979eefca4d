"""Benchmark fixture: 60 tasks over 12 nodes with 4 resource types.

The five standard scenarios grow the problem in lock-step (ten more tasks
and two more nodes each): tasks whose recorded initial node is not enabled
in a scenario start off-cell and must pay their migration cost wherever
they land.
"""

from __future__ import annotations

import csv
from importlib import resources

from ..model import NodeSpec, ResourceTypeCatalog, SystemState, TaskSpec

CATALOG4 = ResourceTypeCatalog(("cpu", "memory", "network", "io"))

#: scenario name -> (task count, enabled node count)
SCENARIOS = {
    "test1": (20, 4),
    "test2": (30, 6),
    "test3": (40, 8),
    "test4": (50, 10),
    "test5": (60, 12),
}


def _read_data(name: str) -> list[dict]:
    with resources.files("cellsim.metaheuristics").joinpath(f"data/{name}").open() as fh:
        return list(csv.DictReader(fh))


def load_benchmark_nodes() -> list[NodeSpec]:
    return [
        NodeSpec(
            id=row["node"],
            total=(float(row["cpu"]), float(row["memory"]),
                   float(row["network"]), float(row["io"])),
        )
        for row in _read_data("benchmark_nodes.csv")
    ]


def load_benchmark_tasks() -> list[tuple[TaskSpec, str]]:
    """(task, recorded initial node) pairs."""
    out = []
    for row in _read_data("benchmark_tasks.csv"):
        task = TaskSpec(
            id=row["task"],
            required=(float(row["cpu"]), float(row["memory"]),
                      float(row["network"]), float(row["io"])),
            migration_cost_mb=float(row["migration_cost"]),
        )
        out.append((task, row["initial_node"]))
    return out


def benchmark_state(scenario: str = "test1") -> SystemState:
    """Build the system for one scenario; initial nodes outside the enabled
    subset stay in the origin assignment as off-cell references."""
    try:
        task_count, node_count = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario!r}; pick one of {sorted(SCENARIOS)}") from None
    nodes = load_benchmark_nodes()[:node_count]
    pairs = load_benchmark_tasks()[:task_count]
    return SystemState(
        catalog=CATALOG4,
        nodes=tuple(nodes),
        tasks=tuple(task for task, _ in pairs),
        assignment={task.id: origin for task, origin in pairs},
    )
