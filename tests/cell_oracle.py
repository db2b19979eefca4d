"""Recount oracle for the per-node loads ``CellState`` keeps.

The cell updates each node's residents and load sums as tasks move and
change.  This module recounts them from the placement map alone, one task
at a time, the way the replay and metaheuristic engines once rebuilt their
node table on every tick, so the tests can check the incremental sums
against an independent computation.
"""

from __future__ import annotations

import numpy as np


def recount(cell) -> dict:
    """node id -> (residents, used, required, production required)."""
    dim = cell.catalog.dimension
    out = {node_id: (set(), np.zeros(dim), np.zeros(dim), np.zeros(dim))
           for node_id in cell.nodes}
    for task_id, node_id in cell.placement.items():
        residents, used, required, prod_required = out[node_id]  # a live node
        task = cell.tasks[task_id]
        residents.add(task_id)
        used += task.used
        required += task.required
        if task.production:
            prod_required += task.required
    return out


def assert_loads_match(cell, atol: float = 1e-9) -> None:
    """Every node's residents equal the recount, and its sums (also as
    stacked by ``node_table``) lie within ``atol`` of it."""
    expected = recount(cell)
    for node_id, (residents, used, required, prod_required) in expected.items():
        node = cell.nodes[node_id]
        assert node.residents == residents, node_id
        for name, want in (("used", used), ("required", required),
                           ("prod_required", prod_required)):
            np.testing.assert_allclose(getattr(node, name), want, rtol=0, atol=atol,
                                       err_msg=f"{node_id} {name}")
    node_ids, totals, used, required, counts = cell.node_table()
    assert node_ids == sorted(expected)
    for i, node_id in enumerate(node_ids):
        residents, want_used, want_required, _ = expected[node_id]
        np.testing.assert_array_equal(totals[i], cell.nodes[node_id].total)
        np.testing.assert_allclose(used[i], want_used, rtol=0, atol=atol)
        np.testing.assert_allclose(required[i], want_required, rtol=0, atol=atol)
        assert counts[i] == len(residents)
