"""Generator-form oracle for a node agent's admission check.

``admission_ok`` is the check as ``NodeAgent.admission_ok`` once wrote it:
the constraints are always matched, each load is summed in a generator
expression and the RUS bound is ``rus_fits``.  The engine's form must give
the same answer for every input, NaN totals and exact-equality bounds
included.
"""

from __future__ import annotations

from cellsim.agents.scoring import rus_fits
from cellsim.workload.constraints import matches_attributes


def admission_ok(agent, snapshot, forced: bool) -> bool:
    node = agent.node
    if not matches_attributes(snapshot.constraints, node.attributes):
        return False
    total = node.total.tolist()
    if any(req > cap for req, cap in zip(snapshot.required, total)):
        return False  # total capacity must suffice even when forced
    if forced:
        return True
    load = zip(node.used.tolist(), agent.incoming_used.tolist(), snapshot.used, total)
    if any(used + incoming + extra > cap for used, incoming, extra, cap in load):
        return False
    prod = [p + i for p, i in zip(node.prod_required.tolist(), agent.incoming_prod_req.tolist())]
    if snapshot.production:
        prod = [p + r for p, r in zip(prod, snapshot.required)]
    return rus_fits(total, prod)
