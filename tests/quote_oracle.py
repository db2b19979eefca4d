"""Scalar oracle for a broker's batched quotes.

``quote`` builds one quote the way a broker once built each quote on its
own, written as plain loops: from the quote's pool (its eligible cache rows
at the drawn positions), the pool's row of exponential draws and, for the
forced band's shuffle of the unscanned nodes, the broker's generator as the
batch left it.  Each pool node is scored on its own, as a one-row call of
``scoring.score``: numpy's vector power may differ from Python's ``**`` in
the last bit, so the scalar formula of ``scoring_oracle`` is held to the
scorer in ``test_scoring`` instead, to a relative 1e-12.
"""

from __future__ import annotations

import numpy as np

from cellsim.agents.engine import RECOMMENDATION_COUNT
from cellsim.agents.messages import FORCED_FITNESS, ZERO_SCORE_FITNESS
from cellsim.agents.scoring import score


def quote(scorer: str, totals: np.ndarray, used: np.ndarray, eligible: list,
          positions: list, draws: list, required, task_vec, rng) -> tuple:
    """(cache rows, fitness, regular count) of one quote.

    ``eligible`` lists the quote's eligible cache rows in ascending order,
    the requester left out; ``positions`` index it, one per pool node, and
    ``draws`` hold one exponential per position.  ``totals`` and ``used``
    are the broker's cache rows."""
    pool = [eligible[p] for p in positions]
    scores, room = [], []
    for row in pool:
        total, before = totals[row].tolist(), used[row].tolist()
        after = [u + t for u, t in zip(before, task_vec)]
        scores.append(float(score(scorer, np.array([total]), np.array([before]),
                                  np.array([after]))[0]))
        room.append(all(cap - load >= t for cap, load, t in zip(total, before, task_vec)))

    # the scored band: the smallest draw-over-fitness keys, by falling
    # fitness, then row
    keyed = sorted((draws[c] / scores[c], c) for c in range(len(pool)) if scores[c] > 0.0)
    band = sorted(keyed[:RECOMMENDATION_COUNT], key=lambda kc: (-scores[kc[1]], pool[kc[1]]))
    rows = [pool[c] for _, c in band]
    fitness = [scores[c] for _, c in band]
    forced: list = []
    if len(rows) < RECOMMENDATION_COUNT:
        by_draw = sorted(range(len(pool)), key=lambda c: draws[c])
        padding = [pool[c] for c in by_draw if scores[c] <= 0.0 and room[c]]
        padding = padding[:RECOMMENDATION_COUNT - len(rows)]
        rows += padding
        fitness += [ZERO_SCORE_FITNESS] * len(padding)
        if len(rows) < RECOMMENDATION_COUNT:
            rest = [pool[c] for c in by_draw if scores[c] <= 0.0 and not room[c]]
            if len(positions) < len(eligible):
                unscanned = np.array(sorted(set(range(len(eligible))) - set(positions)),
                                     dtype=np.intp)
                rng.shuffle(unscanned)
                rest += [eligible[p] for p in unscanned.tolist()]
            capable = [row for row in rest
                       if all(req <= cap for req, cap in zip(required, totals[row].tolist()))]
            forced = capable[:RECOMMENDATION_COUNT - len(rows)]
    return rows + forced, fitness + [FORCED_FITNESS] * len(forced), len(rows)
