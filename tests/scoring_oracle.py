"""Scalar oracles for the vectorized scorer and classifier in
``cellsim.agents.scoring``.

Each function but one evaluates one node with plain Python loops, written
straight from the formula, so the tests can check the numpy forms against
an independent implementation.  ``masked_score_vec`` is an earlier numpy
form of ``allocation_score_vec``, which raises only the rows that are not
cut off, gathered and scattered back: the tests hold the scorer to it bit
for bit, since a run's output depends on every bit of a score.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from cellsim.agents.scoring import (
    INITIAL_PARAMS,
    REALLOC_PARAMS,
    STA_CUTOFF,
    TIGHT_LOWER,
    AllocationClass,
    ScoringParams,
)


def allocation_score(params: ScoringParams, node_total: Sequence[float],
                     node_used_after: Sequence[float]) -> float:
    """Score one node under the assumption the candidate task has landed."""
    exponent = 1.0
    on_far_side = True
    for total, used in zip(node_total, node_used_after):
        if total <= 0.0:
            if used > 0.0:
                return 0.0
            continue  # zero-capacity resource with no demand: ignored
        if used >= STA_CUTOFF * total:
            return 0.0
        delta = used - params.f_bias * total
        exponent *= delta
        if params.low_biased:
            on_far_side = on_far_side and delta > 0.0
        else:
            on_far_side = on_far_side and delta < 0.0
    if on_far_side:
        exponent = 0.0
    score = params.f_steep ** exponent - params.f_floor
    return score if score > 0.0 else 0.0


def sias(node_total: Sequence[float], node_used_after: Sequence[float],
         params: ScoringParams = INITIAL_PARAMS) -> float:
    """Initial-allocation score; computed from declared requirements."""
    return allocation_score(params, node_total, node_used_after)


def sras(node_total: Sequence[float], node_used_after: Sequence[float],
         params: ScoringParams = REALLOC_PARAMS) -> float:
    """Re-allocation score; computed from monitored usage."""
    return allocation_score(params, node_total, node_used_after)


def score_gain(base_scorer: Callable[..., float], node_total: Sequence[float],
               used_before: Sequence[float], used_after: Sequence[float]) -> float:
    """Improvement the move brings to the node; never negative."""
    gain = base_scorer(node_total, used_after) - base_scorer(node_total, used_before)
    return gain if gain > 0.0 else 0.0


def classify_allocation(node_total: Sequence[float], node_used: Sequence[float],
                        task_count: int) -> AllocationClass:
    """Total function of the per-resource utilization ratios."""
    ratios = []
    for total, used in zip(node_total, node_used):
        if total <= 0.0:
            if used > 0.0:
                return AllocationClass.OVERLOADED
            continue  # ignored dimension
        ratios.append(used / total)
    if any(r > 1.0 for r in ratios):
        return AllocationClass.OVERLOADED
    if any(r >= STA_CUTOFF for r in ratios):
        return AllocationClass.STA
    if ratios and all(TIGHT_LOWER <= r < STA_CUTOFF for r in ratios):
        return AllocationClass.TA
    if task_count == 0:
        return AllocationClass.IDLE
    if all(r < TIGHT_LOWER for r in ratios):
        return AllocationClass.PA
    return AllocationClass.DA


def masked_score_vec(params: ScoringParams, totals: np.ndarray,
                     used_after: np.ndarray) -> np.ndarray:
    totals = np.asarray(totals, dtype=np.float64)
    used_after = np.asarray(used_after, dtype=np.float64)
    exponent = cut = far = None
    for cap, use in zip(totals.T, used_after.T):
        positive = cap > 0.0
        delta = use - params.f_bias * cap
        col_cut = np.where(positive, use >= STA_CUTOFF * cap, use > 0.0)
        col_far = ~positive | (delta > 0.0 if params.low_biased else delta < 0.0)
        factor = np.where(positive, delta, 1.0)
        if exponent is None:
            exponent, cut, far = factor, col_cut, col_far
        else:
            exponent = exponent * factor
            cut |= col_cut
            far &= col_far
    exponent[far] = 0.0
    keep = ~cut
    scores = np.zeros(len(exponent))
    scores[keep] = np.power(params.f_steep, exponent[keep]) - params.f_floor
    return np.maximum(scores, 0.0, out=scores)
