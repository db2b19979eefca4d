"""Node allocation scoring and classification.

Two score families drive placement: the initial-allocation score peaks when
a node is lightly and proportionally utilized (spread new tasks out, their
real usage is still unknown), the re-allocation score peaks just under the
90% band (pack running tasks tightly).  Both share one functional form

    steep ^ (prod_i (u_i - bias * cap_i)) - floor

clamped to zero when negative, zero on any resource at or above 90% of
capacity (the super-tight band and overloads), and flattened to the
bias-point value when every resource sits on the far side of the bias from
the function's target region, which keeps the peak where it belongs.  The
gain variants (``sias_gain``, ``sras_gain``) score the improvement a move
brings instead of the absolute level; ``SCORERS`` names all four and
``score`` is the one dispatch the agent engine calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Any resource at or beyond this fraction of capacity zeroes the score.
STA_CUTOFF = 0.9
#: Class boundaries: tight allocation is [0.7, 0.9) on all resources.
TIGHT_LOWER = 0.7


@dataclass(frozen=True)
class ScoringParams:
    f_bias: float
    f_steep: float
    f_floor: float
    #: True: peak at low utilization (initial allocation); False: peak just
    #: under the cutoff (re-allocation).
    low_biased: bool

    def __post_init__(self) -> None:
        if not (0.0 < self.f_bias < 1.0):
            raise ValueError("f_bias must be in (0, 1)")
        if not self.f_steep > 1.0:
            raise ValueError("f_steep must be > 1")
        if self.f_floor < 0.0:
            raise ValueError("f_floor must be >= 0")


INITIAL_PARAMS = ScoringParams(f_bias=0.3, f_steep=350.0, f_floor=0.8, low_biased=True)
REALLOC_PARAMS = ScoringParams(f_bias=0.6, f_steep=500.0, f_floor=0.8, low_biased=False)


def allocation_score_vec(params: ScoringParams, totals: np.ndarray,
                         used_after: np.ndarray) -> np.ndarray:
    """Score each row of (N, d) capacity/usage matrices, the usage being the
    node's load once the candidate task has landed (or left).  A single
    (1, d) capacity row applies to every usage row."""
    totals = np.asarray(totals, dtype=np.float64)
    used_after = np.asarray(used_after, dtype=np.float64)
    positive_cap = totals > 0.0
    zero_cap_demand = np.any(~positive_cap & (used_after > 0.0), axis=1)
    cutoff = np.any(positive_cap & (used_after >= STA_CUTOFF * totals), axis=1)

    deltas = used_after - params.f_bias * totals
    masked = np.where(positive_cap, deltas, 1.0)
    exponent = np.prod(masked, axis=1)
    if params.low_biased:
        far = np.all(~positive_cap | (deltas > 0.0), axis=1)
    else:
        far = np.all(~positive_cap | (deltas < 0.0), axis=1)
    exponent = np.where(far, 0.0, exponent)

    # cut-off rows score zero, and on an overloaded node their power overflows
    keep = ~(zero_cap_demand | cutoff)
    scores = np.zeros(len(exponent))
    scores[keep] = np.power(params.f_steep, exponent[keep]) - params.f_floor
    return np.maximum(scores, 0.0)


#: Scorer name -> (params, gain).  A gain scorer rates a move by how much it
#: raises the score (never below zero), not by the level it leaves.
SCORERS = {
    "sias": (INITIAL_PARAMS, False),
    "sras": (REALLOC_PARAMS, False),
    "sias_gain": (INITIAL_PARAMS, True),
    "sras_gain": (REALLOC_PARAMS, True),
}


def score(scorer: str, totals: np.ndarray, before: np.ndarray,
          after: np.ndarray) -> np.ndarray:
    """Score each row's move from ``before`` to ``after`` with the named
    scorer from ``SCORERS``."""
    params, gain = SCORERS[scorer]
    scores = allocation_score_vec(params, totals, after)
    if gain:
        scores = np.maximum(scores - allocation_score_vec(params, totals, before), 0.0)
    return scores


class AllocationClass(enum.Enum):
    IDLE = "idle"
    STA = "sta"          # super tight: something at or above 90%
    TA = "ta"            # tight: everything in [70%, 90%)
    PA = "pa"            # proportional: everything below 70%
    DA = "da"            # disproportional: mixed high/low
    OVERLOADED = "overloaded"


def classify_vec(totals: np.ndarray, used: np.ndarray,
                 task_counts: np.ndarray) -> np.ndarray:
    """Classify each row by its per-resource utilization ratios; returns an
    array of AllocationClass."""
    totals = np.asarray(totals, dtype=np.float64)
    used = np.asarray(used, dtype=np.float64)
    positive = totals > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(positive, used / np.where(positive, totals, 1.0), 0.0)
    zero_cap_demand = np.any(~positive & (used > 0.0), axis=1)
    overloaded = zero_cap_demand | np.any(positive & (ratios > 1.0), axis=1)
    sta = np.any(positive & (ratios >= STA_CUTOFF), axis=1)
    has_dim = np.any(positive, axis=1)
    ta = has_dim & np.all(~positive | ((ratios >= TIGHT_LOWER) & (ratios < STA_CUTOFF)), axis=1)
    pa = np.all(~positive | (ratios < TIGHT_LOWER), axis=1)
    idle = np.asarray(task_counts) == 0

    out = np.full(len(totals), AllocationClass.DA, dtype=object)
    out[pa] = AllocationClass.PA
    out[idle] = AllocationClass.IDLE
    out[ta] = AllocationClass.TA
    out[sta] = AllocationClass.STA
    out[overloaded] = AllocationClass.OVERLOADED
    return out


def rus_fits(total: Sequence[float], production_required: Sequence[float]) -> bool:
    """Production tasks must fit at their full declared requirements, so a
    usage spike never forces an immediate migration of production work."""
    return all(req <= cap for cap, req in zip(total, production_required))


def asr_metrics(classes: Sequence[AllocationClass]) -> dict:
    """Counts per class plus ratios normalized over the four balance classes
    (idle and overloaded nodes are tracked but excluded from the ratios)."""
    counts = {cls: 0 for cls in AllocationClass}
    for cls in classes:
        counts[cls] += 1
    balance_total = sum(counts[c] for c in
                        (AllocationClass.STA, AllocationClass.TA,
                         AllocationClass.PA, AllocationClass.DA))
    ratios = {}
    for cls in (AllocationClass.STA, AllocationClass.TA, AllocationClass.PA, AllocationClass.DA):
        ratios[cls.value] = counts[cls] / balance_total if balance_total else 0.0
    return {
        "counts": {cls.value: counts[cls] for cls in AllocationClass},
        "ratios": ratios,
        "degenerate": balance_total == 0,
    }
