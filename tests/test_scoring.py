"""Score-surface shape, classification boundaries, and gain clamping.

The scalar functions come from ``scoring_oracle``; the vectorized forms in
``cellsim.agents.scoring`` are checked against them.
"""

import math
import random
import warnings

import numpy as np
import pytest

from cellsim.agents.scoring import (
    INITIAL_PARAMS,
    REALLOC_PARAMS,
    AllocationClass,
    ScoringParams,
    allocation_score_vec,
    asr_metrics,
    classify_vec,
    rus_fits,
    score,
)
from scoring_oracle import classify_allocation, score_gain, sias, sras

MAX11 = (1.0, 1.0)


class TestInitialScore:
    def test_bias_point_exact(self):
        assert sias(MAX11, (0.3, 0.3)) == pytest.approx(0.2, abs=1e-12)

    def test_origin_value(self):
        # scalar-exponential oracle: 350^0.09 - 0.8
        expected = math.exp(0.09 * math.log(350.0)) - 0.8
        assert expected == pytest.approx(0.894, abs=0.001)
        assert sias(MAX11, (0.0, 0.0)) == pytest.approx(expected)

    def test_super_tight_region_zero(self):
        assert sias(MAX11, (0.95, 0.2)) == 0.0
        assert sias(MAX11, (0.9, 0.0)) == 0.0  # boundary closed at 90%
        assert sias(MAX11, (0.2, 1.2)) == 0.0  # overloaded

    def test_mixed_utilization_scores_low(self):
        balanced = sias(MAX11, (0.2, 0.2))
        lopsided = sias(MAX11, (0.85, 0.1))
        assert lopsided < balanced
        assert lopsided < 0.2

    def test_tight_region_plateaus_at_bias_value(self):
        assert sias(MAX11, (0.8, 0.8)) == pytest.approx(0.2, abs=1e-12)
        assert sias(MAX11, (0.5, 0.6)) == pytest.approx(0.2, abs=1e-12)


class TestReallocScore:
    def test_bias_point_exact(self):
        assert sras(MAX11, (0.6, 0.6)) == pytest.approx(0.2, abs=1e-12)

    def test_near_peak_value(self):
        expected = math.exp(0.29 * 0.29 * math.log(500.0)) - 0.8
        assert expected == pytest.approx(0.887, abs=0.001)
        assert sras(MAX11, (0.89, 0.89)) == pytest.approx(expected)

    def test_super_tight_zero(self):
        assert sras(MAX11, (0.95, 0.95)) == 0.0

    def test_low_utilization_plateaus(self):
        assert sras(MAX11, (0.1, 0.1)) == pytest.approx(0.2, abs=1e-12)


def grid_scores(scorer):
    points = np.linspace(0.0, 1.0, 101)
    xs, ys = np.meshgrid(points, points, indexing="ij")
    used = np.stack([xs.ravel(), ys.ravel()], axis=1)
    totals = np.ones_like(used)
    params = INITIAL_PARAMS if scorer == "sias" else REALLOC_PARAMS
    scores = allocation_score_vec(params, totals, used)
    return used, scores


class TestSurfaceShape:
    def test_initial_argmax_in_proportional_region(self):
        used, scores = grid_scores("sias")
        x, y = used[int(np.argmax(scores))]
        assert x < 0.7 and y < 0.7

    def test_realloc_argmax_in_tight_region(self):
        used, scores = grid_scores("sras")
        x, y = used[int(np.argmax(scores))]
        assert 0.7 <= x < 0.9 and 0.7 <= y < 0.9

    @pytest.mark.parametrize("scorer", ["sias", "sras"])
    def test_zero_on_all_super_tight_and_overloaded_points(self, scorer):
        used, scores = grid_scores(scorer)
        cutoff = (used >= 0.9).any(axis=1)
        assert np.all(scores[cutoff] == 0.0)

    @pytest.mark.parametrize("scorer", [sias, sras])
    def test_symmetric_under_resource_swap(self, scorer):
        rng = random.Random(5)
        for _ in range(200):
            x, y = rng.uniform(0, 1.1), rng.uniform(0, 1.1)
            assert scorer(MAX11, (x, y)) == pytest.approx(scorer(MAX11, (y, x)), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = random.Random(17)
        used = np.array([[rng.uniform(0, 1.2), rng.uniform(0, 1.2)] for _ in range(500)])
        totals = np.ones_like(used)
        for params, scalar in ((INITIAL_PARAMS, sias), (REALLOC_PARAMS, sras)):
            vec = allocation_score_vec(params, totals, used)
            for i in range(len(used)):
                assert vec[i] == pytest.approx(scalar(MAX11, tuple(used[i])), abs=1e-12)

    def test_heavily_overloaded_row_scores_zero_without_warning(self):
        # 500^(11.4 * 11.4) overflows: a cut-off row's power must not be taken
        totals = np.ones((2, 2))
        used = np.array([[12.0, 12.0], [0.8, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = allocation_score_vec(REALLOC_PARAMS, totals, used)
        assert scores[0] == 0.0
        assert scores[1] == pytest.approx(sras(MAX11, (0.8, 0.5)), abs=1e-12)

    def test_capacity_scaling(self):
        # utilizations are relative to capacity, not absolute
        assert sias((0.5, 0.5), (0.15, 0.15)) == pytest.approx(0.2, abs=1e-12)
        assert sras((0.5, 0.25), (0.3, 0.15)) == pytest.approx(0.2, abs=1e-12)


class TestGain:
    def test_identity_zero(self):
        assert score_gain(sias, MAX11, (0.4, 0.4), (0.4, 0.4)) == 0.0

    def test_positive_gain(self):
        before, after = (0.85, 0.1), (0.85, 0.6)
        gain = score_gain(sias, MAX11, before, after)
        assert gain == pytest.approx(sias(MAX11, after) - sias(MAX11, before))
        assert gain > 0

    def test_drop_clamped_to_zero(self):
        assert score_gain(sias, MAX11, (0.0, 0.0), (0.5, 0.5)) == 0.0
        rng = random.Random(3)
        for _ in range(300):
            a = (rng.uniform(0, 1), rng.uniform(0, 1))
            b = (rng.uniform(0, 1), rng.uniform(0, 1))
            assert score_gain(sras, MAX11, a, b) >= 0.0

    @pytest.mark.parametrize("name,scalar", [("sias_gain", sias), ("sras_gain", sras)])
    def test_engine_gain_matches_oracle(self, name, scalar):
        rng = random.Random(23)
        before = np.array([[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(300)])
        after = before + np.array([[rng.uniform(0, 0.3), rng.uniform(0, 0.3)]
                                   for _ in range(300)])
        vec = score(name, np.ones_like(before), before, after)
        for i in range(len(before)):
            expected = score_gain(scalar, MAX11, tuple(before[i]), tuple(after[i]))
            assert vec[i] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("name,scalar", [("sias", sias), ("sras", sras)])
    def test_level_scorer_matches_oracle(self, name, scalar):
        rng = random.Random(29)
        before = np.array([[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(300)])
        after = before + np.array([[rng.uniform(0, 0.3), rng.uniform(0, 0.3)]
                                   for _ in range(300)])
        vec = score(name, np.ones_like(before), before, after)
        for i in range(len(before)):
            assert vec[i] == pytest.approx(scalar(MAX11, tuple(after[i])), abs=1e-12)


class TestClassification:
    @pytest.mark.parametrize("used,expected", [
        ((0.5, 0.5), AllocationClass.PA),
        ((0.8, 0.75), AllocationClass.TA),
        ((0.95, 0.3), AllocationClass.STA),
        ((0.8, 0.2), AllocationClass.DA),
        ((1.1, 0.5), AllocationClass.OVERLOADED),
    ])
    def test_range_examples(self, used, expected):
        assert classify_allocation(MAX11, used, task_count=3) is expected

    def test_empty_node_idle(self):
        assert classify_allocation(MAX11, (0.0, 0.0), task_count=0) is AllocationClass.IDLE

    def test_boundary_090_is_super_tight(self):
        assert classify_allocation(MAX11, (0.9, 0.1), task_count=1) is AllocationClass.STA

    def test_boundary_070(self):
        assert classify_allocation(MAX11, (0.7, 0.7), task_count=1) is AllocationClass.TA
        assert classify_allocation(MAX11, (0.7, 0.2), task_count=1) is AllocationClass.DA

    def test_unstarted_only_node_is_not_idle(self):
        # tasks with zero usage still occupy the node
        assert classify_allocation(MAX11, (0.0, 0.0), task_count=2) is AllocationClass.PA

    def test_zero_capacity_dimension(self):
        assert classify_allocation((0.0, 1.0), (0.1, 0.5), 1) is AllocationClass.OVERLOADED
        assert classify_allocation((0.0, 1.0), (0.0, 0.5), 1) is AllocationClass.PA

    def test_random_agrees_with_rule_oracle(self):
        rng = random.Random(11)

        def oracle(total, used, count):
            ratios = [u / t for t, u in zip(total, used) if t > 0]
            if any(u > 0 and t <= 0 for t, u in zip(total, used)):
                return AllocationClass.OVERLOADED
            if any(r > 1 for r in ratios):
                return AllocationClass.OVERLOADED
            if any(r >= 0.9 for r in ratios):
                return AllocationClass.STA
            if ratios and all(0.7 <= r < 0.9 for r in ratios):
                return AllocationClass.TA
            if count == 0:
                return AllocationClass.IDLE
            if all(r < 0.7 for r in ratios):
                return AllocationClass.PA
            return AllocationClass.DA

        totals, useds, counts = [], [], []
        for _ in range(500):
            total = (rng.uniform(0.5, 2), rng.uniform(0.5, 2))
            used = (rng.uniform(0, 2.2), rng.uniform(0, 2.2))
            count = rng.randrange(0, 4)
            assert classify_allocation(total, used, count) is oracle(total, used, count)
            totals.append(total)
            useds.append(used)
            counts.append(count)
        vec = classify_vec(np.array(totals), np.array(useds), np.array(counts))
        for i in range(len(totals)):
            assert vec[i] is oracle(totals[i], useds[i], counts[i])


class TestRusFits:
    def test_no_production_tasks(self):
        assert rus_fits(MAX11, (0.0, 0.0))

    def test_overcommitted_production(self):
        assert not rus_fits((0.5, 1.0), (0.55, 0.2))

    def test_tight_but_fitting(self):
        assert rus_fits((0.5, 0.2493), (0.440646, 0.198338))


class TestAsrMetrics:
    def test_all_idle_degenerate(self):
        metrics = asr_metrics([AllocationClass.IDLE] * 5)
        assert metrics["degenerate"]
        assert metrics["counts"]["idle"] == 5
        assert all(v == 0.0 for v in metrics["ratios"].values())

    def test_counts_match_fold(self):
        classes = [AllocationClass.PA] * 6 + [AllocationClass.DA] * 3 + [AllocationClass.STA]
        metrics = asr_metrics(classes)
        assert metrics["counts"]["pa"] == 6
        assert metrics["ratios"]["pa"] == pytest.approx(0.6)
        assert metrics["ratios"]["da"] == pytest.approx(0.3)
        assert metrics["ratios"]["sta"] == pytest.approx(0.1)
        assert not metrics["degenerate"]

    def test_idle_and_overloaded_excluded_from_ratios(self):
        classes = [AllocationClass.IDLE, AllocationClass.OVERLOADED,
                   AllocationClass.PA, AllocationClass.TA]
        metrics = asr_metrics(classes)
        assert metrics["ratios"]["pa"] == pytest.approx(0.5)
        assert metrics["ratios"]["ta"] == pytest.approx(0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        ScoringParams(f_bias=0.0, f_steep=350, f_floor=0.8, low_biased=True)
    with pytest.raises(ValueError):
        ScoringParams(f_bias=0.3, f_steep=1.0, f_floor=0.8, low_biased=True)
    with pytest.raises(ValueError):
        ScoringParams(f_bias=0.3, f_steep=350, f_floor=-0.1, low_biased=True)
