"""Tests for the F-measure family (paper Eqn 1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.measures import (
    alpha_from_beta,
    beta_from_alpha,
    f_measure,
    f_measure_from_counts,
    pool_performance,
    precision,
    recall,
)
from repro.measures.confusion import ConfusionCounts


class TestAlphaBetaConversion:
    def test_balanced(self):
        # beta = 1 (balanced F1) corresponds to alpha = 1/2.
        assert alpha_from_beta(1.0) == pytest.approx(0.5)

    def test_precision_limit(self):
        assert alpha_from_beta(0.0) == pytest.approx(1.0)

    def test_round_trip(self):
        for beta in [0.5, 1.0, 2.0]:
            assert beta_from_alpha(alpha_from_beta(beta)) == pytest.approx(beta)

    def test_negative_beta_raises(self):
        with pytest.raises(ValueError):
            alpha_from_beta(-1.0)


class TestFMeasure:
    def test_perfect_predictions(self):
        y = [1, 0, 1, 0]
        assert f_measure(y, y) == pytest.approx(1.0)

    def test_alpha_one_is_precision(self):
        true = [1, 0, 0, 1]
        pred = [1, 1, 0, 0]
        # precision = TP / (TP + FP) = 1 / 2.
        assert f_measure(true, pred, alpha=1.0) == pytest.approx(0.5)
        assert precision(true, pred) == pytest.approx(0.5)

    def test_alpha_zero_is_recall(self):
        true = [1, 0, 0, 1]
        pred = [1, 1, 0, 0]
        # recall = TP / (TP + FN) = 1 / 2.
        assert f_measure(true, pred, alpha=0.0) == pytest.approx(0.5)
        assert recall(true, pred) == pytest.approx(0.5)

    def test_balanced_f_is_harmonic_mean(self):
        true = [1, 1, 0, 0, 1, 0]
        pred = [1, 0, 1, 0, 1, 0]
        p = precision(true, pred)
        r = recall(true, pred)
        expected = 2 * p * r / (p + r)
        assert f_measure(true, pred, alpha=0.5) == pytest.approx(expected)

    def test_undefined_when_no_positives(self):
        assert np.isnan(f_measure([0, 0], [0, 0]))

    def test_zero_f_when_disjoint(self):
        assert f_measure([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_weights_scale_invariance(self):
        true = [1, 0, 1, 1, 0]
        pred = [1, 1, 1, 0, 0]
        unweighted = f_measure(true, pred)
        weighted = f_measure(true, pred, weights=[2.0] * 5)
        assert weighted == pytest.approx(unweighted)

    def test_invalid_alpha_raises(self):
        with pytest.raises(ValueError, match="alpha"):
            f_measure([1], [1], alpha=1.5)

    def test_perfect_match_is_exactly_one_at_any_alpha(self):
        # alpha * 3 + (1 - alpha) * 3 rounds to 2.9999999999999996 at
        # alpha = 0.01, so the expanded Eqn 1 denominator read F > 1.
        counts = ConfusionCounts(3, 0, 0, 0)
        assert f_measure_from_counts(counts, alpha=0.01) == 1.0
        assert f_measure([1, 1, 1], [1, 1, 1], alpha=0.01) == 1.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1)),
            min_size=1,
            max_size=50,
        ),
        st.floats(0, 1),
    )
    def test_property_range(self, pairs, alpha):
        true = [t for t, _ in pairs]
        pred = [p for _, p in pairs]
        value = f_measure(true, pred, alpha=alpha)
        assert np.isnan(value) or 0.0 <= value <= 1.0

    @given(st.integers(1, 20), st.integers(0, 20), st.integers(0, 20))
    def test_property_monotone_in_tp(self, tp, fp, fn):
        low = f_measure_from_counts(ConfusionCounts(tp, fp, fn, 0), alpha=0.5)
        high = f_measure_from_counts(ConfusionCounts(tp + 1, fp, fn, 0), alpha=0.5)
        assert high >= low - 1e-12


class TestPoolPerformance:
    def test_keys(self):
        out = pool_performance([1, 0, 1], [1, 1, 0])
        assert set(out) >= {"precision", "recall", "f_measure", "counts"}

    def test_counts_totals(self):
        out = pool_performance([1, 0, 1, 0], [1, 1, 0, 0])
        counts = out["counts"]
        assert counts.total == pytest.approx(4.0)
        assert counts.tp == pytest.approx(1.0)
        assert counts.fp == pytest.approx(1.0)
        assert counts.fn == pytest.approx(1.0)
        assert counts.tn == pytest.approx(1.0)

    def test_matches_direct_functions(self):
        true = [1, 0, 0, 1, 1, 0]
        pred = [1, 0, 1, 1, 0, 0]
        out = pool_performance(true, pred)
        assert out["precision"] == pytest.approx(precision(true, pred))
        assert out["recall"] == pytest.approx(recall(true, pred))
