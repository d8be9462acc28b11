"""Tests for the labelling oracles."""

import numpy as np
import pytest

from repro.oracle import (
    CountingOracle,
    CrowdOracle,
    DeterministicOracle,
    NoisyOracle,
)


class TestDeterministicOracle:
    def test_labels_match_ground_truth(self):
        oracle = DeterministicOracle([1, 0, 1])
        assert oracle.label(0) == 1
        assert oracle.label(1) == 0
        assert oracle.label(2) == 1

    def test_probability_zero_one(self):
        oracle = DeterministicOracle([1, 0])
        assert oracle.probability(0) == 1.0
        assert oracle.probability(1) == 0.0

    def test_callable_interface(self):
        oracle = DeterministicOracle([0, 1])
        assert oracle(1) == 1

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            DeterministicOracle([0, 2])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            DeterministicOracle([[0, 1]])

    def test_labels_view_read_only(self):
        oracle = DeterministicOracle([0, 1])
        with pytest.raises(ValueError):
            oracle.labels[0] = 1

    def test_len(self):
        assert len(DeterministicOracle([0, 1, 0])) == 3


class TestNoisyOracle:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            NoisyOracle()
        with pytest.raises(ValueError, match="exactly one"):
            NoisyOracle([0.5], true_labels=[1])

    def test_probability_passthrough(self):
        oracle = NoisyOracle([0.3, 0.9])
        assert oracle.probability(0) == pytest.approx(0.3)
        assert oracle.probability(1) == pytest.approx(0.9)

    def test_flip_probability_construction(self):
        oracle = NoisyOracle(true_labels=[1, 0], flip_prob=0.1)
        assert oracle.probability(0) == pytest.approx(0.9)
        assert oracle.probability(1) == pytest.approx(0.1)

    def test_extreme_probabilities_deterministic(self):
        oracle = NoisyOracle([1.0, 0.0], random_state=0)
        assert all(oracle.label(0) == 1 for __ in range(20))
        assert all(oracle.label(1) == 0 for __ in range(20))

    def test_empirical_rate_close(self):
        oracle = NoisyOracle([0.7], random_state=0)
        draws = [oracle.label(0) for __ in range(4000)]
        assert np.mean(draws) == pytest.approx(0.7, abs=0.03)

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            NoisyOracle([1.5])

    def test_invalid_flip_raises(self):
        with pytest.raises(ValueError, match="flip_prob"):
            NoisyOracle(true_labels=[1], flip_prob=0.6)


class TestCrowdOracle:
    def test_even_workers_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            CrowdOracle([1, 0], [0.9, 0.9])

    def test_perfect_workers(self):
        oracle = CrowdOracle([1, 0, 1], [1.0, 1.0, 1.0], random_state=0)
        assert oracle.label(0) == 1
        assert oracle.label(1) == 0
        assert oracle.majority_accuracy == pytest.approx(1.0)

    def test_majority_accuracy_homogeneous(self):
        # 3 workers at 0.8: P(majority correct) = p^3 + 3 p^2 (1-p).
        oracle = CrowdOracle([1], [0.8, 0.8, 0.8], random_state=0)
        expected = 0.8**3 + 3 * 0.8**2 * 0.2
        assert oracle.majority_accuracy == pytest.approx(expected)

    def test_majority_beats_single_worker(self):
        oracle = CrowdOracle([1], [0.7] * 5, random_state=0)
        assert oracle.majority_accuracy > 0.7

    def test_probability_reflects_truth(self):
        oracle = CrowdOracle([1, 0], [0.9, 0.9, 0.9], random_state=0)
        assert oracle.probability(0) == pytest.approx(oracle.majority_accuracy)
        assert oracle.probability(1) == pytest.approx(1 - oracle.majority_accuracy)

    def test_empirical_accuracy(self):
        oracle = CrowdOracle([1], [0.8, 0.8, 0.8], random_state=1)
        draws = [oracle.label(0) for __ in range(3000)]
        assert np.mean(draws) == pytest.approx(oracle.majority_accuracy, abs=0.03)

    def test_wilson_interval_contains_p(self):
        oracle = CrowdOracle([1], [0.8] * 3, random_state=0)
        lo, hi = oracle.wilson_interval(100)
        assert lo <= oracle.majority_accuracy <= hi

    def test_wilson_interval_shrinks(self):
        oracle = CrowdOracle([1], [0.8] * 3, random_state=0)
        lo1, hi1 = oracle.wilson_interval(50)
        lo2, hi2 = oracle.wilson_interval(5000)
        assert (hi2 - lo2) < (hi1 - lo1)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_wilson_interval_rejects_confidence_outside_unit_interval(
            self, confidence):
        oracle = CrowdOracle([1], [0.8] * 3, random_state=0)
        with pytest.raises(ValueError, match="confidence"):
            oracle.wilson_interval(100, confidence)

    def test_invalid_accuracy_raises(self):
        with pytest.raises(ValueError):
            CrowdOracle([1], [1.2])


class TestCountingOracle:
    def test_counts_every_query(self):
        oracle = CountingOracle(DeterministicOracle([1, 0, 1]))
        oracle.label(0)
        oracle.label(0)
        oracle.label(2)
        assert oracle.n_queries == 3
        assert oracle.n_distinct == 2

    def test_probability_passthrough(self):
        oracle = CountingOracle(DeterministicOracle([1, 0]))
        assert oracle.probability(0) == 1.0
        assert oracle.n_queries == 0  # probability is not a query

    def test_reset(self):
        oracle = CountingOracle(DeterministicOracle([1]))
        oracle.label(0)
        oracle.reset()
        assert oracle.n_queries == 0
        assert oracle.n_distinct == 0
