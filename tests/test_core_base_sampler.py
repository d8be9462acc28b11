"""Tests for the shared sampler base class contract."""

import numpy as np
import pytest

from repro.core.base import BaseEvaluationSampler
from repro.oracle import DeterministicOracle
from repro.samplers import PassiveSampler


def make(n=50, seed=0):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.3).astype(np.int8)
    scores = labels + rng.normal(0, 0.4, size=n)
    predictions = (scores > 0.5).astype(np.int8)
    return PassiveSampler(
        predictions, scores, DeterministicOracle(labels), random_state=seed
    )


class TestValidation:
    def test_misaligned_inputs(self):
        oracle = DeterministicOracle([1, 0])
        with pytest.raises(ValueError, match="aligned"):
            PassiveSampler(np.array([1, 0]), np.array([0.5]), oracle)

    def test_two_dimensional_rejected(self):
        oracle = DeterministicOracle([1, 0])
        with pytest.raises(ValueError):
            PassiveSampler(
                np.array([[1, 0]]), np.array([[0.5, 0.2]]), oracle
            )

    def test_bad_oracle_label_rejected(self):
        class BadOracle:
            def label(self, index):
                return 7

        sampler = PassiveSampler(
            np.array([1, 0]), np.array([1.0, 0.0]), BadOracle(), random_state=0
        )
        with pytest.raises(ValueError, match="non-binary"):
            sampler.sample(5)

    def test_sampler_without_the_batched_split_cannot_be_built(self):
        # Every sampler serves the propose/ingest protocol, so the two
        # halves of the batched step are abstract, like ``_step``.
        class StepOnly(BaseEvaluationSampler):
            def _step(self):
                pass

        with pytest.raises(TypeError, match="_commit_batch.*_propose_batch"):
            StepOnly([1, 0], [1.0, 0.0], DeterministicOracle([1, 0]))


class TestSamplingContract:
    def test_estimate_nan_before_sampling(self):
        assert np.isnan(make().estimate)

    def test_sample_zero_iterations(self):
        sampler = make()
        sampler.sample(0)
        np.testing.assert_array_equal(sampler.history, [])

    def test_sample_negative_rejected(self):
        with pytest.raises(ValueError, match="n_iterations"):
            make().sample(-1)

    def test_sample_distinct_alias(self):
        a = make(seed=3)
        b = make(seed=3)
        a.sample_until_budget(20)
        b.sample_distinct(20)
        assert a.labels_consumed == b.labels_consumed
        np.testing.assert_allclose(a.history, b.history, equal_nan=True)

    def test_budget_capped_at_pool_size(self):
        sampler = make(n=30)
        sampler.sample_until_budget(10_000, max_iterations=100_000)
        assert sampler.labels_consumed <= 30

    def test_max_iterations_bounds_loop(self):
        sampler = make(n=40)
        sampler.sample_until_budget(40, max_iterations=5)
        assert len(sampler.history) == 5

    def test_estimate_at_budgets_empty_history(self):
        sampler = make()
        out = sampler.estimate_at_budgets([10, 20])
        assert np.isnan(out).all()

    def test_estimate_at_budgets_before_first_label(self):
        sampler = make()
        sampler.sample(10)
        out = sampler.estimate_at_budgets([0])
        # Budget 0 precedes every record: NaN.
        assert np.isnan(out[0])

    def test_query_label_caches(self):
        sampler = make()
        first = sampler._query_label(3)
        second = sampler._query_label(3)
        assert first == second
        assert sampler.labels_consumed == 1


class TestExactBudget:
    """Batched runs bill the oracle exactly ``budget`` distinct labels.

    Regression for the old behaviour where the final block could
    overshoot by up to ``batch_size - 1`` labels.
    """

    @pytest.mark.parametrize("batch_size", [1, 3, 16, 64])
    def test_labels_consumed_is_exact(self, batch_size):
        sampler = make(n=200, seed=1)
        sampler.sample_until_budget(50, batch_size=batch_size)
        assert sampler.labels_consumed == 50

    def test_identical_bill_across_batch_sizes(self):
        consumed = []
        for batch_size in (1, 4, 7, 32, 128):
            sampler = make(n=300, seed=2)
            sampler.sample_until_budget(80, batch_size=batch_size)
            consumed.append(sampler.labels_consumed)
        assert consumed == [80] * len(consumed)

    def test_budget_smaller_than_batch(self):
        sampler = make(n=200, seed=3)
        sampler.sample_until_budget(5, batch_size=64)
        assert sampler.labels_consumed == 5

    def test_exactness_survives_cache_hits(self):
        # A tiny pool forces many re-draws of cached items inside each
        # block; the cap must count *distinct* labels, not draws.
        sampler = make(n=25, seed=4)
        sampler.sample_until_budget(20, batch_size=8)
        assert sampler.labels_consumed == 20

    def test_max_iterations_still_bounds(self):
        sampler = make(n=40, seed=5)
        sampler.sample_until_budget(40, batch_size=8, max_iterations=6)
        assert len(sampler.history) == 6


class TestEstimateAtBudgets:
    """Edge cases of the budget-indexed history lookup."""

    def _with_history(self, history, budget_history):
        sampler = make()
        sampler._load_trajectory({
            "history": history, "budget_history": budget_history,
            "sampled_indices": np.zeros(len(history))})
        return sampler

    def test_budgets_below_first_entry_are_nan(self):
        sampler = self._with_history([0.4, 0.5], [3, 4])
        out = sampler.estimate_at_budgets([1, 2, 3])
        assert np.isnan(out[0]) and np.isnan(out[1])
        assert out[2] == pytest.approx(0.4)

    def test_nan_prefixed_history_returns_nan_not_skip(self):
        # Undefined early estimates are reported as NaN at their
        # budgets, not papered over with a later defined value.
        sampler = self._with_history(
            [np.nan, np.nan, 0.5, 0.6], [1, 2, 2, 3]
        )
        out = sampler.estimate_at_budgets([1, 2, 3, 10])
        assert np.isnan(out[0])
        assert out[1] == pytest.approx(0.5)  # latest entry at budget 2
        assert out[2] == pytest.approx(0.6)
        assert out[3] == pytest.approx(0.6)  # past the end: last estimate

    def test_intra_batch_plateaus_pick_latest(self):
        # Cached re-draws add history entries without consuming budget;
        # the lookup must return the *latest* estimate at each budget.
        sampler = self._with_history(
            [0.1, 0.2, 0.3, 0.4, 0.5], [1, 1, 1, 2, 2]
        )
        out = sampler.estimate_at_budgets([1, 2])
        assert out[0] == pytest.approx(0.3)
        assert out[1] == pytest.approx(0.5)

    def test_batched_run_consistent_with_history(self):
        # Cross-check the vectorised lookup against a manual scan on a
        # real batched run with heavy intra-batch cache re-draws.
        sampler = make(n=25, seed=7)
        sampler.sample_until_budget(18, batch_size=8)
        budgets = [1, 5, 10, 18]
        out = sampler.estimate_at_budgets(budgets)
        consumed = np.asarray(sampler.budget_history)
        history = np.asarray(sampler.history)
        for b, got in zip(budgets, out):
            positions = np.flatnonzero(consumed <= b)
            expected = history[positions[-1]] if len(positions) else np.nan
            np.testing.assert_equal(got, expected)
