"""Tests for the OASIS sampler (Algorithm 3)."""

import numpy as np
import pytest

from repro.core import OASISSampler, csf_stratify
from repro.measures import pool_performance
from repro.oracle import CountingOracle, DeterministicOracle


@pytest.fixture
def pool(imbalanced_pool):
    return imbalanced_pool


def make_sampler(pool, seed=0, **kwargs):
    oracle = DeterministicOracle(pool["true_labels"])
    return OASISSampler(
        pool["predictions"], pool["scores"], oracle, random_state=seed, **kwargs
    )


class TestConstruction:
    def test_strata_built_from_scores(self, pool):
        sampler = make_sampler(pool, n_strata=25)
        assert 1 <= sampler.n_strata <= 25

    def test_prebuilt_strata_reused(self, pool):
        strata = csf_stratify(pool["scores"], 12)
        sampler = make_sampler(pool, strata=strata)
        assert sampler.strata is strata

    def test_prebuilt_strata_size_checked(self, pool):
        strata = csf_stratify(pool["scores"][:-10], 12)
        with pytest.raises(ValueError, match="cover"):
            make_sampler(pool, strata=strata)

    def test_epsilon_validation(self, pool):
        with pytest.raises(ValueError, match="epsilon"):
            make_sampler(pool, epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            make_sampler(pool, epsilon=1.5)

    def test_alpha_validation(self, pool):
        with pytest.raises(ValueError, match="alpha"):
            make_sampler(pool, alpha=-0.2)

    def test_empty_pool_rejected(self):
        oracle = DeterministicOracle([1])
        with pytest.raises(ValueError, match="non-empty"):
            OASISSampler(np.array([]), np.array([]), oracle)

    def test_non_binary_predictions_rejected(self, pool):
        oracle = DeterministicOracle(pool["true_labels"])
        bad = pool["predictions"].astype(int) + 1
        with pytest.raises(ValueError, match="binary"):
            OASISSampler(bad, pool["scores"], oracle)

    def test_initial_f_from_scores(self, pool):
        sampler = make_sampler(pool)
        assert 0.0 <= sampler.initial_f_measure <= 1.0


class TestSamplingMechanics:
    def test_instrumental_is_distribution(self, pool):
        sampler = make_sampler(pool)
        v = sampler.instrumental_distribution()
        assert v.sum() == pytest.approx(1.0)
        assert np.all(v > 0)  # epsilon-greedy: strictly positive

    def test_epsilon_floor_on_instrumental(self, pool):
        sampler = make_sampler(pool, epsilon=0.1)
        v = sampler.instrumental_distribution()
        floor = 0.1 * sampler.strata.weights
        assert np.all(v >= floor - 1e-12)

    def test_histories_aligned(self, pool):
        sampler = make_sampler(pool)
        sampler.sample(50)
        assert len(sampler.history) == 50
        assert len(sampler.budget_history) == 50
        assert len(sampler.sampled_indices) == 50

    def test_budget_monotone_nondecreasing(self, pool):
        sampler = make_sampler(pool)
        sampler.sample(100)
        budgets = np.asarray(sampler.budget_history)
        assert np.all(np.diff(budgets) >= 0)

    def test_label_caching_budget_less_than_iterations(self, pool):
        sampler = make_sampler(pool)
        sampler.sample(400)
        # With replacement, some redraws must have hit the cache on
        # this heavily-exploited pool.
        assert sampler.labels_consumed < 400

    def test_oracle_queried_once_per_item(self, pool):
        oracle = CountingOracle(DeterministicOracle(pool["true_labels"]))
        sampler = OASISSampler(
            pool["predictions"], pool["scores"], oracle, random_state=0
        )
        sampler.sample(300)
        assert oracle.n_queries == oracle.n_distinct == sampler.labels_consumed

    def test_sample_until_budget_reaches_target(self, pool):
        sampler = make_sampler(pool)
        sampler.sample_until_budget(80)
        assert sampler.labels_consumed >= 80

    def test_sample_until_budget_validation(self, pool):
        sampler = make_sampler(pool)
        with pytest.raises(ValueError, match="budget"):
            sampler.sample_until_budget(0)

    def test_estimate_at_budgets(self, pool):
        sampler = make_sampler(pool)
        sampler.sample_until_budget(60)
        values = sampler.estimate_at_budgets([10, 30, 60])
        assert values.shape == (3,)
        # The last estimate matches the sampler's final state.
        assert values[-1] == pytest.approx(sampler.estimate, abs=1e-12)

    def test_posterior_updates_with_labels(self, pool):
        sampler = make_sampler(pool)
        before = sampler.pi_estimate.copy()
        sampler.sample(200)
        after = sampler.pi_estimate
        assert not np.allclose(before, after)

    def test_diagnostics_recorded_when_enabled(self, pool):
        sampler = make_sampler(pool, record_diagnostics=True)
        sampler.sample(20)
        assert len(sampler.pi_history) == 20
        assert len(sampler.instrumental_history) == 20
        assert len(sampler.weight_history) == 20

    def test_diagnostics_off_by_default(self, pool):
        sampler = make_sampler(pool)
        sampler.sample(20)
        assert sampler.pi_history == []

    def test_importance_weights_bounded(self, pool):
        # p/q <= 1/epsilon, the bound the consistency proof relies on.
        epsilon = 0.05
        sampler = make_sampler(pool, epsilon=epsilon, record_diagnostics=True)
        sampler.sample(300)
        assert max(sampler.weight_history) <= 1.0 / epsilon + 1e-9

    def test_reproducible_given_seed(self, pool):
        a = make_sampler(pool, seed=9)
        b = make_sampler(pool, seed=9)
        a.sample(100)
        b.sample(100)
        np.testing.assert_array_equal(a.sampled_indices, b.sampled_indices)
        np.testing.assert_allclose(a.history, b.history, equal_nan=True)


class TestStatisticalBehaviour:
    def test_converges_to_true_f(self, pool):
        true_f = pool_performance(pool["true_labels"], pool["predictions"])[
            "f_measure"
        ]
        errors = []
        for seed in range(5):
            sampler = make_sampler(pool, seed=seed)
            sampler.sample_until_budget(1500)
            errors.append(abs(sampler.estimate - true_f))
        assert np.mean(errors) < 0.06

    def test_full_pool_labels_give_exact_f(self, pool):
        # Label budget = pool size: the weighted estimate must agree
        # with the exhaustive F-measure (consistency end point).
        n = len(pool["scores"])
        true_f = pool_performance(pool["true_labels"], pool["predictions"])[
            "f_measure"
        ]
        sampler = make_sampler(pool, seed=1, epsilon=0.5)
        sampler.sample_until_budget(n, max_iterations=400_000)
        if sampler.labels_consumed == n:
            assert sampler.estimate == pytest.approx(true_f, abs=0.05)

    def test_beats_passive_at_small_budget(self, pool):
        from repro.samplers import PassiveSampler

        true_f = pool_performance(pool["true_labels"], pool["predictions"])[
            "f_measure"
        ]
        oasis_err, passive_err = [], []
        for seed in range(8):
            s = make_sampler(pool, seed=seed)
            s.sample_until_budget(200)
            oasis_err.append(abs(s.estimate - true_f))
            p = PassiveSampler(
                pool["predictions"],
                pool["scores"],
                DeterministicOracle(pool["true_labels"]),
                random_state=seed,
            )
            p.sample_until_budget(200)
            if not np.isnan(p.estimate):
                passive_err.append(abs(p.estimate - true_f))
        # Passive at 200 labels on a 1:125 imbalanced pool is noisy or
        # undefined; OASIS should clearly win on average.
        assert np.mean(oasis_err) < (np.mean(passive_err) if passive_err else 1.0)

    def test_precision_recall_estimates_converge(self, pool):
        perf = pool_performance(pool["true_labels"], pool["predictions"])
        sampler = make_sampler(pool, seed=3)
        sampler.sample_until_budget(1500)
        assert sampler.precision_estimate == pytest.approx(
            perf["precision"], abs=0.12
        )
        assert sampler.recall_estimate == pytest.approx(perf["recall"], abs=0.12)

    def test_epsilon_one_behaves_like_passive(self, pool):
        # epsilon = 1 samples strata by weight and items uniformly:
        # exactly the underlying distribution.
        sampler = make_sampler(pool, epsilon=1.0, record_diagnostics=True)
        sampler.sample(50)
        np.testing.assert_allclose(
            sampler.instrumental_history[0], sampler.strata.weights
        )
        assert all(w == pytest.approx(1.0) for w in sampler.weight_history)

    def test_works_with_calibrated_scores(self, pool):
        calibrated = 1.0 / (1.0 + np.exp(-pool["scores"]))
        oracle = DeterministicOracle(pool["true_labels"])
        sampler = OASISSampler(
            pool["predictions"], calibrated, oracle, random_state=0
        )
        sampler.sample_until_budget(300)
        assert 0.0 <= sampler.estimate <= 1.0
