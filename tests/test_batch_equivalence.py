"""Batch/sequential equivalence of the batched sampling engine.

The batched path (``sample_batch``) must degrade gracefully to the
paper's sequential protocol: a batch of one is *bit-identical* to a
sequential step under the same random state, and larger batches — which
freeze each sampler's proposal for the block — must agree statistically
with the sequential estimates on the same pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OASISSampler
from repro.core.bayes import BetaBernoulliModel
from repro.core.estimators import AISEstimator
from repro.core.stratification import stratify
from repro.oracle import CountingOracle, DeterministicOracle, NoisyOracle
from repro.samplers import (
    ImportanceSampler,
    OSSSampler,
    PassiveSampler,
    StratifiedSampler,
)

SEED = 20260729


def _factories(threshold=0.0):
    return {
        "oasis": lambda p, s, o, r: OASISSampler(
            p, s, o, n_strata=12, threshold=threshold, random_state=r
        ),
        "passive": lambda p, s, o, r: PassiveSampler(p, s, o, random_state=r),
        "stratified": lambda p, s, o, r: StratifiedSampler(
            p, s, o, n_strata=12, random_state=r
        ),
        "importance": lambda p, s, o, r: ImportanceSampler(
            p, s, o, threshold=threshold, random_state=r
        ),
        "oss": lambda p, s, o, r: OSSSampler(
            p, s, o, n_strata=12, random_state=r
        ),
    }


def _build(name, pool, oracle_cls=DeterministicOracle, seed=SEED):
    factory = _factories()[name]
    oracle = oracle_cls(pool["true_labels"])
    return factory(pool["predictions"], pool["scores"], oracle, seed)


@pytest.mark.parametrize("name", sorted(_factories()))
def test_batch_of_one_is_bit_identical(name, imbalanced_pool):
    """``sample_batch(1)`` reproduces ``sample()`` exactly, per draw."""
    n_iterations = 150
    sequential = _build(name, imbalanced_pool)
    sequential.sample(n_iterations)

    batched = _build(name, imbalanced_pool)
    for __ in range(n_iterations):
        batched.sample_batch(1)

    np.testing.assert_array_equal(batched.sampled_indices,
                                  sequential.sampled_indices)
    np.testing.assert_array_equal(batched.budget_history,
                                  sequential.budget_history)
    np.testing.assert_array_equal(
        np.asarray(batched.history), np.asarray(sequential.history)
    )
    assert batched.queried_labels == sequential.queried_labels
    # The random streams must stay aligned too, not just the outputs.
    assert batched.rng.random() == sequential.rng.random()


def test_batch_of_one_oasis_diagnostics_identical(imbalanced_pool):
    """Diagnostic snapshots also agree between the two paths."""
    def build():
        oracle = DeterministicOracle(imbalanced_pool["true_labels"])
        return OASISSampler(
            imbalanced_pool["predictions"], imbalanced_pool["scores"], oracle,
            n_strata=12, record_diagnostics=True, random_state=SEED,
        )

    sequential = build()
    sequential.sample(60)
    batched = build()
    for __ in range(60):
        batched.sample_batch(1)

    assert len(batched.pi_history) == len(sequential.pi_history)
    for seq_pi, bat_pi in zip(sequential.pi_history, batched.pi_history):
        np.testing.assert_array_equal(seq_pi, bat_pi)
    for seq_v, bat_v in zip(
        sequential.instrumental_history, batched.instrumental_history
    ):
        np.testing.assert_array_equal(seq_v, bat_v)
    np.testing.assert_array_equal(
        sequential.weight_history, batched.weight_history
    )


@pytest.mark.parametrize("name", sorted(_factories()))
def test_batched_estimates_agree_statistically(name, imbalanced_pool):
    """Large batches stay consistent: both paths approach the true F."""
    labels = imbalanced_pool["true_labels"]
    predictions = imbalanced_pool["predictions"]
    tp = float(np.sum(labels * predictions))
    truth = tp / (0.5 * predictions.sum() + 0.5 * labels.sum())

    def mean_estimate(batch_size, n_repeats=5):
        estimates = []
        for repeat in range(n_repeats):
            sampler = _build(name, imbalanced_pool, seed=SEED + repeat)
            sampler.sample_until_budget(600, batch_size=batch_size)
            estimates.append(sampler.estimate)
        return float(np.mean(estimates))

    sequential_mean = mean_estimate(1)
    batched_mean = mean_estimate(64)
    assert abs(batched_mean - truth) < 0.15
    assert abs(batched_mean - sequential_mean) < 0.15


def test_sample_with_batch_size_matches_sample_batch_blocks(imbalanced_pool):
    """``sample(n, batch_size=B)`` is the chunked ``sample_batch`` loop."""
    blocks = _build("oasis", imbalanced_pool)
    blocks.sample_batch(64)
    blocks.sample_batch(64)
    blocks.sample_batch(22)

    chunked = _build("oasis", imbalanced_pool)
    chunked.sample(150, batch_size=64)

    np.testing.assert_array_equal(chunked.sampled_indices,
                                  blocks.sampled_indices)
    np.testing.assert_array_equal(
        np.asarray(chunked.history), np.asarray(blocks.history)
    )


def test_sample_until_budget_batched_reaches_budget(imbalanced_pool):
    sampler = _build("oasis", imbalanced_pool)
    budget = 300
    batch_size = 64
    sampler.sample_until_budget(budget, batch_size=batch_size)
    # Exact-budget semantics: the final block is capped at the
    # remaining budget, so batched runs bill exactly `budget` labels.
    assert sampler.labels_consumed == budget
    # Per-draw budget history stays monotone through the blocks.
    assert all(
        a <= b
        for a, b in zip(sampler.budget_history, sampler.budget_history[1:])
    )


def test_batched_history_has_one_entry_per_draw(imbalanced_pool):
    sampler = _build("oasis", imbalanced_pool)
    sampler.sample_batch(37)
    sampler.sample_batch(5)
    assert len(sampler.history) == 42
    assert len(sampler.budget_history) == 42
    assert len(sampler.sampled_indices) == 42


def test_repeated_index_in_batch_gets_one_oracle_query(rng):
    """Cache-aware dedup: a batch re-draw is free (footnote 5)."""
    labels = rng.integers(0, 2, size=50).astype(np.int8)
    oracle = CountingOracle(DeterministicOracle(labels))
    sampler = PassiveSampler(
        np.ones(50, dtype=np.int8), np.linspace(0, 1, 50), oracle,
        random_state=0,
    )
    indices = np.array([3, 7, 3, 3, 9, 7, 11])
    queried, new_mask = sampler._query_labels(indices)
    assert oracle.n_queries == 4
    assert oracle.n_distinct == 4
    np.testing.assert_array_equal(queried, labels[indices])
    # First occurrences of 3, 7, 9, 11 consume budget; repeats do not.
    np.testing.assert_array_equal(
        new_mask, [True, True, False, False, True, False, True]
    )
    # A second batch over the same indices is fully cached.
    queried_again, new_again = sampler._query_labels(indices)
    assert oracle.n_queries == 4
    assert not new_again.any()
    np.testing.assert_array_equal(queried_again, queried)


def test_query_many_consistent_for_stochastic_oracle():
    """Within one batch a randomised oracle cannot contradict itself."""
    oracle = NoisyOracle(probabilities=np.full(20, 0.5), random_state=1)
    indices = np.array([4, 4, 4, 9, 9, 4])
    labels = oracle.query_many(indices)
    assert len(set(labels[indices == 4].tolist())) == 1
    assert len(set(labels[indices == 9].tolist())) == 1


def test_query_many_matches_sequential_stream():
    """Bulk noisy labelling consumes the RNG like a sequential loop."""
    probs = np.linspace(0.05, 0.95, 30)
    sequential = NoisyOracle(probabilities=probs, random_state=7)
    batched = NoisyOracle(probabilities=probs, random_state=7)
    indices = [5, 17, 2, 29]
    expected = [sequential.label(i) for i in indices]
    np.testing.assert_array_equal(batched.query_many(indices), expected)


def test_estimator_update_batch_matches_loop(rng):
    n = 200
    labels = rng.integers(0, 2, size=n)
    predictions = rng.integers(0, 2, size=n)
    weights = rng.random(n) * 3

    looped = AISEstimator(alpha=0.5, track_observations=True)
    loop_history = []
    for l, p, w in zip(labels, predictions, weights):
        looped.update(int(l), int(p), float(w))
        loop_history.append(looped.estimate)

    batched = AISEstimator(alpha=0.5, track_observations=True)
    trajectory = batched.update_batch(labels, predictions, weights)

    np.testing.assert_allclose(trajectory, loop_history, rtol=1e-12)
    assert batched.state() == pytest.approx(looped.state())
    assert batched.n_observations == looped.n_observations
    # Delta-method variance sees the same observation log.
    assert batched.variance_estimate() == pytest.approx(
        looped.variance_estimate()
    )


def test_model_update_batch_matches_loop(rng):
    k = 8
    prior = np.ones((2, k))
    strata = rng.integers(0, k, size=300)
    labels = rng.integers(0, 2, size=300)

    looped = BetaBernoulliModel(prior, decaying_prior=True)
    for s, l in zip(strata, labels):
        looped.update(int(s), int(l))
    batched = BetaBernoulliModel(prior, decaying_prior=True)
    batched.update_batch(strata, labels)

    np.testing.assert_array_equal(batched.gamma, looped.gamma)
    np.testing.assert_array_equal(
        batched.labels_per_stratum, looped.labels_per_stratum
    )


def test_model_update_batch_validates():
    model = BetaBernoulliModel(np.ones((2, 4)))
    with pytest.raises(IndexError):
        model.update_batch([0, 5], [1, 0])
    with pytest.raises(ValueError):
        model.update_batch([0, 1], [1, 2])
    model.update_batch([], [])  # no-op
    np.testing.assert_array_equal(model.labels_per_stratum, np.zeros(4))


def test_sample_in_strata_matches_scalar_draws(rng):
    scores = rng.random(500)
    strata = stratify(scores, 10)
    requested = rng.integers(0, strata.n_strata, size=64)
    drawn = strata.sample_in_strata(requested, rng)
    assert drawn.shape == requested.shape
    np.testing.assert_array_equal(strata.allocations[drawn], requested)
    # A single-entry batch consumes the stream like the scalar method.
    r1 = np.random.default_rng(3)
    r2 = np.random.default_rng(3)
    scalar = strata.sample_in_stratum(4, r1)
    vector = strata.sample_in_strata(np.array([4]), r2)
    assert vector[0] == scalar
    assert r1.random() == r2.random()


def test_oasis_diagnostics_are_owned_copies(imbalanced_pool):
    """Recorded snapshots must not alias live model/proposal state."""
    oracle = DeterministicOracle(imbalanced_pool["true_labels"])
    sampler = OASISSampler(
        imbalanced_pool["predictions"], imbalanced_pool["scores"], oracle,
        n_strata=12, record_diagnostics=True, random_state=SEED,
    )
    sampler.sample(5)
    sampler.sample_batch(16)
    frozen = [pi.copy() for pi in sampler.pi_history]
    model = sampler.model
    for snapshot in sampler.pi_history:
        assert not np.shares_memory(snapshot, model._prior)
        assert not np.shares_memory(snapshot, model._counts)
    # Further sampling must leave recorded snapshots untouched.
    sampler.sample(20)
    for before, after in zip(frozen, sampler.pi_history):
        np.testing.assert_array_equal(before, after)
