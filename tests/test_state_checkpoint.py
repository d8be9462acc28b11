"""Checkpoint round-trips: snapshot → restore → continue is bit-identical.

The serving layer's core guarantee (ISSUE 4): for every sampler type,
restoring a ``state_dict`` snapshot into an identically-constructed
sampler and continuing produces exactly the trajectory of the
uninterrupted run — histories, sampled indices, estimates and the RNG
stream itself.  Snapshots are pushed through the JSON codec in these
tests, so what is proven is the full wire-format round-trip, not just
in-memory copying.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AISEstimator, BetaBernoulliModel, OASISSampler, Strata, stratify
from repro.oracle import DeterministicOracle, NoisyOracle
from repro.samplers import (
    ImportanceSampler,
    OSSSampler,
    PassiveSampler,
    StratifiedSampler,
)
from repro.service.codec import load_state, dump_state

N_ITEMS = 400


def make_pool(seed=0, n=N_ITEMS):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.1).astype(np.int8)
    scores = rng.normal(size=n) + 2.5 * labels
    predictions = (scores > 0.5).astype(np.int8)
    return predictions, scores, labels


SAMPLER_FACTORIES = {
    "oasis": lambda p, s, o, seed: OASISSampler(
        p, s, o, n_strata=8, random_state=seed),
    "oasis_diag": lambda p, s, o, seed: OASISSampler(
        p, s, o, n_strata=8, record_diagnostics=True, random_state=seed),
    "passive": lambda p, s, o, seed: PassiveSampler(p, s, o, random_state=seed),
    "stratified": lambda p, s, o, seed: StratifiedSampler(
        p, s, o, n_strata=6, random_state=seed),
    "importance": lambda p, s, o, seed: ImportanceSampler(
        p, s, o, random_state=seed),
    "oss": lambda p, s, o, seed: OSSSampler(p, s, o, n_strata=6, random_state=seed),
}


def snapshot_roundtrip(sampler):
    """state_dict through the JSON wire format and back."""
    return load_state(dump_state(sampler.state_dict()))


def assert_samplers_identical(a, b):
    np.testing.assert_array_equal(
        np.asarray(a.history), np.asarray(b.history))
    np.testing.assert_array_equal(a.budget_history, b.budget_history)
    np.testing.assert_array_equal(a.sampled_indices, b.sampled_indices)
    assert a.queried_labels == b.queried_labels
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    est_a, est_b = a.estimate, b.estimate
    assert est_a == est_b or (np.isnan(est_a) and np.isnan(est_b))


@pytest.mark.parametrize("kind", sorted(SAMPLER_FACTORIES))
@pytest.mark.parametrize("batch_size", [1, 7])
def test_snapshot_restore_continue_bit_identical(kind, batch_size):
    predictions, scores, labels = make_pool()
    factory = SAMPLER_FACTORIES[kind]

    uninterrupted = factory(predictions, scores, DeterministicOracle(labels), 5)
    uninterrupted.sample(40, batch_size=batch_size)
    uninterrupted.sample(40, batch_size=batch_size)

    first = factory(predictions, scores, DeterministicOracle(labels), 5)
    first.sample(40, batch_size=batch_size)
    state = snapshot_roundtrip(first)

    # Restore into a sampler built with a DIFFERENT seed: everything
    # that matters must come from the snapshot, not the constructor.
    resumed = factory(predictions, scores, DeterministicOracle(labels), 999)
    resumed.load_state_dict(state)
    resumed.sample(40, batch_size=batch_size)

    assert_samplers_identical(resumed, uninterrupted)


@pytest.mark.parametrize("kind", sorted(SAMPLER_FACTORIES))
def test_snapshot_does_not_disturb_the_donor(kind):
    predictions, scores, labels = make_pool()
    factory = SAMPLER_FACTORIES[kind]
    a = factory(predictions, scores, DeterministicOracle(labels), 5)
    b = factory(predictions, scores, DeterministicOracle(labels), 5)
    a.sample(30)
    b.sample(30)
    a.state_dict()  # snapshotting must be a pure read
    a.sample(30)
    b.sample(30)
    assert_samplers_identical(a, b)


def test_restore_with_noisy_oracle_stream():
    """The sampler snapshot composes with an external oracle stream."""
    predictions, scores, labels = make_pool()

    def run(split):
        oracle = NoisyOracle(labels, flip_prob=0.2, random_state=77)
        sampler = OASISSampler(predictions, scores, oracle, n_strata=8,
                               random_state=5)
        if split:
            sampler.sample(25)
            state = snapshot_roundtrip(sampler)
            oracle2 = NoisyOracle(labels, flip_prob=0.2, random_state=77)
            # replay the oracle's consumed randomness: re-query the
            # same distinct indices in the same order
            oracle2.query_many(np.fromiter(sampler.queried_labels.keys(),
                                           dtype=np.int64))
            resumed = OASISSampler(predictions, scores, oracle2, n_strata=8,
                                   random_state=5)
            resumed.load_state_dict(state)
            resumed.sample(25)
            return resumed
        sampler.sample(50)
        return sampler

    assert_samplers_identical(run(split=True), run(split=False))


class TestValidation:
    def test_wrong_class_rejected(self):
        predictions, scores, labels = make_pool()
        a = PassiveSampler(predictions, scores, DeterministicOracle(labels),
                           random_state=0)
        b = ImportanceSampler(predictions, scores, DeterministicOracle(labels),
                              random_state=0)
        with pytest.raises(ValueError, match="captured from"):
            b.load_state_dict(a.state_dict())

    def test_wrong_pool_size_rejected(self):
        predictions, scores, labels = make_pool()
        a = PassiveSampler(predictions, scores, DeterministicOracle(labels),
                           random_state=0)
        small = PassiveSampler(predictions[:100], scores[:100],
                               DeterministicOracle(labels[:100]), random_state=0)
        with pytest.raises(ValueError, match="pool"):
            small.load_state_dict(a.state_dict())

    def test_wrong_stratification_rejected(self):
        predictions, scores, labels = make_pool()
        a = OASISSampler(predictions, scores, DeterministicOracle(labels),
                         n_strata=8, random_state=0)
        b = OASISSampler(predictions, scores, DeterministicOracle(labels),
                         n_strata=20, random_state=0)
        with pytest.raises(ValueError, match="stratification"):
            b.load_state_dict(a.state_dict())

    def test_unsupported_version_rejected(self):
        predictions, scores, labels = make_pool()
        a = PassiveSampler(predictions, scores, DeterministicOracle(labels),
                           random_state=0)
        state = a.state_dict()
        state["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            a.load_state_dict(state)

    def test_wrong_alpha_rejected(self):
        predictions, scores, labels = make_pool()
        a = PassiveSampler(predictions, scores, DeterministicOracle(labels),
                           alpha=0.5, random_state=0)
        b = PassiveSampler(predictions, scores, DeterministicOracle(labels),
                           alpha=0.7, random_state=0)
        with pytest.raises(ValueError, match="alpha"):
            b.load_state_dict(a.state_dict())


class TestComponentStates:
    def test_estimator_roundtrip_preserves_confidence_interval(self):
        rng = np.random.default_rng(3)
        est = AISEstimator(alpha=0.5, track_observations=True)
        for _ in range(50):
            est.update(int(rng.random() < 0.4), int(rng.random() < 0.5),
                       float(rng.random()))
        clone = AISEstimator(alpha=0.5, track_observations=True)
        clone.load_state_dict(load_state(dump_state(est.state_dict())))
        assert clone.estimate == est.estimate
        assert clone.confidence_interval() == est.confidence_interval()

    def test_model_roundtrip(self):
        prior = np.array([[1.0, 2.0, 0.5], [1.5, 1.0, 2.5]])
        model = BetaBernoulliModel(prior, decaying_prior=True)
        model.update_batch([0, 1, 2, 1], [1, 0, 1, 1])
        clone = BetaBernoulliModel(np.ones_like(prior))
        clone.load_state_dict(load_state(dump_state(model.state_dict())))
        np.testing.assert_array_equal(clone.gamma, model.gamma)
        np.testing.assert_array_equal(clone.posterior_mean(),
                                      model.posterior_mean())

    def test_strata_roundtrip_draws_identically(self):
        scores = np.random.default_rng(0).normal(size=300)
        strata = stratify(scores, 10)
        clone = Strata.from_state_dict(
            load_state(dump_state(strata.state_dict())))
        assert clone.checksum() == strata.checksum()
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        draws = np.arange(clone.n_strata).repeat(5)
        np.testing.assert_array_equal(
            clone.sample_in_strata(draws, rng_a),
            strata.sample_in_strata(draws, rng_b),
        )


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(sorted(SAMPLER_FACTORIES)),
    seed=st.integers(0, 2**32 - 1),
    pool_seed=st.integers(0, 10),
    blocks=st.lists(st.integers(1, 16), min_size=2, max_size=10),
    data=st.data(),
)
def test_checkpoint_roundtrip_property(kind, seed, pool_seed, blocks, data):
    """Hypothesis: any block-boundary split, seed and batch sizes round-trip.

    The run is a sequence of ``sample_batch`` blocks of arbitrary
    sizes; the snapshot is taken between two blocks (block boundaries
    are where a live service snapshots — an outstanding mid-block
    proposal is covered by the session-layer tests).
    """
    predictions, scores, labels = make_pool(pool_seed, n=200)
    factory = SAMPLER_FACTORIES[kind]
    split = data.draw(st.integers(1, len(blocks) - 1))

    uninterrupted = factory(predictions, scores, DeterministicOracle(labels), seed)
    for block in blocks:
        uninterrupted.sample_batch(block)

    first = factory(predictions, scores, DeterministicOracle(labels), seed)
    for block in blocks[:split]:
        first.sample_batch(block)
    resumed = factory(predictions, scores, DeterministicOracle(labels), seed + 1)
    resumed.load_state_dict(snapshot_roundtrip(first))
    for block in blocks[split:]:
        resumed.sample_batch(block)

    assert_samplers_identical(resumed, uninterrupted)
