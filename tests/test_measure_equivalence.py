"""Equivalence suite for the measure-generic refactor (ISSUE 5).

Three guarantees are proven here:

1. **Pre-refactor bit-identity** — faithful replicas of the historical
   (alpha-threaded) estimator and instrumental formulas are compared
   *bitwise* against the measure-routed implementations, and every
   sampler run with ``measure=FMeasure(alpha)`` is bit-identical to the
   same sampler run with the deprecated ``alpha=`` shim: estimates,
   per-draw histories and RNG state.
2. **Measure consistency** — ``Precision`` / ``Recall`` agree with
   ``AISEstimator.f_measure(alpha=1.0 / 0.0)``, and one recorded run
   can be read out under every measure.
3. **Schema migration** — version-1 (alpha-only) sampler snapshots
   restore into measure-aware samplers and continue bit-identically,
   and the committed v1 session fixture still restores.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AISEstimator, OASISSampler
from repro.core.instrumental import (
    optimal_instrumental_pointwise,
    stratified_optimal_instrumental,
)
from repro.measures.ratio import (
    MEASURE_KINDS,
    Accuracy,
    FMeasure,
    Precision,
    Recall,
)
from repro.oracle import DeterministicOracle
from repro.samplers import (
    ImportanceSampler,
    OSSSampler,
    PassiveSampler,
    SemiSupervisedEstimator,
    StratifiedSampler,
)
from repro.service.codec import decode_state, dump_state, load_state
from repro.utils import normalise

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def make_pool(seed=0, n=400, positive_rate=0.1):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < positive_rate).astype(np.int8)
    scores = rng.normal(size=n) + 2.5 * labels
    predictions = (scores > 0.5).astype(np.int8)
    return predictions, scores, labels


SAMPLER_FACTORIES = {
    "oasis": lambda p, s, o, seed, **kw: OASISSampler(
        p, s, o, n_strata=8, random_state=seed, **kw),
    "passive": lambda p, s, o, seed, **kw: PassiveSampler(
        p, s, o, random_state=seed, **kw),
    "stratified": lambda p, s, o, seed, **kw: StratifiedSampler(
        p, s, o, n_strata=6, random_state=seed, **kw),
    "importance": lambda p, s, o, seed, **kw: ImportanceSampler(
        p, s, o, random_state=seed, **kw),
    "oss": lambda p, s, o, seed, **kw: OSSSampler(
        p, s, o, n_strata=6, random_state=seed, **kw),
}


# ---------------------------------------------------------------------------
# 1a. The historical estimator, replicated verbatim, against the new one.
# ---------------------------------------------------------------------------


class LegacyAISEstimator:
    """The pre-refactor F-only estimator, logic copied verbatim."""

    def __init__(self, alpha=0.5):
        self.alpha = alpha
        self._weighted_tp = 0.0
        self._weighted_pred = 0.0
        self._weighted_true = 0.0

    def update(self, label, prediction, weight=1.0):
        label = float(label)
        prediction = float(prediction)
        self._weighted_tp += weight * label * prediction
        self._weighted_pred += weight * prediction
        self._weighted_true += weight * label

    def update_batch(self, labels, predictions, weights):
        labels = np.asarray(labels, dtype=float)
        predictions = np.asarray(predictions, dtype=float)
        weights = np.asarray(weights, dtype=float)

        def running(start, contributions):
            return np.cumsum(np.concatenate([[start], contributions]))[1:]

        tp_cum = running(self._weighted_tp, weights * labels * predictions)
        pred_cum = running(self._weighted_pred, weights * predictions)
        true_cum = running(self._weighted_true, weights * labels)
        denominator = self.alpha * pred_cum + (1.0 - self.alpha) * true_cum
        with np.errstate(invalid="ignore", divide="ignore"):
            trajectory = np.where(
                denominator > 0,
                np.minimum(1.0, tp_cum / denominator),
                np.nan,
            )
        self._weighted_tp = float(tp_cum[-1])
        self._weighted_pred = float(pred_cum[-1])
        self._weighted_true = float(true_cum[-1])
        return trajectory

    def f_measure(self):
        denominator = (
            self.alpha * self._weighted_pred
            + (1.0 - self.alpha) * self._weighted_true
        )
        if denominator <= 0:
            return float("nan")
        return min(1.0, self._weighted_tp / denominator)


observation_lists = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.floats(0.0, 50.0)),
    min_size=1,
    max_size=60,
)


class TestEstimatorBitIdentity:
    @settings(max_examples=80, deadline=None)
    @given(observation_lists, st.floats(0.0, 1.0))
    def test_sequential_updates(self, observations, alpha):
        legacy = LegacyAISEstimator(alpha)
        current = AISEstimator(measure=FMeasure(alpha))
        shim = AISEstimator(alpha=alpha)
        for label, prediction, weight in observations:
            legacy.update(label, prediction, weight)
            current.update(label, prediction, weight)
            shim.update(label, prediction, weight)
            expected = legacy.f_measure()
            for estimator in (current, shim):
                got = estimator.estimate
                assert got == expected or (
                    np.isnan(got) and np.isnan(expected)
                )

    @settings(max_examples=80, deadline=None)
    @given(observation_lists, observation_lists, st.floats(0.0, 1.0))
    def test_batched_trajectories(self, first, second, alpha):
        legacy = LegacyAISEstimator(alpha)
        current = AISEstimator(alpha=alpha)
        for block in (first, second):
            labels = [o[0] for o in block]
            predictions = [o[1] for o in block]
            weights = [o[2] for o in block]
            expected = legacy.update_batch(labels, predictions, weights)
            got = current.update_batch(labels, predictions, weights)
            np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------------
# 1b. The historical instrumental closed forms against the measure route.
# ---------------------------------------------------------------------------


def legacy_pointwise(underlying, predictions, oracle_probabilities,
                     f_measure, alpha=0.5):
    p = np.asarray(underlying, dtype=float)
    pred = np.asarray(predictions, dtype=float)
    prob = np.clip(np.asarray(oracle_probabilities, dtype=float), 0.0, 1.0)
    if np.isnan(f_measure):
        return normalise(p)
    f = float(np.clip(f_measure, 0.0, 1.0))
    negative_term = (1.0 - alpha) * (1.0 - pred) * f * np.sqrt(prob)
    positive_term = pred * np.sqrt(
        (alpha * f) ** 2 * (1.0 - prob) + (1.0 - f) ** 2 * prob
    )
    return normalise(p * (negative_term + positive_term))


def legacy_stratified(stratum_weights, mean_predictions, pi, f_measure,
                      alpha=0.5):
    omega = np.asarray(stratum_weights, dtype=float)
    lam = np.clip(np.asarray(mean_predictions, dtype=float), 0.0, 1.0)
    pi = np.clip(np.asarray(pi, dtype=float), 0.0, 1.0)
    if np.isnan(f_measure):
        return normalise(omega)
    f = float(np.clip(f_measure, 0.0, 1.0))
    negative_term = (1.0 - alpha) * (1.0 - lam) * f * np.sqrt(pi)
    positive_term = lam * np.sqrt(
        (alpha * f) ** 2 * (1.0 - pi) + (1.0 - f) ** 2 * pi
    )
    return normalise(omega * (negative_term + positive_term))


class TestInstrumentalBitIdentity:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 16),
        st.one_of(st.floats(-0.2, 1.2), st.just(float("nan"))),
        st.floats(0.0, 1.0),
        st.integers(0, 2**16),
    )
    def test_both_forms(self, k, f, alpha, seed):
        rng = np.random.default_rng(seed)
        base = normalise(rng.random(k) + 1e-3)
        binary_predictions = (rng.random(k) < 0.5).astype(float)
        mean_predictions = rng.random(k)
        probabilities = rng.random(k)
        measure = FMeasure(alpha)
        np.testing.assert_array_equal(
            optimal_instrumental_pointwise(
                base, binary_predictions, probabilities, f, measure=measure
            ),
            legacy_pointwise(
                base, binary_predictions, probabilities, f, alpha=alpha
            ),
        )
        np.testing.assert_array_equal(
            stratified_optimal_instrumental(
                base, mean_predictions, probabilities, f, measure=measure
            ),
            legacy_stratified(
                base, mean_predictions, probabilities, f, alpha=alpha
            ),
        )


# ---------------------------------------------------------------------------
# 1c. Full samplers: measure=FMeasure(alpha) versus the alpha= shim.
# ---------------------------------------------------------------------------


def assert_samplers_identical(a, b):
    np.testing.assert_array_equal(np.asarray(a.history), np.asarray(b.history))
    np.testing.assert_array_equal(a.budget_history, b.budget_history)
    np.testing.assert_array_equal(a.sampled_indices, b.sampled_indices)
    assert a.queried_labels == b.queried_labels
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("kind", sorted(SAMPLER_FACTORIES))
@pytest.mark.parametrize("batch_size", [1, 9])
@pytest.mark.parametrize("alpha", [0.0, 0.37, 1.0])
def test_sampler_measure_path_bit_identical(kind, batch_size, alpha):
    predictions, scores, labels = make_pool()
    factory = SAMPLER_FACTORIES[kind]
    via_alpha = factory(
        predictions, scores, DeterministicOracle(labels), 5, alpha=alpha
    )
    via_measure = factory(
        predictions, scores, DeterministicOracle(labels), 5,
        measure=FMeasure(alpha),
    )
    via_alpha.sample(60, batch_size=batch_size)
    via_measure.sample(60, batch_size=batch_size)
    assert_samplers_identical(via_alpha, via_measure)

    # A measure-targeted snapshot restores and continues identically.
    state = load_state(dump_state(via_measure.state_dict()))
    resumed = factory(
        predictions, scores, DeterministicOracle(labels), 99,
        measure=FMeasure(alpha),
    )
    resumed.load_state_dict(state)
    via_alpha.sample(30, batch_size=batch_size)
    resumed.sample(30, batch_size=batch_size)
    assert_samplers_identical(via_alpha, resumed)


def test_sampler_rejects_alpha_and_measure():
    predictions, scores, labels = make_pool(n=50)
    with pytest.raises(ValueError, match="not both"):
        PassiveSampler(
            predictions, scores, DeterministicOracle(labels),
            alpha=0.5, measure=Recall(),
        )


# ---------------------------------------------------------------------------
# 2. Measure consistency on shared moments.
# ---------------------------------------------------------------------------


class TestMeasureConsistency:
    @settings(max_examples=60, deadline=None)
    @given(observation_lists)
    def test_precision_recall_match_f_extremes(self, observations):
        fmeasure = AISEstimator(alpha=0.5)
        precision = AISEstimator(measure=Precision())
        recall = AISEstimator(measure=Recall())
        for label, prediction, weight in observations:
            for estimator in (fmeasure, precision, recall):
                estimator.update(label, prediction, weight)
        for shim, direct in (
            (fmeasure.f_measure(alpha=1.0), precision.estimate),
            (fmeasure.f_measure(alpha=0.0), recall.estimate),
            (fmeasure.precision, precision.estimate),
            (fmeasure.recall, recall.estimate),
        ):
            assert shim == direct or (np.isnan(shim) and np.isnan(direct))

    def test_one_run_reads_out_under_every_measure(self):
        rng = np.random.default_rng(2)
        estimator = AISEstimator(measure=Accuracy())
        labels = rng.integers(0, 2, size=200)
        predictions = rng.integers(0, 2, size=200)
        estimator.update_batch(labels, predictions)
        from repro.measures import confusion_counts

        counts = confusion_counts(labels, predictions)
        for kind, cls in MEASURE_KINDS.items():
            measure = cls()
            assert estimator.measure_value(measure) == pytest.approx(
                measure.value_from_counts(counts)
            ), kind

    def test_variance_and_ci_nan_on_zero_denominator(self):
        # All-negative sample: recall's denominator mass is zero.
        estimator = AISEstimator(measure=Recall(), track_observations=True)
        for __ in range(10):
            estimator.update(0, 1, 1.0)
        assert np.isnan(estimator.estimate)
        assert np.isnan(estimator.variance_estimate())
        assert estimator.confidence_interval() == (
            pytest.approx(float("nan"), nan_ok=True),
            pytest.approx(float("nan"), nan_ok=True),
        )

    def test_nonlinear_ci_is_bounded_and_finite(self):
        rng = np.random.default_rng(7)
        estimator = AISEstimator(
            measure="balanced_accuracy", track_observations=True
        )
        labels = rng.integers(0, 2, size=300)
        predictions = rng.integers(0, 2, size=300)
        weights = rng.random(300) + 0.5
        estimator.update_batch(labels, predictions, weights)
        low, high = estimator.confidence_interval()
        assert 0.0 <= low <= estimator.estimate <= high <= 1.0
        assert estimator.variance_estimate() > 0

    def test_nonlinear_variance_matches_linear_form_for_f(self):
        # The generic gradient form of the delta method must agree with
        # the specialised linear-ratio path on a linear measure.
        rng = np.random.default_rng(9)
        estimator = AISEstimator(alpha=0.3, track_observations=True)
        labels = rng.integers(0, 2, size=150)
        predictions = rng.integers(0, 2, size=150)
        weights = rng.random(150) + 0.1
        estimator.update_batch(labels, predictions, weights)
        linear = estimator.variance_estimate()

        measure = FMeasure(0.3)
        moments = measure.observation_moments(labels, predictions, weights)
        t = len(labels)
        mean_moments = moments.sum(axis=0) / t
        gradient = measure.moment_gradient(*mean_moments)
        influence = moments @ gradient - float(mean_moments @ gradient)
        generic = float(np.mean(influence**2) / t)
        assert linear == pytest.approx(generic, rel=1e-9)

    def test_semisupervised_measures(self):
        rng = np.random.default_rng(4)
        labels = (rng.random(600) < 0.3).astype(int)
        scores = np.clip(
            0.25 + 0.5 * labels + 0.15 * rng.normal(size=600), 0.001, 0.999
        )
        oracle = DeterministicOracle(labels)
        shim = SemiSupervisedEstimator(0.5, alpha=0.5, random_state=0)
        shim.fit(scores, oracle, 60)
        direct = SemiSupervisedEstimator(
            0.5, measure=FMeasure(0.5), random_state=0
        )
        direct.fit(scores, oracle, 60)
        assert shim.estimate == direct.estimate
        recall_target = SemiSupervisedEstimator(
            0.5, measure=Recall(), random_state=0
        )
        recall_target.fit(scores, oracle, 60)
        assert recall_target.estimate == pytest.approx(
            recall_target.recall_estimate
        )


# ---------------------------------------------------------------------------
# 3a. v1 (alpha-only) snapshot migration.
# ---------------------------------------------------------------------------


def observation_log(sampler) -> np.ndarray:
    """The (weight, label, prediction) log a v1 estimator kept per draw.

    v3 snapshots keep per-cell sums instead, so the log is rebuilt from
    the sampler's trajectory; OASIS weights come from its diagnostics.
    """
    indices = sampler.sampled_indices
    weights = getattr(sampler, "weight_history", None) or np.ones(len(indices))
    labels = [sampler.queried_labels[i] for i in indices.tolist()]
    return np.column_stack(
        [weights, labels, sampler.predictions[indices]]).astype(float)


def downgrade_sampler_state(state: dict, log=np.zeros((0, 3))) -> dict:
    """Rewrite a v3 sampler snapshot into the historical v1 layout."""
    state = copy.deepcopy(state)
    assert state["format_version"] == 3
    state["format_version"] = 1
    measure = state.pop("measure")
    assert measure["kind"] == "fmeasure", "v1 only ever stored F targets"
    state["alpha"] = measure["alpha"]
    for name in ("history", "budget_history", "sampled_indices"):
        state[name] = state[name].tolist()
    if state.get("record_diagnostics"):
        state["record_diagnostics"] = False
        for name in ("pi_history", "instrumental_history", "weight_history"):
            del state[name]
    estimator = state.get("estimator")
    if estimator is not None:
        assert estimator["format_version"] == 3
        estimator["format_version"] = 1
        est_measure = estimator.pop("measure")
        estimator["alpha"] = est_measure["alpha"]
        estimator.pop("weighted_count", None)
        estimator.pop("cells")
        estimator["observations"] = (
            log if estimator["track_observations"] else np.zeros((0, 3)))
    if "current_estimate" in state:
        state["current_f"] = state.pop("current_estimate")
    return state


@pytest.mark.parametrize("kind", sorted(SAMPLER_FACTORIES))
@pytest.mark.parametrize("batch_size", [1, 7])
def test_v1_snapshot_restores_and_continues(kind, batch_size):
    predictions, scores, labels = make_pool()
    factory = SAMPLER_FACTORIES[kind]

    uninterrupted = factory(predictions, scores, DeterministicOracle(labels), 5)
    uninterrupted.sample(40, batch_size=batch_size)
    uninterrupted.sample(40, batch_size=batch_size)

    diagnostics = {"record_diagnostics": True} if kind == "oasis" else {}
    donor = factory(predictions, scores, DeterministicOracle(labels), 5,
                    **diagnostics)
    donor.sample(40, batch_size=batch_size)
    v1_state = load_state(dump_state(
        downgrade_sampler_state(donor.state_dict(), observation_log(donor))
    ))

    resumed = factory(predictions, scores, DeterministicOracle(labels), 999)
    resumed.load_state_dict(v1_state)
    resumed.sample(40, batch_size=batch_size)
    assert_samplers_identical(resumed, uninterrupted)
    assert resumed.estimate == uninterrupted.estimate or (
        np.isnan(resumed.estimate) and np.isnan(uninterrupted.estimate)
    )


def test_v1_snapshot_alpha_mismatch_still_rejected():
    predictions, scores, labels = make_pool(n=80)
    donor = PassiveSampler(
        predictions, scores, DeterministicOracle(labels), alpha=0.5,
        random_state=0,
    )
    donor.sample(5)
    v1_state = downgrade_sampler_state(donor.state_dict())
    other = PassiveSampler(
        predictions, scores, DeterministicOracle(labels), alpha=0.7,
        random_state=0,
    )
    with pytest.raises(ValueError, match="alpha"):
        other.load_state_dict(v1_state)


def test_v1_snapshot_into_non_f_target_rejected():
    predictions, scores, labels = make_pool(n=80)
    donor = PassiveSampler(
        predictions, scores, DeterministicOracle(labels), random_state=0
    )
    donor.sample(5)
    v1_state = downgrade_sampler_state(donor.state_dict())
    recall_sampler = PassiveSampler(
        predictions, scores, DeterministicOracle(labels), measure=Recall(),
        random_state=0,
    )
    with pytest.raises(ValueError, match="measure"):
        recall_sampler.load_state_dict(v1_state)


# ---------------------------------------------------------------------------
# 3b. The committed v1 session fixture (a PR-4-era journal directory).
# ---------------------------------------------------------------------------


def test_v1_session_fixture_restores(tmp_path):
    from repro.service.session import EvaluationSession

    fixture = FIXTURES / "v1_session"
    sidecar = json.loads((fixture / "fixture.json").read_text())
    session_dir = tmp_path / sidecar["session_id"]
    import shutil

    shutil.copytree(fixture / sidecar["session_id"], session_dir)

    session = EvaluationSession.restore(session_dir)
    assert session.sampler.measure == FMeasure(sidecar["alpha"])
    assert session.estimate == pytest.approx(sidecar["estimate_at_restore"])

    # Continue the restored session and compare against the in-process
    # oracle-driven run over the full schedule.
    labels = np.asarray(sidecar["true_labels"], dtype=np.int64)
    extra = sidecar["extra_batches"]
    for __ in range(extra):
        proposal = session.propose(sidecar["batch_size"])
        session.ingest(
            proposal["ticket"],
            [int(labels[i]) for i in proposal["pending"]],
        )

    reference = OASISSampler(
        decode_state(sidecar["predictions"]),
        decode_state(sidecar["scores"]),
        DeterministicOracle(labels),
        n_strata=sidecar["n_strata"],
        random_state=sidecar["seed"],
    )
    for __ in range(sidecar["batches_driven"] + extra):
        reference.sample_batch(sidecar["batch_size"])
    assert session.estimate == reference.estimate
    assert session.labels_consumed == reference.labels_consumed


# ---------------------------------------------------------------------------
# 4. Acceptance: a recall-targeted OASIS run reallocates and converges.
# ---------------------------------------------------------------------------


class TestRecallTargetedOASIS:
    def test_instrumental_reallocates_and_estimate_converges(self):
        predictions, scores, labels = make_pool(seed=1, n=3000)
        from repro.measures import recall as true_recall_fn

        true_recall = true_recall_fn(labels, predictions)

        f_run = OASISSampler(
            predictions, scores, DeterministicOracle(labels),
            n_strata=12, random_state=7,
        )
        recall_run = OASISSampler(
            predictions, scores, DeterministicOracle(labels),
            n_strata=12, measure=Recall(), random_state=7,
        )
        # The optimal designs differ from the very first draw: the
        # recall gradient puts no mass on false-positive risk.
        divergence = np.abs(
            f_run.instrumental_distribution()
            - recall_run.instrumental_distribution()
        ).max()
        assert divergence > 1e-3

        recall_run.sample_until_budget(700)
        assert recall_run.estimate == pytest.approx(true_recall, abs=0.05)
        assert recall_run.labels_consumed == 700

    def test_accuracy_target_converges(self):
        predictions, scores, labels = make_pool(seed=2, n=2000)
        from repro.measures import confusion_counts

        true_accuracy = Accuracy().value_from_counts(
            confusion_counts(labels, predictions)
        )
        run = OASISSampler(
            predictions, scores, DeterministicOracle(labels),
            n_strata=10, measure="accuracy", random_state=3,
        )
        run.sample_until_budget(500)
        assert run.estimate == pytest.approx(true_accuracy, abs=0.05)

    def test_session_create_rejects_alpha_and_measure(self):
        from repro.service.session import EvaluationSession

        predictions, scores, labels = make_pool(seed=3, n=60)
        with pytest.raises(ValueError, match="not both"):
            EvaluationSession.create(
                predictions, scores, sampler="oasis",
                alpha=0.25, measure="fmeasure", seed=1,
            )
        # Manifests record exactly one target parametrisation.
        measured = EvaluationSession.create(
            predictions, scores, sampler="oasis", measure="recall", seed=1,
        )
        assert "alpha" not in measured.config
        legacy = EvaluationSession.create(
            predictions, scores, sampler="oasis", alpha=0.25, seed=1,
        )
        assert "measure" not in legacy.config
        assert legacy.config["alpha"] == 0.25

    def test_tn_measures_estimable_from_all_negative_samples(self):
        # The stratified plug-ins' cold-start NaN is a positive-class
        # notion: specificity/accuracy must stay estimable on a pool
        # whose sampled labels are all negative, while the F family
        # keeps its historical NaN.
        rng = np.random.default_rng(5)
        n = 200
        labels = np.zeros(n, dtype=np.int8)
        scores = rng.normal(size=n)
        predictions = (scores > 0.3).astype(np.int8)
        from repro.measures import Specificity, confusion_counts

        true_specificity = Specificity().value_from_counts(
            confusion_counts(labels, predictions)
        )
        for cls in (StratifiedSampler, OSSSampler):
            targeted = cls(
                predictions, scores, DeterministicOracle(labels),
                n_strata=5, measure="specificity", random_state=0,
            )
            targeted.sample_until_budget(100)
            assert targeted.estimate == pytest.approx(
                true_specificity, abs=0.15
            ), cls.__name__
            legacy = cls(
                predictions, scores, DeterministicOracle(labels),
                n_strata=5, random_state=0,
            )
            legacy.sample_until_budget(100)
            assert np.isnan(legacy.estimate), cls.__name__

    def test_session_hosts_recall_target(self, tmp_path):
        from repro.service.session import EvaluationSession

        predictions, scores, labels = make_pool(seed=3, n=500)
        session = EvaluationSession.create(
            predictions, scores, sampler="oasis",
            sampler_kwargs={"n_strata": 6}, measure="recall", seed=13,
            directory=tmp_path / "recall-session",
        )
        for __ in range(4):
            proposal = session.propose(16)
            session.ingest(
                proposal["ticket"],
                [int(labels[i]) for i in proposal["pending"]],
            )
        assert session.status()["measure"] == "recall"

        reference = OASISSampler(
            predictions, scores, DeterministicOracle(labels),
            n_strata=6, measure=Recall(), random_state=13,
        )
        for __ in range(4):
            reference.sample_batch(16)
        assert session.estimate == reference.estimate

        restored = EvaluationSession.restore(tmp_path / "recall-session")
        assert restored.sampler.measure == Recall()
        assert restored.estimate == session.estimate


# ---------------------------------------------------------------------------
# 5. The sweep measure axis.
# ---------------------------------------------------------------------------


class TestSweepMeasureAxis:
    def test_default_grid_is_unchanged(self):
        from repro.experiments.sweep import SweepConfig, expand_grid

        config = SweepConfig(batch_sizes=[1, 8])
        jobs = expand_grid(config)
        assert [job.job_id for job in jobs] == [
            "abt_buy__deterministic__b1",
            "abt_buy__deterministic__b8",
        ]
        assert all(job.measure is None for job in jobs)
        assert "measures" not in config.to_dict()

    def test_measure_axis_expands_and_round_trips(self):
        from repro.experiments.sweep import SweepConfig, expand_grid

        config = SweepConfig(measures=["fmeasure", "recall"])
        jobs = expand_grid(config)
        assert [job.job_id for job in jobs] == [
            "abt_buy__deterministic__b1__m-fmeasure-alpha-0.5",
            "abt_buy__deterministic__b1__m-recall",
        ]
        payload = config.to_dict()
        assert payload["measures"] == [
            {"kind": "fmeasure", "alpha": 0.5},
            {"kind": "recall"},
        ]
        clone = SweepConfig.from_dict(json.loads(json.dumps(payload)))
        assert [job.job_id for job in expand_grid(clone)] == [
            job.job_id for job in jobs
        ]

    def test_run_trials_reports_measure_true_value(self):
        from repro.datasets import load_benchmark
        from repro.experiments.runner import run_trials
        from repro.experiments.specs import make_sampler_spec

        pool = load_benchmark("abt_buy", scale="tiny", random_state=42)
        specs = [make_sampler_spec("passive", name="Passive")]
        results = run_trials(
            pool, specs, budgets=[40], n_repeats=2, measure="recall",
            random_state=0,
        )
        assert results["Passive"].true_value == pytest.approx(
            pool.performance["recall"]
        )

    def test_cell_pin_conflicting_with_run_measure_is_loud(self):
        from repro.experiments.specs import make_sampler_spec

        predictions, scores, labels = make_pool(n=60)
        spec = make_sampler_spec("passive", name="Passive", alpha=0.5)
        with pytest.raises(ValueError, match="pins"):
            spec.factory(
                predictions, scores, DeterministicOracle(labels),
                np.random.default_rng(0), measure="recall",
            )
        # An agreeing pin is allowed.
        sampler = spec.factory(
            predictions, scores, DeterministicOracle(labels),
            np.random.default_rng(0), measure={"kind": "fmeasure", "alpha": 0.5},
        )
        assert sampler.measure == FMeasure(0.5)

    def test_cli_accepts_measure(self, capsys):
        from repro.experiments.cli import main

        main([
            "compare", "--dataset", "abt_buy", "--scale", "tiny",
            "--budget", "40", "--repeats", "2", "--n-strata", "6",
            "--measure", "recall",
        ])
        out = capsys.readouterr().out
        assert "true recall" in out
