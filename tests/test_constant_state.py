"""Constant-size session state: per-cell sums, array trajectories and
delta checkpoints.

* The estimator's 12 per-cell sums (count, sum w, sum w^2 per (l, lhat)
  cell) give the same delta-method variance, confidence interval and
  Kish ESS as the per-observation formulas the estimator used before
  it dropped its observation log (:func:`oracle_variance` is those
  formulas, kept here as the oracle), for every measure, arbitrary
  weights and arbitrary batch splits, and over 10^6 draws on a pool
  with 0.5% matches; ``update_batch`` advances the sums bitwise like
  an ``update`` loop.
* A version-2 snapshot (per-observation log, list trajectories)
  migrates and continues bitwise like a sampler that never left v3.
* Checkpoints journal only the trajectory rows drawn since the previous
  one; restore concatenates the deltas across eviction churn, after a
  pre-delta checkpoint, across empty deltas, and refuses a chain with
  a delta missing.  Ingested labels are journalled as they were
  applied, whatever the caller does with its array afterwards.
* The router forwards shard replies byte for byte; per-session gauges
  cover resident sessions only, also under concurrent scrapes.
"""

from __future__ import annotations

import copy
import json
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from test_measure_equivalence import observation_log
from test_service_faults import RecoveringClient, ShardedService, make_pool
from test_service_observability import raw_request

from repro.core import AISEstimator, OASISSampler
from repro.measures import MEASURE_KINDS
from repro.measures.ratio import LinearRatioMeasure
from repro.oracle import DeterministicOracle
from repro.samplers import PassiveSampler
from repro.service import SessionManager
from repro.service.codec import (
    decode_state,
    dump_state,
    dump_state_binary,
    encode_state,
    load_state,
)
from repro.service.session import EvaluationSession
from repro.service.wal import GroupCommitWAL, SessionWAL, frame_payload
from repro.utils import CorruptStateError
from repro.utils.metrics import parse_prometheus_text

BINARY_FIXTURE = Path(__file__).parent / "fixtures" / "binary_wal_session"
COLUMNS = ("history", "budget_history", "sampled_indices")
SESSION_GAUGES = ("oasis_session_estimate", "oasis_session_ci_width",
                  "oasis_session_labels_consumed", "oasis_session_weight_ess")


# ---------------------------------------------------------------------------
# The per-cell estimator against the per-observation formulas.
# ---------------------------------------------------------------------------


def oracle_variance(measure, g_hat, weights, labels, predictions):
    """Per-observation delta-method variance, plus the size of its terms.

    The second value is the variance the terms would give without the
    cancellation of ``m = mean . grad``; near-zero variances that come
    from exact cancellation are compared against it.
    """
    if np.isnan(g_hat) or len(weights) == 0:
        return float("nan"), 0.0
    t = len(weights)
    if isinstance(measure, LinearRatioMeasure):
        g_num, g_den = measure.observation_statistics(labels, predictions)
        b_bar = float(np.sum(weights * g_den)) / t
        if b_bar <= 0:
            return float("nan"), 0.0
        influence = weights * (g_num - g_hat * g_den)
        variance = float(np.mean(influence**2) / (t * b_bar**2))
        return variance, variance
    moments = measure.observation_moments(labels, predictions, weights)
    mean_moments = moments.sum(axis=0) / t
    gradient = np.asarray(measure.moment_gradient(*mean_moments), dtype=float)
    if not np.all(np.isfinite(gradient)):
        return float("nan"), 0.0
    influence = moments @ gradient - float(mean_moments @ gradient)
    scale = np.mean((np.abs(moments) @ np.abs(gradient)) ** 2) / t
    return float(np.mean(influence**2) / t), float(scale)


def oracle_interval(measure, g_hat, variance, level=0.95):
    if np.isnan(g_hat) or np.isnan(variance):
        return (float("nan"), float("nan"))
    half = float(stats.norm.ppf(0.5 + level / 2.0)) * np.sqrt(variance)
    low, high = measure.bounds
    return (max(low, g_hat - half), min(high, g_hat + half))


def assert_matches_oracle(estimator, weights, labels, predictions,
                          rtol=1e-10):
    measure = estimator.measure
    g_hat = estimator.estimate
    variance, scale = oracle_variance(measure, g_hat, weights, labels,
                                      predictions)
    got = estimator.variance_estimate()
    if np.isnan(variance):
        assert np.isnan(got)
    else:
        assert abs(got - variance) <= rtol * max(abs(variance), scale)
        np.testing.assert_allclose(
            estimator.confidence_interval(),
            oracle_interval(measure, g_hat, variance), rtol=rtol,
            atol=rtol * np.sqrt(scale))
    square = float(np.sum(weights**2))
    ess = float(np.sum(weights)) ** 2 / square if square > 0 else 0.0
    np.testing.assert_allclose(estimator.weight_ess(), ess, rtol=rtol)


observations_strategy = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1),
              st.one_of(st.just(0.0), st.floats(1e-6, 1e3))),
    min_size=1, max_size=120)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(MEASURE_KINDS)),
       observations=observations_strategy,
       cuts=st.lists(st.integers(0, 120), max_size=4))
def test_cell_sums_match_per_observation_formulas(kind, observations, cuts):
    labels, predictions, weights = (
        np.asarray(column, dtype=float) for column in zip(*observations))
    looped = AISEstimator(measure=kind, track_observations=True)
    for label, prediction, weight in observations:
        looped.update(label, prediction, weight)
    batched = AISEstimator(measure=kind, track_observations=True)
    bounds = [0, *sorted(cut % (len(labels) + 1) for cut in cuts),
              len(labels)]
    for start, stop in zip(bounds, bounds[1:]):
        batched.update_batch(labels[start:stop], predictions[start:stop],
                             weights[start:stop])

    # update_batch advances every running sum bitwise like update().
    assert batched.state() == looped.state()
    np.testing.assert_array_equal(batched.state_dict()["cells"],
                                  looped.state_dict()["cells"])
    assert_matches_oracle(batched, weights, labels, predictions)


def test_variance_needs_no_observation_log():
    """The estimator's snapshot has a fixed size however many updates."""
    rng = np.random.default_rng(5)
    estimator = AISEstimator(measure="recall", track_observations=True)
    sizes = []
    for _ in range(3):
        estimator.update_batch(rng.integers(0, 2, 5000),
                               rng.integers(0, 2, 5000), rng.random(5000))
        sizes.append(len(dump_state_binary(estimator.state_dict())))
    assert len(set(sizes)) == 1


def aged_pool(n_items=200_000, match_share=0.005):
    """A labelling pool like the repository benchmark's: 0.5% matches,
    noisy scores, predictions thresholded at 0.5."""
    rng = np.random.default_rng(2024)
    truth = np.zeros(n_items, dtype=np.int8)
    truth[rng.choice(n_items, size=int(n_items * match_share),
                     replace=False)] = 1
    centre = np.where(truth == 1, 0.68, 0.30)
    scores = np.clip(centre + rng.normal(0.0, 0.13, n_items), 0.0, 1.0)
    return truth, (scores >= 0.5).astype(np.int8), scores


@pytest.mark.parametrize(
    "kind", ["fmeasure", "recall", "balanced_accuracy", "wracc"])
def test_cell_sums_match_per_observation_formulas_at_a_million_draws(kind):
    """Folding 10^6 OASIS draws cell by cell keeps the variance, the CI
    half-width and the weight ESS within rtol 1e-10 of the formulas."""
    truth, predictions, scores = aged_pool()
    sampler = OASISSampler(predictions, scores, DeterministicOracle(truth),
                           n_strata=30, measure=kind, random_state=5,
                           record_diagnostics=True)
    sampler.sample(1_000_000, batch_size=8192)
    weights, labels, preds = observation_log(sampler).T
    variance, __ = oracle_variance(sampler.measure, sampler.estimate,
                                   weights, labels, preds)
    estimator = sampler._estimator
    np.testing.assert_allclose(estimator.variance_estimate(), variance,
                               rtol=1e-10)
    low, high = estimator.confidence_interval()
    np.testing.assert_allclose(
        (high - low) / 2, stats.norm.ppf(0.975) * np.sqrt(variance),
        rtol=1e-10)
    ess = float(np.sum(weights)) ** 2 / float(np.sum(weights**2))
    np.testing.assert_allclose(estimator.weight_ess(), ess, rtol=1e-10)


# ---------------------------------------------------------------------------
# v2 -> v3 migration.
# ---------------------------------------------------------------------------


def make_sampler_pool(n=400, seed=3):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.2).astype(int)
    scores = np.clip(0.2 + 0.6 * labels + 0.2 * rng.normal(size=n), 0, 1)
    predictions = (scores > 0.5).astype(int)
    return predictions, scores, labels


def to_v2(sampler) -> dict:
    """The version-2 layout of a sampler snapshot: list trajectories and
    the estimator's per-observation (weight, label, prediction) log."""
    state = copy.deepcopy(sampler.state_dict())
    state["format_version"] = 2
    for name in COLUMNS:
        state[name] = state[name].tolist()
    estimator = state["estimator"]
    estimator["format_version"] = 2
    del estimator["cells"]
    estimator["observations"] = observation_log(sampler)
    return state


@pytest.mark.parametrize("batch_size", [1, 16])
@pytest.mark.parametrize("kind", ["oasis", "passive"])
def test_v2_snapshot_continues_bitwise_like_v3(kind, batch_size):
    predictions, scores, labels = make_sampler_pool()

    def build(seed, **kwargs):
        if kind == "oasis":
            return OASISSampler(predictions, scores,
                                DeterministicOracle(labels), n_strata=8,
                                random_state=seed, measure="recall", **kwargs)
        return PassiveSampler(predictions, scores, DeterministicOracle(labels),
                              random_state=seed, measure="recall")

    uninterrupted = build(4)
    uninterrupted.sample(300, batch_size=batch_size)
    uninterrupted.sample(200, batch_size=batch_size)

    donor = build(4, **({"record_diagnostics": True} if kind == "oasis"
                        else {}))
    donor.sample(300, batch_size=batch_size)
    v2_state = to_v2(donor)
    if kind == "oasis":
        v2_state["record_diagnostics"] = False
    migrated = build(99)
    migrated.load_state_dict(load_state(dump_state(v2_state)))
    migrated.sample(200, batch_size=batch_size)

    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(migrated, name),
                                      getattr(uninterrupted, name))
    assert migrated.state_dict()["estimator"].keys() == \
        uninterrupted.state_dict()["estimator"].keys()
    np.testing.assert_array_equal(
        migrated.state_dict()["estimator"]["cells"],
        uninterrupted.state_dict()["estimator"]["cells"])
    assert migrated.confidence_interval() == uninterrupted.confidence_interval()


# ---------------------------------------------------------------------------
# Delta checkpoints and their restore.
# ---------------------------------------------------------------------------


def drive(session, labels, rounds, batch=9):
    for _ in range(rounds):
        proposal = session.propose(batch)
        session.ingest(proposal["ticket"],
                       [int(labels[i]) for i in proposal["pending"]])


def checkpoint_events(directory):
    return [event for event in SessionWAL(directory).events()
            if event["kind"] == "checkpoint"]


def assert_sessions_identical(a, b):
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(a.sampler, name),
                                      getattr(b.sampler, name))
    assert a.status() == {**b.status(), "session_id": a.session_id}
    assert a.telemetry()["ci"] == b.telemetry()["ci"]
    assert a.telemetry()["weight_ess"] == b.telemetry()["weight_ess"]


def test_eviction_churn_journals_each_row_once(tmp_path):
    predictions, scores, labels = make_pool(seed=3, n=150)
    manager = SessionManager(tmp_path / "root", capacity=1)
    references = {}
    for sid in ("a", "b"):
        manager.create_session(predictions, scores, session_id=sid,
                               seed=len(references))
        references[sid] = EvaluationSession.create(
            predictions, scores, seed=len(references))
    for _ in range(6):  # every access evicts the other session
        for sid in ("a", "b"):
            drive(manager.get(sid), labels, rounds=2)
            drive(references[sid], labels, rounds=2)
    for sid in ("a", "b"):
        session = manager.get(sid)
        assert_sessions_identical(session, references[sid])
        events = checkpoint_events(tmp_path / "root" / sid)
        starts = [event["trajectory"]["start"] for event in events]
        rows = [len(decode_state(event["trajectory"]["history"]))
                for event in events]
        assert len(events) >= 5
        assert starts == list(np.cumsum([0, *rows[:-1]]))
        assert sum(rows) <= len(session.sampler.history)


def test_checkpoint_without_new_draws_writes_zero_rows(tmp_path):
    predictions, scores, labels = make_pool(seed=4, n=100)
    session = EvaluationSession.create(predictions, scores, seed=1,
                                       directory=tmp_path / "s")
    drive(session, labels, rounds=3)
    session.checkpoint()
    session.checkpoint()
    first, second = checkpoint_events(tmp_path / "s")
    for name in COLUMNS:
        assert len(decode_state(first["trajectory"][name])) == 27
        assert len(decode_state(second["trajectory"][name])) == 0
    assert second["trajectory"]["start"] == 27
    assert "history" not in second["state"]
    restored = EvaluationSession.restore(tmp_path / "s")
    assert_sessions_identical(restored, session)


def test_missing_delta_raises_corrupt_state(tmp_path):
    predictions, scores, labels = make_pool(seed=5, n=100)
    session = EvaluationSession.create(predictions, scores, seed=2,
                                       directory=tmp_path / "s")
    drive(session, labels, rounds=2)
    session.checkpoint()
    drive(session, labels, rounds=2)
    session.checkpoint()
    # Rewrite the first checkpoint with its delta rows gone, under a
    # valid frame: only the chain of deltas is broken.
    shard = next((tmp_path / "s" / "events").glob("*-checkpoint.json"))
    event = json.loads(shard.read_bytes()[12:])
    event["trajectory"] = {"start": 0, **{
        name: encode_state(np.zeros(0)) for name in COLUMNS}}
    shard.write_bytes(frame_payload(json.dumps(event).encode("utf-8")))
    with pytest.raises(CorruptStateError, match="row 18"):
        EvaluationSession.restore(tmp_path / "s")


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_journal_keeps_labels_the_caller_changes_later(tmp_path, codec):
    """Group commit holds an ingest event past the call; the labels it
    journals are the ones applied, not what the caller's array holds
    by the time the journal flushes."""
    predictions, scores, labels = make_pool(seed=9, n=100)

    def wal_factory(path):
        return GroupCommitWAL(path, codec=codec, max_batch=64)

    session = EvaluationSession.create(predictions, scores, seed=3,
                                       directory=tmp_path / "s",
                                       wal_factory=wal_factory)
    for _ in range(4):
        proposal = session.propose(9)
        answer = np.array([labels[i] for i in proposal["pending"]],
                          dtype=np.int64)
        session.ingest(proposal["ticket"], answer)
        answer ^= 1  # the caller reuses its buffer
    assert session.wal.pending_events == 8
    session.wal.flush()
    restored = EvaluationSession.restore(tmp_path / "s",
                                         wal_factory=wal_factory)
    assert_sessions_identical(restored, session)


def test_pre_delta_checkpoint_followed_by_delta_checkpoints(tmp_path):
    sidecar = json.loads((BINARY_FIXTURE / "fixture.json").read_text())
    directory = tmp_path / sidecar["session_id"]
    shutil.copytree(BINARY_FIXTURE / sidecar["session_id"], directory)
    labels = np.asarray(sidecar["true_labels"], dtype=np.int64)
    batch = sidecar["batch_size"]

    session = EvaluationSession.restore(directory)  # a v2 checkpoint
    drive(session, labels, rounds=2, batch=batch)
    session.checkpoint()
    drive(session, labels, rounds=1, batch=batch)
    session.checkpoint()
    drive(session, labels, rounds=1, batch=batch)

    reference = EvaluationSession.create(
        decode_state(sidecar["predictions"]), decode_state(sidecar["scores"]),
        sampler="oasis", sampler_kwargs={"n_strata": sidecar["n_strata"]},
        measure=sidecar["measure"], seed=sidecar["seed"])
    drive(reference, labels, rounds=sidecar["batches_driven"] + 4,
          batch=batch)
    assert_sessions_identical(session, reference)

    events = checkpoint_events(directory)
    assert "trajectory" not in events[0]  # the committed pre-delta one
    assert events[1]["trajectory"]["start"] == len(events[0]["state"]["history"])
    restored = EvaluationSession.restore(directory)
    assert_sessions_identical(restored, session)


# ---------------------------------------------------------------------------
# Router forwarding and residency-scoped gauges.
# ---------------------------------------------------------------------------


def test_router_forwards_history_bytes_as_received(tmp_path):
    predictions, scores, labels = make_pool(seed=6, n=120)
    reference = EvaluationSession.create(predictions, scores, seed=0,
                                         session_id="h0")
    drive(reference, labels, rounds=4, batch=7)
    with ShardedService(tmp_path / "root", shards=2) as service:
        client = RecoveringClient(service.port)
        client.create("h0", predictions, scores, seed=0)
        for _ in range(4):
            client.run_round("h0", 7, labels)
        status, body, headers = raw_request(
            service.port, "GET", "/sessions/h0/history",
            headers={"X-Request-Id": "feedfacefeedface"})
        assert status == 200
        assert body == json.dumps(reference.history_payload()).encode()
        assert headers["X-Request-Id"] == "feedfacefeedface"

        shard = service.router.ring.shard_for("h0")
        status, payload, _ = service.supervisor.clients[shard].request(
            "drain")
        assert status == 200 and payload["draining"] is True
        # Draining (or, once drained, restarting) shards answer 503.
        status, _, headers = raw_request(service.port, "GET", "/sessions/h0")
        assert status == 503
        assert float(headers["Retry-After"]) > 0


def gauge_sessions(manager) -> dict:
    manager.observe_session_telemetry()
    parsed = parse_prometheus_text(manager.metrics.render())
    return {
        family: {dict(labels)["session"]
                 for (_, labels) in parsed[family]["samples"]}
        for family in SESSION_GAUGES
    }


def test_session_gauges_cover_resident_sessions_only(tmp_path):
    predictions, scores, labels = make_pool(seed=8, n=120)
    manager = SessionManager(tmp_path / "root", capacity=2)
    for index in range(5):
        sid = f"g{index}"
        drive(manager.create_session(predictions, scores, session_id=sid,
                                     seed=index), labels, rounds=3)
        gauge_sessions(manager)  # a scrape while it is resident
    manager.close_session("g4")
    resident = {entry["session_id"] for entry in manager.list_sessions()
                if entry["resident"]}
    assert resident == {"g3"}
    for family, sessions in gauge_sessions(manager).items():
        assert sessions == resident, family
    # Counters keep every session ever seen: their contract is monotone.
    parsed = parse_prometheus_text(manager.metrics.render())
    draws = {dict(labels)["session"]
             for (_, labels) in parsed["oasis_session_draws_total"]["samples"]}
    assert draws == {f"g{index}" for index in range(5)}


def test_an_older_scrape_keeps_the_gauges_a_newer_one_set(tmp_path):
    """Scrapes run concurrently; one that snapshotted the residents
    before a session arrived must not retire that session's gauges
    when it finishes after a scrape that saw it."""
    predictions, scores, labels = make_pool(seed=10, n=120)
    manager = SessionManager(tmp_path / "root", capacity=4)
    first = manager.create_session(predictions, scores, session_id="x",
                                   seed=0)
    drive(first, labels, rounds=2)
    inside, release = threading.Event(), threading.Event()

    def held_telemetry():
        inside.set()
        release.wait(10)
        return type(first).telemetry(first)

    first.telemetry = held_telemetry
    older = threading.Thread(target=manager.observe_session_telemetry)
    older.start()
    assert inside.wait(10)  # the older scrape's snapshot is {x}
    del first.telemetry
    drive(manager.create_session(predictions, scores, session_id="y",
                                 seed=1), labels, rounds=2)
    assert gauge_sessions(manager)["oasis_session_estimate"] == {"x", "y"}
    release.set()
    older.join(10)
    assert not older.is_alive()
    parsed = parse_prometheus_text(manager.metrics.render())
    for family in SESSION_GAUGES:
        assert {dict(labels)["session"]
                for (_, labels) in parsed[family]["samples"]} == {"x", "y"}
