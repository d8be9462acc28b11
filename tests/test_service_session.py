"""EvaluationSession: protocol semantics, bit-identity, WAL restore.

The acceptance bar (ISSUE 4): the propose/ingest path produces
estimates bit-identical to the oracle-driven ``sample()`` loop at the
same seed, and a kill+restore anywhere mid-session reproduces the
uninterrupted trajectory exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.specs import SAMPLER_KINDS
from repro.oracle import DeterministicOracle
from repro.service import (
    EvaluationSession,
    SessionConflictError,
    SessionNotFoundError,
)

N_ITEMS = 400

KIND_KWARGS = {
    "oasis": {"n_strata": 8},
    "passive": {},
    "stratified": {"n_strata": 6},
    "importance": {},
    "oss": {"n_strata": 6},
}


def make_pool(seed=0, n=N_ITEMS):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.1).astype(np.int8)
    scores = rng.normal(size=n) + 2.5 * labels
    predictions = (scores > 0.5).astype(np.int8)
    return predictions, scores, labels


def drive(session, labels, batch_sizes):
    """Answer every proposal from ground truth, like a perfect labeller."""
    for batch in batch_sizes:
        proposal = session.propose(batch)
        answers = [int(labels[i]) for i in proposal["pending"]]
        session.ingest(proposal["ticket"], answers)
    return session


def reference(kind, predictions, scores, labels, seed, batch_sizes):
    sampler = SAMPLER_KINDS[kind](
        predictions, scores, DeterministicOracle(labels),
        random_state=seed, **KIND_KWARGS[kind],
    )
    for batch in batch_sizes:
        sampler.sample_batch(batch)
    return sampler


def assert_same_trajectory(session, sampler):
    np.testing.assert_array_equal(
        np.asarray(session.sampler.history), np.asarray(sampler.history))
    np.testing.assert_array_equal(session.sampler.budget_history,
                                  sampler.budget_history)
    np.testing.assert_array_equal(session.sampler.sampled_indices,
                                  sampler.sampled_indices)
    assert (session.sampler.rng.bit_generator.state
            == sampler.rng.bit_generator.state)


class TestBitIdentity:
    @pytest.mark.parametrize("kind", sorted(KIND_KWARGS))
    def test_matches_oracle_driven_loop(self, kind):
        predictions, scores, labels = make_pool()
        batches = [1, 5, 16, 1, 32, 8]
        session = EvaluationSession.create(
            predictions, scores, sampler=kind,
            sampler_kwargs=KIND_KWARGS[kind], seed=7)
        drive(session, labels, batches)
        assert_same_trajectory(
            session, reference(kind, predictions, scores, labels, 7, batches))

    def test_matches_sequential_sample_loop(self):
        """batch_size=1 sessions replicate the paper's sequential protocol."""
        predictions, scores, labels = make_pool()
        session = EvaluationSession.create(
            predictions, scores, sampler="oasis",
            sampler_kwargs={"n_strata": 8}, seed=3)
        drive(session, labels, [1] * 60)
        sampler = SAMPLER_KINDS["oasis"](
            predictions, scores, DeterministicOracle(labels),
            random_state=3, n_strata=8)
        sampler.sample(60)  # the sequential _step() path
        assert_same_trajectory(session, sampler)

    def test_labels_as_mapping(self):
        predictions, scores, labels = make_pool()
        session = EvaluationSession.create(predictions, scores, seed=1,
                                           sampler_kwargs={"n_strata": 8})
        proposal = session.propose(10)
        mapping = {int(i): int(labels[i]) for i in proposal["pending"]}
        session.ingest(proposal["ticket"], mapping)
        sampler = SAMPLER_KINDS["oasis"](
            predictions, scores, DeterministicOracle(labels),
            random_state=1, n_strata=8)
        sampler.sample_batch(10)
        assert_same_trajectory(session, sampler)

    def test_cached_redraws_need_no_labels(self):
        predictions, scores, labels = make_pool(n=10)  # tiny: cache fills fast
        session = EvaluationSession.create(predictions, scores,
                                           sampler="passive", seed=0)
        proposal = session.propose(30)
        session.ingest(proposal["ticket"],
                       [int(labels[i]) for i in proposal["pending"]])
        proposal = session.propose(30)
        # nearly everything is cached now; pending may be tiny or empty
        assert len(proposal["pending"]) <= 10
        result = session.ingest(
            proposal["ticket"], [int(labels[i]) for i in proposal["pending"]])
        assert result["draws"] == 60


class TestProtocol:
    def make_session(self, **kwargs):
        predictions, scores, labels = make_pool()
        session = EvaluationSession.create(
            predictions, scores, sampler_kwargs={"n_strata": 8}, **kwargs)
        return session, labels

    def test_double_propose_conflicts(self):
        session, labels = self.make_session()
        session.propose(5)
        with pytest.raises(SessionConflictError, match="outstanding"):
            session.propose(5)

    def test_ingest_without_propose_conflicts(self):
        session, __ = self.make_session()
        with pytest.raises(SessionConflictError, match="no outstanding"):
            session.ingest(1, [])

    def test_stale_ticket_conflicts(self):
        session, labels = self.make_session()
        proposal = session.propose(5)
        with pytest.raises(SessionConflictError, match="ticket"):
            session.ingest(proposal["ticket"] + 1, [])

    def test_wrong_label_count_rejected_without_losing_the_batch(self):
        session, labels = self.make_session()
        proposal = session.propose(5)
        with pytest.raises(ValueError, match="expected"):
            session.ingest(proposal["ticket"], [0])
        # proposal still outstanding and completable
        answers = [int(labels[i]) for i in proposal["pending"]]
        session.ingest(proposal["ticket"], answers)

    def test_non_binary_labels_rejected(self):
        session, labels = self.make_session()
        proposal = session.propose(5)
        bad = [2] * len(proposal["pending"])
        with pytest.raises(ValueError, match="0 or 1"):
            session.ingest(proposal["ticket"], bad)

    def test_mapping_with_missing_or_extra_pairs_rejected(self):
        session, labels = self.make_session()
        proposal = session.propose(8)
        pending = proposal["pending"]
        assert pending  # fresh session: every draw needs a label
        with pytest.raises(ValueError, match="missing"):
            session.ingest(proposal["ticket"],
                           {pending[0]: 1} if len(pending) > 1 else {})
        complete = {int(i): int(labels[i]) for i in pending}
        complete[N_ITEMS + 5] = 1  # never proposed
        with pytest.raises(ValueError, match="not proposed"):
            session.ingest(proposal["ticket"], complete)

    def test_closed_session_refuses_work(self):
        session, __ = self.make_session()
        session.close()
        with pytest.raises(SessionConflictError, match="closed"):
            session.propose(1)

    def test_unknown_sampler_kind(self):
        predictions, scores, __ = make_pool()
        with pytest.raises(ValueError, match="unknown sampler kind"):
            EvaluationSession.create(predictions, scores, sampler="bogus")

    def test_status_reports_outstanding(self):
        session, __ = self.make_session()
        proposal = session.propose(4)
        status = session.status()
        assert status["outstanding"]["ticket"] == proposal["ticket"]
        assert status["outstanding"]["pending"] == proposal["pending"]

    def test_oracle_queries_are_blocked(self):
        session, __ = self.make_session()
        with pytest.raises(RuntimeError, match="ingest"):
            session.sampler.oracle.label(0)


class TestRestore:
    def run_restored(self, tmp_path, labels, kill_after, batches, *,
                     checkpoint_every=None):
        """Drive batches, simulating a kill (re-restore) after each of
        ``kill_after`` completed batches."""
        predictions, scores, __ = make_pool(3)
        session = EvaluationSession.create(
            predictions, scores, sampler="oasis",
            sampler_kwargs={"n_strata": 8}, seed=11,
            directory=tmp_path / "session")
        for position, batch in enumerate(batches):
            if position in kill_after:
                session = EvaluationSession.restore(tmp_path / "session")
            proposal = session.propose(batch)
            answers = [int(labels[i]) for i in proposal["pending"]]
            session.ingest(proposal["ticket"], answers)
            if checkpoint_every and (position + 1) % checkpoint_every == 0:
                session.checkpoint()
        return session

    def test_restore_between_batches_bit_identical(self, tmp_path):
        predictions, scores, labels = make_pool(3)
        batches = [4, 9, 1, 16, 2]
        session = self.run_restored(tmp_path, labels, {1, 3}, batches)
        assert_same_trajectory(
            session,
            reference("oasis", predictions, scores, labels, 11, batches))

    def test_restore_with_checkpoints_bit_identical(self, tmp_path):
        predictions, scores, labels = make_pool(3)
        batches = [4, 9, 1, 16, 2, 7]
        session = self.run_restored(tmp_path, labels, {2, 5}, batches,
                                    checkpoint_every=2)
        assert_same_trajectory(
            session,
            reference("oasis", predictions, scores, labels, 11, batches))

    def test_kill_mid_batch_restores_outstanding_proposal(self, tmp_path):
        predictions, scores, labels = make_pool(3)
        session = EvaluationSession.create(
            predictions, scores, sampler="oasis",
            sampler_kwargs={"n_strata": 8}, seed=11,
            directory=tmp_path / "session")
        first = session.propose(12)
        session.ingest(first["ticket"], [int(labels[i]) for i in first["pending"]])
        outstanding = session.propose(20)
        del session  # killed with a proposal in flight

        restored = EvaluationSession.restore(tmp_path / "session")
        status = restored.status()
        assert status["outstanding"]["ticket"] == outstanding["ticket"]
        assert status["outstanding"]["pending"] == outstanding["pending"]
        restored.ingest(outstanding["ticket"],
                        [int(labels[i]) for i in outstanding["pending"]])
        assert_same_trajectory(
            restored,
            reference("oasis", predictions, scores, labels, 11, [12, 20]))

    def test_checkpoint_mid_batch_restores_mid_batch(self, tmp_path):
        predictions, scores, labels = make_pool(3)
        session = EvaluationSession.create(
            predictions, scores, sampler="oasis",
            sampler_kwargs={"n_strata": 8}, seed=11,
            directory=tmp_path / "session")
        outstanding = session.propose(15)
        session.checkpoint()
        restored = EvaluationSession.restore(tmp_path / "session")
        restored.ingest(outstanding["ticket"],
                        [int(labels[i]) for i in outstanding["pending"]])
        assert_same_trajectory(
            restored,
            reference("oasis", predictions, scores, labels, 11, [15]))

    def test_restore_missing_directory(self, tmp_path):
        with pytest.raises(SessionNotFoundError):
            EvaluationSession.restore(tmp_path / "nothing-here")

    def test_memory_only_session_cannot_checkpoint(self):
        predictions, scores, __ = make_pool()
        session = EvaluationSession.create(predictions, scores, seed=0,
                                           sampler_kwargs={"n_strata": 8})
        with pytest.raises(ValueError, match="memory-only"):
            session.checkpoint()


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_KWARGS)),
    seed=st.integers(0, 2**16),
    batches=st.lists(st.integers(1, 20), min_size=2, max_size=6),
    data=st.data(),
)
def test_kill_restore_property(tmp_path_factory, kind, seed, batches, data):
    """Hypothesis: a kill after any completed batch restores exactly."""
    kill_at = data.draw(st.integers(1, len(batches) - 1))
    tmp = tmp_path_factory.mktemp("wal")
    predictions, scores, labels = make_pool(1, n=150)
    session = EvaluationSession.create(
        predictions, scores, sampler=kind, sampler_kwargs=KIND_KWARGS[kind],
        seed=seed, directory=tmp / "session")
    for position, batch in enumerate(batches):
        if position == kill_at:
            session = EvaluationSession.restore(tmp / "session")
        proposal = session.propose(batch)
        session.ingest(proposal["ticket"],
                       [int(labels[i]) for i in proposal["pending"]])

    sampler = SAMPLER_KINDS[kind](
        predictions, scores, DeterministicOracle(labels),
        random_state=seed, **KIND_KWARGS[kind])
    for batch in batches:
        sampler.sample_batch(batch)
    assert_same_trajectory(session, sampler)
