"""The propose-pairs → ingest-labels session protocol.

An :class:`EvaluationSession` inverts the sampler's control flow.  The
in-process loop is *pull*: the sampler draws a batch and synchronously
queries the oracle.  A session is *push*: a client asks the session to
**propose** a batch (the sampler's propose phase runs, consuming
randomness and freezing the proposal), ships the returned pairs to its
labellers — crowd workers, an annotation UI, another system — and
**ingests** the labels whenever they arrive (the commit phase runs).

Because propose and commit are exactly the two halves of the samplers'
batched step (:meth:`~repro.core.base.BaseEvaluationSampler._propose_batch`
/ :meth:`~repro.core.base.BaseEvaluationSampler._commit_batch`), a
session driven with the oracle's answers is **bit-identical** to the
oracle-driven ``sample()`` / ``sample_batch()`` loop at the same seed —
the asynchronous protocol is a pure re-plumbing of the label transport,
not a different algorithm.  Freezing the proposal while labels are in
flight is the Delyon & Portier block-adaptive relaxation the batched
engine already relies on.

Durability: every protocol event is journalled to a
:class:`~repro.service.wal.SessionWAL` *before* it mutates in-memory
state, so a process killed at any instant restores to a consistent
point — mid-batch included — and replaying the journal reproduces the
uninterrupted trajectory exactly (the RNG is deterministic, so
re-running a logged propose re-draws the same pairs).
"""

from __future__ import annotations

import threading
import uuid
from collections import OrderedDict

import numpy as np

from repro.core.base import TRAJECTORY
from repro.oracle.base import BaseOracle
from repro.service.codec import decode_state, encode_state
from repro.service.errors import (
    VOLUME_FULL_ERRNOS,
    CorruptStateError,
    SessionConflictError,
    SessionNotFoundError,
    StorageFullError,
)
from repro.service.wal import SessionWAL
from repro.measures.ratio import measure_from_spec
from repro.utils import NULL_REGISTRY, check_count

__all__ = ["EvaluationSession", "session_sampler_kinds", "DEDUP_WINDOW"]

MANIFEST_FORMAT_VERSION = 1

#: How many idempotency-keyed responses a session remembers.  The window
#: bounds memory and checkpoint size; a client retrying within it gets
#: the original response replayed, which is what makes a lost ack safe
#: to retry.  256 comfortably covers any realistic in-flight retry set —
#: a client retries its *latest* request, not one from hundreds ago.
DEDUP_WINDOW = 256



def _sampler_kinds() -> dict:
    # Deferred: repro.experiments pulls in the dataset/benchmark stack,
    # which session construction does not otherwise need.
    from repro.experiments.specs import SAMPLER_KINDS

    return SAMPLER_KINDS


def session_sampler_kinds() -> tuple[str, ...]:
    """Sampler kinds a session can host — the live experiment registry."""
    return tuple(sorted(_sampler_kinds()))


class _IngestOnlyOracle(BaseOracle):
    """Placeholder oracle for session-hosted samplers.

    Sessions receive labels through :meth:`EvaluationSession.ingest`,
    never through oracle queries — any query reaching this object means
    the sampler was driven down the synchronous path by mistake.
    """

    def label(self, index: int) -> int:
        raise RuntimeError(
            "session-hosted samplers receive labels via ingest(), not "
            "oracle queries; drive the session through propose()/ingest()"
        )

    def probability(self, index: int) -> float:
        raise RuntimeError("session-hosted samplers have no oracle probabilities")


class EvaluationSession:
    """One resumable, journalled evaluation over a fixed pool.

    Build sessions with :meth:`create` (fresh) or :meth:`restore` (from
    a journal directory); the constructor wires pre-built parts
    together and is mostly internal.

    Parameters
    ----------
    session_id:
        Identity of the session (also its directory name under a
        service root).
    sampler:
        The sampler hosted by this session; it is never driven
        synchronously.
    config:
        The manifest payload describing how ``sampler`` was built.
    wal:
        Optional journal; ``None`` keeps the session memory-only
        (no durability, no eviction to disk).
    metrics:
        A :class:`~repro.utils.metrics.MetricsRegistry` to count draws,
        ingested labels and dedup-window hits into; defaults to the
        no-op registry.
    """

    def __init__(self, session_id: str, sampler, config: dict,
                 wal: SessionWAL | None = None, *, metrics=None):
        self.session_id = session_id
        self.sampler = sampler
        self.config = config
        self.wal = wal
        self.closed = False
        # Set by the manager when this instance is checkpointed to disk
        # and dropped; a stale handle must never write to a journal
        # another live instance now owns.
        self.evicted = False
        self._lock = threading.RLock()
        self._ticket = 0
        self._pending: dict | None = None  # outstanding proposal context
        # Trajectory rows already in the journal's checkpoints: the
        # next checkpoint writes only the rows after them.
        self._journalled_draws = 0
        # Idempotency key → the response originally returned for it.
        # Bounded FIFO (DEDUP_WINDOW); journalled keys rebuild it on
        # replay and checkpoints capture it, so the exactly-once
        # guarantee survives crashes and eviction.
        self._dedup: OrderedDict[str, dict] = OrderedDict()
        registry = NULL_REGISTRY if metrics is None else metrics
        self._draws_total = registry.counter(
            "oasis_session_draws_total",
            "Sampler draws consumed, per session.", ("session",))
        self._labels_total = registry.counter(
            "oasis_session_labels_total",
            "Fresh labels ingested, per session.", ("session",))
        self._dedup_hits = registry.counter(
            "oasis_dedup_hits_total",
            "Requests answered from the idempotency dedup window.",
            ("op",))

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        predictions,
        scores,
        *,
        sampler: str = "oasis",
        sampler_kwargs: dict | None = None,
        alpha: float | None = None,
        measure=None,
        seed: int = 0,
        directory=None,
        session_id: str | None = None,
        wal_factory=None,
        metrics=None,
    ) -> "EvaluationSession":
        """Create a fresh session over a pool.

        Parameters
        ----------
        predictions:
            Predicted labels (R-hat membership) per pool item.
        scores:
            Similarity scores per pool item.
        sampler:
            Sampler kind, one of :func:`session_sampler_kinds`.
        sampler_kwargs:
            Extra keyword arguments for the sampler constructor
            (``n_strata``, ``epsilon``, ``threshold``, ...); must be
            JSON-representable, as they live in the manifest.
        alpha:
            Deprecated F-measure shim (the historical target
            parametrisation); mutually exclusive with ``measure``,
            exactly as on the samplers themselves.
        measure:
            Target :class:`~repro.measures.ratio.RatioMeasure` as a
            kind name, spec dict or instance; ``None`` keeps the
            alpha-parametrised F-measure target.  The canonical spec
            lives in the manifest, so restores rebuild the same target.
        seed:
            Integer seed for the sampler's random stream; part of the
            session identity, so a restore rebuilds the same stream.
        directory:
            Journal directory; ``None`` keeps the session memory-only.
        session_id:
            Explicit id; defaults to a random 12-hex-digit token.
        wal_factory:
            Journal constructor, ``callable(directory) -> SessionWAL``;
            defaults to the synchronous per-event :class:`SessionWAL`.
            The shard workers pass a :class:`~repro.service.wal.GroupCommitWAL`
            builder here (and the fault harness its instrumented
            wrappers).
        """
        kinds = _sampler_kinds()
        if sampler not in kinds:
            raise ValueError(
                f"unknown sampler kind {sampler!r}; choose from "
                f"{sorted(kinds)}"
            )
        if session_id is None:
            session_id = uuid.uuid4().hex[:12]
        if measure is not None and alpha is not None:
            raise ValueError(
                "pass either measure= or the deprecated alpha=, not both"
            )
        seed = check_count(seed, "seed", minimum=0)
        sampler_kwargs = dict(sampler_kwargs or {})
        predictions = np.asarray(predictions)
        scores = np.asarray(scores, dtype=float)
        config = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "session_id": session_id,
            "sampler": sampler,
            "sampler_kwargs": sampler_kwargs,
            "seed": seed,
            "predictions": encode_state(predictions),
            "scores": encode_state(scores),
        }
        if measure is not None:
            # Canonicalised spec; absent for alpha-parametrised
            # sessions, so pre-measure manifests keep restoring and a
            # fresh manifest stays byte-stable for the idempotent
            # re-create check.
            config["measure"] = measure_from_spec(measure).spec()
        else:
            # The historical manifest shape: alpha only, no measure
            # key, so the target recorded is never contradictory.
            config["alpha"] = float(0.5 if alpha is None else alpha)
        instance = cls._build_sampler(config)
        wal = None
        if directory is not None:
            wal = (wal_factory or SessionWAL)(directory)
            wal.write_manifest(config)
        return cls(session_id, instance, config, wal, metrics=metrics)

    @staticmethod
    def _build_sampler(config: dict):
        """Deterministically rebuild the hosted sampler from a manifest."""
        kinds = _sampler_kinds()
        cls = kinds[config["sampler"]]
        measure = config.get("measure")
        target = (
            {"alpha": config["alpha"]} if measure is None
            else {"measure": measure}
        )
        return cls(
            decode_state(config["predictions"]),
            decode_state(config["scores"]),
            _IngestOnlyOracle(),
            random_state=int(config["seed"]),
            **target,
            **config["sampler_kwargs"],
        )

    @classmethod
    def restore(cls, directory, *, wal_factory=None,
                metrics=None) -> "EvaluationSession":
        """Rebuild a session from its journal directory.

        The sampler is reconstructed from the manifest, fast-forwarded
        to the latest checkpoint (if any), and the events after it are
        replayed — re-running each logged propose (the deterministic
        RNG re-draws the same pairs) and re-applying each logged
        ingest.  A session killed between propose and ingest comes back
        with the same outstanding proposal, ready for the labels.
        """
        wal = (wal_factory or SessionWAL)(directory)
        manifest = wal.read_manifest()
        if manifest is None:
            raise SessionNotFoundError(
                f"no session manifest under {wal.directory}"
            )
        if manifest.get("format_version") != MANIFEST_FORMAT_VERSION:
            raise ValueError(
                f"unsupported session manifest version "
                f"{manifest.get('format_version')!r}"
            )
        sampler = cls._build_sampler(manifest)
        session = cls(manifest["session_id"], sampler, manifest, wal,
                      metrics=metrics)

        events = wal.events()
        checkpoints = [position for position, event in enumerate(events)
                       if event["kind"] == "checkpoint"]
        if checkpoints:
            session._load_checkpoints(
                [events[position] for position in checkpoints])
            replay = events[checkpoints[-1] + 1:]
        else:
            replay = events
        for event in replay:
            if event["kind"] == "propose":
                response = session._do_propose(
                    int(event["batch_size"]),
                    expected_ticket=int(event["ticket"]))
            elif event["kind"] == "ingest":
                response = session._do_ingest(int(event["ticket"]),
                                              decode_state(event["labels"]))
            else:
                continue
            # Journalled idempotency keys re-arm the dedup window, so a
            # retry that arrives after a crash+restore still replays the
            # original response instead of double-applying.
            if event.get("key") is not None:
                session._record_dedup(str(event["key"]), response)
        return session

    # -- the protocol ------------------------------------------------------

    def _require_open(self) -> None:
        if self.evicted:
            raise SessionConflictError(
                f"this handle to session {self.session_id} was evicted to "
                "disk; re-fetch the session from the manager"
            )
        if self.closed:
            raise SessionConflictError(
                f"session {self.session_id} is closed"
            )

    def _record_dedup(self, key: str, response: dict) -> None:
        self._dedup[key] = response
        while len(self._dedup) > DEDUP_WINDOW:
            self._dedup.popitem(last=False)

    def _replay_dedup(self, key) -> dict | None:
        """The cached response for ``key``, or None if never seen."""
        if key is None:
            return None
        response = self._dedup.get(str(key))
        if response is None:
            return None
        return dict(response)

    def _journal(self, kind: str, payload: dict, idempotency_key=None, *,
                 flush: bool = False) -> int | None:
        """Append one event (then flush, if asked), mapping a full disk
        to backpressure; returns the event's sequence number.

        The event is journalled *before* the in-memory mutation, so an
        ``ENOSPC``/``EDQUOT`` here means the request simply did not
        happen — rendered as the retryable 503
        :class:`~repro.service.errors.StorageFullError`, never as
        corrupted state.  A memory-only session journals nothing.
        """
        if self.wal is None:
            return None
        if idempotency_key is not None:
            payload = {**payload, "key": str(idempotency_key)}
        try:
            seq = self.wal.append(kind, payload)
            if flush:
                self.wal.flush()
        except OSError as exc:
            if exc.errno in VOLUME_FULL_ERRNOS:
                raise StorageFullError(
                    f"journal volume full; session {self.session_id} "
                    f"could not log its {kind} event ({exc})"
                ) from exc
            raise
        return seq

    def propose(self, batch_size: int, *, idempotency_key=None) -> dict:
        """Propose the next batch of draws; returns the pairs to label.

        Consumes the sampler's randomness for ``batch_size`` draws
        under one frozen proposal and returns the **distinct,
        not-yet-labelled** pool indices among them, in the order the
        labels must be ingested.  Re-draws of already-labelled pairs
        are resolved from the cache (paper footnote 5) and need no
        client work — ``pending`` may well be empty, in which case
        ``ingest(ticket, [])`` completes the batch for free.

        Exactly one proposal may be outstanding; proposing again before
        ingesting raises :class:`SessionConflictError` (the outstanding
        pairs are recoverable via :meth:`status`).

        With ``idempotency_key`` (any string a client will not reuse
        across distinct requests), a retry of a request that already
        executed replays the original response instead of raising a
        conflict — the exactly-once contract for clients whose ack was
        lost to a crash or dropped connection.
        """
        with self._lock:
            self._require_open()
            replayed = self._replay_dedup(idempotency_key)
            if replayed is not None:
                self._dedup_hits.inc(op="propose")
                return replayed
            batch_size = check_count(batch_size, "batch_size")
            if self._pending is not None:
                raise SessionConflictError(
                    f"session {self.session_id} already has proposal "
                    f"ticket {self._pending['ticket']} outstanding; ingest "
                    "its labels (see status()) before proposing again"
                )
            ticket = self._ticket + 1
            self._journal("propose", {"ticket": ticket,
                                      "batch_size": batch_size},
                          idempotency_key)
            response = self._do_propose(batch_size, expected_ticket=ticket)
            self._draws_total.inc(batch_size, session=self.session_id)
            if idempotency_key is not None:
                self._record_dedup(str(idempotency_key), response)
            return response

    def _do_propose(self, batch_size: int, *, expected_ticket: int) -> dict:
        """The in-memory half of propose (shared with WAL replay)."""
        self._ticket += 1
        if self._ticket != expected_ticket:
            raise ValueError(
                f"journal replay out of order: expected ticket "
                f"{expected_ticket}, session is at {self._ticket}"
            )
        context = self.sampler._propose_batch(batch_size)
        fresh = self.sampler._pending_fresh(context["indices"])
        self._pending = {
            "ticket": self._ticket,
            "batch_size": batch_size,
            "context": context,
            "fresh": fresh,
        }
        return {
            "session_id": self.session_id,
            "ticket": self._ticket,
            "batch_size": batch_size,
            "pending": np.asarray(fresh).tolist(),
        }

    def ingest(self, ticket: int, labels, *, idempotency_key=None) -> dict:
        """Ingest labels for an outstanding proposal; commits the batch.

        Parameters
        ----------
        ticket:
            The ticket returned by the matching :meth:`propose`.
        labels:
            Binary labels aligned with the proposal's ``pending`` list,
            or a mapping ``{pool index: label}`` covering exactly those
            indices.
        idempotency_key:
            Optional client-supplied retry token (see :meth:`propose`).
            A keyed retry of an ingest that already committed replays
            the original response — labels are never double-counted,
            even if the ack for the first attempt was lost.

        Returns the post-commit status (estimate, labels consumed).
        """
        with self._lock:
            self._require_open()
            replayed = self._replay_dedup(idempotency_key)
            if replayed is not None:
                self._dedup_hits.inc(op="ingest")
                return replayed
            if self._pending is None:
                raise SessionConflictError(
                    f"session {self.session_id} has no outstanding "
                    "proposal; call propose() first"
                )
            if int(ticket) != self._pending["ticket"]:
                raise SessionConflictError(
                    f"ticket {ticket} does not match outstanding proposal "
                    f"ticket {self._pending['ticket']}"
                )
            labels = self._align_labels(labels)
            self._journal("ingest", {"ticket": int(ticket), "labels": labels},
                          idempotency_key)
            response = self._do_ingest(int(ticket), labels)
            self._labels_total.inc(len(labels), session=self.session_id)
            if idempotency_key is not None:
                self._record_dedup(str(idempotency_key), response)
            return response

    def _align_labels(self, labels) -> np.ndarray:
        """Validate client labels against the outstanding proposal."""
        fresh = self._pending["fresh"]
        if isinstance(labels, dict):
            by_index = {int(k): v for k, v in labels.items()}
            missing = [int(i) for i in fresh if int(i) not in by_index]
            if missing:
                raise ValueError(
                    f"labels missing for proposed pairs {missing[:10]}"
                )
            extra = set(by_index) - {int(i) for i in fresh}
            if extra:
                raise ValueError(
                    f"labels supplied for pairs that were not proposed: "
                    f"{sorted(extra)[:10]}"
                )
            labels = [by_index[int(i)] for i in fresh]
        # A copy: the journal may hold it past this call (group commit),
        # so the caller's array must not be able to change it.
        labels = np.array(labels, dtype=np.int64)
        if labels.shape != fresh.shape:
            raise ValueError(
                f"expected {len(fresh)} labels for ticket "
                f"{self._pending['ticket']}; got {len(labels)}"
            )
        if labels.size and np.any((labels != 0) & (labels != 1)):
            bad = labels[(labels != 0) & (labels != 1)][0]
            raise ValueError(f"labels must be 0 or 1; got {bad}")
        return labels

    def _do_ingest(self, ticket: int, labels) -> dict:
        """The in-memory half of ingest (shared with WAL replay)."""
        if self._pending is None or ticket != self._pending["ticket"]:
            raise ValueError(
                f"journal replay out of order: ingest ticket {ticket} has "
                "no matching proposal"
            )
        labels = np.asarray(labels, dtype=np.int64)
        context = self._pending["context"]
        full_labels, new_mask = self.sampler._apply_labels(
            context["indices"], labels
        )
        self.sampler._commit_batch(context, full_labels, new_mask)
        self._pending = None
        return self.status()

    def checkpoint(self) -> int:
        """Journal a snapshot; returns its event sequence number.

        Restores fast-forward to the latest checkpoint instead of
        replaying the whole journal, so long-lived sessions should
        checkpoint periodically.  An outstanding proposal is captured
        too — a checkpoint taken mid-batch restores mid-batch.

        The event holds the sampler's constant-size state plus only the
        trajectory rows drawn since the previous checkpoint in this
        journal (its ``trajectory`` delta, starting at row ``start``);
        :meth:`restore` concatenates the deltas.  Its arrays go to the
        WAL live, so the binary codec writes them as raw bytes.

        The journal is flushed before returning: a checkpoint is a
        durability point even under a group-commit WAL (the buffered
        events preceding it ride the same flush, in order).
        """
        with self._lock:
            self._require_open()
            if self.wal is None:
                raise ValueError(
                    f"session {self.session_id} is memory-only (no journal "
                    "directory); cannot checkpoint"
                )
            state = self.sampler.state_dict()
            draws, start = len(state["history"]), self._journalled_draws
            trajectory = {"start": start}
            for name in TRAJECTORY:
                trajectory[name] = state.pop(name)[start:]
            payload = {
                "ticket": self._ticket,
                "state": state,
                "trajectory": trajectory,
                "pending": self._pending_payload(),
            }
            if self._dedup:
                # Replay starts after the latest checkpoint, so the
                # dedup window must ride inside it or keyed retries
                # would double-apply after a restore-from-checkpoint.
                payload["dedup"] = [
                    [key, response] for key, response in self._dedup.items()
                ]
            seq = self._journal("checkpoint", payload, flush=True)
            self._journalled_draws = draws
            return seq

    def _pending_payload(self) -> dict | None:
        if self._pending is None:
            return None
        return {key: self._pending[key]
                for key in ("ticket", "batch_size", "context")}

    def _load_checkpoints(self, checkpoints: list[dict]) -> None:
        """Restore the latest checkpoint, its trajectory assembled from
        the deltas of every checkpoint in the journal.

        A pre-delta checkpoint holds the whole trajectory in its state
        and restarts the assembly.  A delta may overlap the rows before
        it (a checkpoint retried after a failed flush); rows are
        append-only, so the later copy simply replaces them.  A delta
        that starts past the assembled rows means one went missing.
        """
        parts = {name: [] for name in TRAJECTORY}
        draws = 0
        for event in checkpoints:
            delta = event.get("trajectory") or {"start": 0, **event["state"]}
            start = int(delta["start"])
            if start > draws:
                raise CorruptStateError(
                    f"checkpoint {event['seq']} of session {self.session_id} "
                    f"continues the trajectory at row {start}, but the "
                    f"checkpoints before it hold {draws} rows",
                    path=self.wal.directory)
            for name, dtype in TRAJECTORY.items():
                if start < draws:
                    parts[name] = [np.concatenate(parts[name])[:start]]
                parts[name].append(np.asarray(decode_state(delta[name]), dtype))
            draws = start + len(parts["history"][-1])
        state = decode_state(checkpoints[-1]["state"])
        state.update({name: np.concatenate(parts[name]) for name in TRAJECTORY})
        self.sampler.load_state_dict(state)
        self._journalled_draws = draws
        event = checkpoints[-1]
        self._ticket = int(event["ticket"])
        self._dedup = OrderedDict(
            (str(key), dict(response))
            for key, response in event.get("dedup", [])
        )
        pending = event.get("pending")
        if pending is None:
            self._pending = None
        else:
            context = decode_state(pending["context"])
            self._pending = {
                "ticket": int(pending["ticket"]),
                "batch_size": int(pending["batch_size"]),
                "context": context,
                # The label cache at checkpoint time equals the cache
                # now (commit had not run), so the fresh set recomputes
                # identically.
                "fresh": self.sampler._pending_fresh(context["indices"]),
            }

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        """Current session status as a JSON-ready dict."""
        with self._lock:
            sampler = self.sampler
            outstanding = None
            if self._pending is not None:
                outstanding = {
                    "ticket": self._pending["ticket"],
                    "batch_size": self._pending["batch_size"],
                    "pending": np.asarray(self._pending["fresh"]).tolist(),
                }
            estimate = sampler.estimate
            return {
                "session_id": self.session_id,
                "sampler": self.config["sampler"],
                "measure": sampler.measure.name,
                "n_items": sampler.n_items,
                "estimate": None if np.isnan(estimate) else float(estimate),
                "labels_consumed": sampler.labels_consumed,
                "draws": len(sampler.history),
                "outstanding": outstanding,
                "closed": self.closed,
            }

    def estimate_payload(self) -> dict:
        """Status plus every auxiliary estimate the sampler exposes.

        The ``GET /sessions/{id}/estimate`` rendering.
        """
        with self._lock:
            out = self.status()
            for name, attribute in (
                ("precision", "precision_estimate"),
                ("recall", "recall_estimate"),
            ):
                value = getattr(self.sampler, attribute, None)
                if value is not None:
                    out[name] = None if np.isnan(value) else float(value)
            return out

    def telemetry(self) -> dict:
        """Convergence telemetry for the observability layer.

        Constant cost at any session age: the confidence interval and
        the weight ESS come from the estimator's per-cell sums, and the
        draw count from the trajectory's length.  Everything here
        degrades gracefully: samplers without a
        confidence interval or without observation tracking (the plain
        importance sampler) report ``None`` for the signals they cannot
        produce, so the metrics endpoint never 500s over a sampler
        choice.
        """
        with self._lock:
            sampler = self.sampler
            estimate = sampler.estimate
            out = {
                "session_id": self.session_id,
                "estimate": None if np.isnan(estimate) else float(estimate),
                "labels_consumed": int(sampler.labels_consumed),
                "draws": len(sampler.history),
                "ci_width": None,
                "weight_ess": None,
            }
            interval = getattr(sampler, "confidence_interval", None)
            if callable(interval):
                low, high = interval(0.95)
                if not (np.isnan(low) or np.isnan(high)):
                    out["ci"] = [float(low), float(high)]
                    out["ci_width"] = float(high - low)
            ess = getattr(getattr(sampler, "_estimator", None),
                          "weight_ess", None)
            if callable(ess):
                try:
                    out["weight_ess"] = float(ess())
                except RuntimeError:
                    pass  # estimator not tracking observations
            return out

    def history_payload(self) -> dict:
        """The estimate trajectory, for live convergence reports.

        ``history[i]`` is the estimate after draw ``i+1`` and
        ``budget_history[i]`` the distinct labels consumed at that
        point — plotting one against the other is the paper's
        convergence curve.  NaN estimates (undefined early ratios)
        serialise as ``None``.  The service serves
        :meth:`history_fields` instead, which encodes to the same bytes.
        """
        payload = self.history_fields()
        history = payload["history"].astype(object)
        history[np.isnan(payload["history"])] = None
        payload["history"] = history.tolist()
        payload["budget_history"] = payload["budget_history"].tolist()
        return payload

    def history_fields(self) -> dict:
        """:meth:`history_payload` with the sampler's trajectory views.

        ``history`` and ``budget_history`` are the read-only arrays the
        sampler returns (NaN where the estimate is undefined), not
        lists: rows below the draw count are never rewritten, so they
        stay a snapshot after the lock is released, and
        :func:`~repro.service.protocol.encode_reply` writes them in
        chunks.
        """
        with self._lock:
            sampler = self.sampler
            payload = {
                "session_id": self.session_id,
                "sampler": self.config["sampler"],
                "measure": sampler.measure.name,
                "history": sampler.history,
                "budget_history": sampler.budget_history,
                "labels_consumed": int(sampler.labels_consumed),
            }
            telemetry = self.telemetry()
            for key in ("estimate", "ci", "ci_width", "weight_ess"):
                if key in telemetry:
                    payload[key] = telemetry[key]
            return payload

    @property
    def estimate(self) -> float:
        return self.sampler.estimate

    @property
    def labels_consumed(self) -> int:
        return self.sampler.labels_consumed

    def close(self) -> None:
        """Mark the session closed; a journalled session stays on disk."""
        with self._lock:
            if not self.closed and self.wal is not None:
                self.checkpoint()
            self.closed = True
