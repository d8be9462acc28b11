"""The traced run: per-layer metrics, measured from outside each layer.

A traced run repeats the untraced run with the same seed and adds:

1. spans, recorded in the benchmark, around every client call and every
   phase (kept in memory, written to ``.perfbench_work/traces/`` at the
   end);
2. the shard-side histogram families read from ``/metrics`` once per
   phase boundary, whose deltas over the labelling phase split the
   round trip into shard execution, WAL flush and the rest;
3. in-process passes after the server has stopped, timing the public
   calls behind each layer: the core sampler loop, ``state_dict`` /
   ``load_state_dict``, the codec, CRC32C, session telemetry and
   history, the metrics renderer, ``SessionWAL.events`` and
   ``EvaluationSession.restore`` on the server's own journal, with
   ``gc.callbacks`` timing collector pauses during the session replay.

Tracing overhead is the difference in round-trip median between the
rounds that record spans and those that do not (every other pair of
rounds records none); the traced run's own end-to-end numbers are also
reported under ``trace.*`` for comparison with the untraced run.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from perfbench.common import tree_bytes
from perfbench.label import (
    BULK_BATCH,
    N_STRATA,
    ROUND_BATCH,
    SESSIONS,
    _connection,
    scrape_metrics,
    session_seed,
)

from repro.utils.metrics import parse_prometheus_text

_MIB = float(2**20)


def _timed(fn, *args, repeat: int = 1, **kwargs):
    """(median seconds over ``repeat`` calls, last result)."""
    durations = []
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        durations.append(time.perf_counter() - t0)
    return statistics.median(durations), result


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.families: dict[str, dict] = {}
        self.gc_pauses: list[float] = []
        #: Final estimate per session of the oracle-driven core pass.
        self.core_estimates: dict[str, float] = {}

    # -- recording ------------------------------------------------------------

    def span(self, name: str, t0: float, t1: float, **attrs) -> None:
        self.spans.append((name, t0, t1, attrs))

    def scrape_families(self, url: str, tag: str) -> None:
        conn = _connection(url)
        try:
            body = scrape_metrics(conn)
        finally:
            conn.close()
        self.families[tag] = parse_prometheus_text(body.decode("utf-8"))

    @contextmanager
    def gc_timer(self):
        """Record every collector pause while the block runs."""
        started = []

        def callback(phase, info):
            if phase == "start":
                started.append(time.perf_counter())
            elif started:
                self.gc_pauses.append(time.perf_counter() - started.pop())

        gc.callbacks.append(callback)
        try:
            yield
        finally:
            gc.callbacks.remove(callback)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        path.write_text(json.dumps([
            {"name": name, "start": t0 - origin, "end": t1 - origin, **attrs}
            for name, t0, t1, attrs in self.spans]))

    # -- shard-side families -------------------------------------------------

    def _hist(self, tag: str, family: str, **labels) -> tuple[float, float]:
        """(sum, count) of a histogram family over matching label sets."""
        samples = self.families[tag].get(family, {}).get("samples", {})
        total = count = 0.0
        for (metric, label_set), value in samples.items():
            if not all(dict(label_set).get(k) == v for k, v in labels.items()):
                continue
            if metric == f"{family}_sum":
                total += value
            elif metric == f"{family}_count":
                count += value
        return total, count

    def _delta(self, family: str, **labels) -> tuple[float, float]:
        """Change of (sum, count) over the labelling phases."""
        total = count = 0.0
        segment = 0
        while f"after_label{segment}" in self.families:
            s1, c1 = self._hist(f"after_label{segment}", family, **labels)
            s0, c0 = self._hist(f"before_label{segment}", family, **labels)
            total += s1 - s0
            count += c1 - c0
            segment += 1
        return total, count

    # -- per-layer metrics ---------------------------------------------------

    def per_layer(self, journey, raw: dict, rung: dict, manager,
                  end_to_end: dict) -> dict:
        values: dict[str, float] = {}
        units: dict[str, str] = {}

        def put(name, value, unit):
            values[name] = float(value)
            units[name] = unit

        self._client_layer(raw, put)
        self._shard_layer(raw, put)
        self._in_process(journey, raw, manager, put)
        self._rung_layers(rung, put)
        rounds = np.asarray(raw["round_s"])
        traced = np.asarray(raw["round_traced"], dtype=bool)
        put("trace.overhead_round_p50_ms",
            1000.0 * (np.median(rounds[traced]) - np.median(rounds[~traced])),
            "ms")
        put("trace.spans", len(self.spans), "count")
        for name, entry in end_to_end.items():
            put(f"trace.{name}", entry["value"], entry["unit"])
        return {name: {"value": values[name], "unit": units[name]}
                for name in values}

    def _client_layer(self, raw, put) -> None:
        ms = 1000.0
        put("client.propose_p50_ms", ms * np.median(raw["propose_s"]), "ms")
        put("client.ingest_p50_ms", ms * np.median(raw["ingest_s"]), "ms")
        put("client.round_mean_ms", ms * np.mean(raw["round_s"]), "ms")
        put("client.retries", raw["retries"], "count")
        late = raw["scrape_late_s"]
        put("client.scrape_late_ms", ms * max(late) if late else 0.0, "ms")
        scrapes = raw["scrape_s"]
        put("client.scrape_p50_ms",
            ms * np.median(scrapes) if scrapes else 0.0, "ms")
        parts = raw["operator_parts_s"]
        put("client.idle_scrape_ms", ms * parts["scrape"], "ms")
        put("client.checkpoint_ms", ms * parts["checkpoint"], "ms")
        put("client.history_ms", ms * parts["history"], "ms")
        restart = raw["restart_parts_s"]
        put("process.drain_s", restart["drain"], "s")
        put("process.restart_start_s", restart["start"], "s")
        put("session.first_status_s", restart["restore"], "s")
        put("process.start_s", statistics.median(raw["start_samples_s"]), "s")
        router, shard = raw["rss_mb"]
        put("process.rss_mb.router", router, "MiB")
        put("process.rss_mb.shard", shard, "MiB")

    def _shard_layer(self, raw, put) -> None:
        n_rounds = len(raw["round_s"])
        propose_sum, propose_n = self._delta("oasis_request_seconds",
                                             op="propose")
        ingest_sum, ingest_n = self._delta("oasis_request_seconds", op="ingest")
        batch_sum, batch_n = self._delta("oasis_commit_batch_size")
        flush_sum, flush_n = self._delta("oasis_wal_append_seconds")
        fsync_sum, fsync_n = self._delta("oasis_wal_fsync_seconds")
        ms = 1000.0
        put("shard.exec_propose_ms", ms * propose_sum / max(propose_n, 1), "ms")
        put("shard.exec_ingest_ms", ms * ingest_sum / max(ingest_n, 1), "ms")
        put("shard.commit_batch_mean", batch_sum / max(batch_n, 1), "count")
        put("wal.append_ms", ms * flush_sum / max(flush_n, 1), "ms")
        put("wal.fsync_ms", ms * fsync_sum / max(fsync_n, 1), "ms")
        put("wal.flushes_per_round", flush_n / n_rounds, "count")
        shard_per_round = (propose_sum + ingest_sum + flush_sum) / n_rounds
        put("router.overhead_ms",
            ms * (np.mean(raw["round_s"]) - shard_per_round), "ms")

    def _in_process(self, journey, raw, manager, put) -> None:
        from repro.oracle.deterministic import DeterministicOracle
        from repro.experiments.specs import SAMPLER_KINDS
        from repro.service.codec import (
            decode_state,
            dump_state_binary,
            encode_state,
            load_state_binary,
        )
        from repro.service.session import EvaluationSession
        from repro.service.shard import shard_dir_name
        from repro.service.wal import GroupCommitWAL
        from repro.utils.integrity import crc32c

        put("process.gc_ms", 1000.0 * sum(self.gc_pauses), "ms")
        put("process.gc_max_ms",
            1000.0 * max(self.gc_pauses) if self.gc_pauses else 0.0, "ms")
        sessions = [manager.get(sid) for sid in SESSIONS]
        s0 = sessions[0]

        telemetry = sum(_timed(s.telemetry, repeat=3)[0] for s in sessions)
        put("session.telemetry_ms", 1000.0 * telemetry, "ms")
        manager.observe_session_telemetry()
        render_s, text = _timed(manager.metrics.render, repeat=3)
        put("metrics.render_ms", 1000.0 * render_s, "ms")
        body = raw["operator_scrape_body"].decode("utf-8")
        put("metrics.series", sum(
            1 for line in body.splitlines() if line and line[0] != "#"),
            "count")
        history_s, payload = _timed(s0.history_payload)
        put("session.history_ms", 1000.0 * history_s, "ms")
        put("session.history_mb", len(json.dumps(payload)) / _MIB, "MiB")
        del payload, text

        state_s, state = _timed(s0.sampler.state_dict)
        put("core.state_dict_ms", 1000.0 * state_s, "ms")
        encode_s, blob = _timed(
            lambda: dump_state_binary({"state": encode_state(state)}))
        put("codec.encode_ms", 1000.0 * encode_s, "ms")
        crc32c(blob[:4096])  # builds the lazy lookup tables outside the timing
        crc_s, _ = _timed(crc32c, blob)
        put("integrity.crc_ms", 1000.0 * crc_s, "ms")
        put("wal.checkpoint_mb", len(blob) / _MIB, "MiB")
        decode_s, decoded = _timed(
            lambda: decode_state(load_state_binary(blob)["state"]))
        put("codec.decode_ms", 1000.0 * decode_s, "ms")
        del state, blob
        target = EvaluationSession.create(
            np.asarray(journey.predictions.tolist()),
            np.asarray(journey.scores.tolist(), dtype=float),
            sampler="oasis", sampler_kwargs={"n_strata": N_STRATA},
            seed=session_seed(journey.seed, 0))
        load_s, _ = _timed(target.sampler.load_state_dict, decoded)
        put("core.load_state_ms", 1000.0 * load_s, "ms")
        del decoded, target

        # The server's own journal, as the restart left it.
        shard_dir = journey.root / shard_dir_name(0)
        wal = GroupCommitWAL(shard_dir / "s0", codec="binary")
        put("wal.bytes_per_draw",
            tree_bytes(wal.event_dir) / raw["final"]["s0"]["draws"], "B")
        events_s, events = _timed(wal.events)
        put("wal.events_ms", 1000.0 * events_s, "ms")
        del events
        restore = 0.0
        for sid in SESSIONS:
            seconds, _ = _timed(
                EvaluationSession.restore, shard_dir / sid,
                wal_factory=lambda d: GroupCommitWAL(d, codec="binary"))
            restore += seconds
        put("session.restore_ms", 1000.0 * restore, "ms")

        # The core sampler alone, oracle-driven, on the same schedules.
        round_calls, bulk_s = [], 0.0
        for index, sid in enumerate(SESSIONS):
            sampler = SAMPLER_KINDS["oasis"](
                np.asarray(journey.predictions.tolist()),
                np.asarray(journey.scores.tolist(), dtype=float),
                DeterministicOracle(journey.truth),
                random_state=session_seed(journey.seed, index), alpha=0.5,
                n_strata=N_STRATA)
            for batch in journey.schedule[sid]:
                seconds, _ = _timed(sampler.sample_batch, batch)
                if batch == BULK_BATCH:
                    bulk_s += seconds
                elif batch == ROUND_BATCH:
                    round_calls.append(seconds)
            self.core_estimates[sid] = float(sampler.estimate)
        put("core.round_ms", 1000.0 * np.median(round_calls), "ms")
        put("core.bulk_draws_per_s",
            raw["bulk_draws"] / bulk_s if bulk_s else 0.0, "1/s")

    def _rung_layers(self, rung: dict, put) -> None:
        spans = {name: t1 - t0 for name, t0, t1 in rung["spans"]}
        for name in ("datasets.generate", "blocking.block", "matching.fit",
                     "features.score", "core.evaluate"):
            put(f"{name}_s", spans[name], "s")
        put("rung.other_s", rung["rung_s"] - sum(spans.values()), "s")
        metrics = rung["metrics"]
        put("blocking.candidates", metrics["n_candidates"], "count")
        put("blocking.recall", metrics["lsh_recall_truth"], "ratio")
        put("features.pairs_per_s",
            metrics["n_candidates"] / spans["features.score"], "1/s")
        put("storage.bytes_mb", rung["storage_bytes"] / _MIB, "MiB")


def accounting(metrics: dict) -> list[str]:
    """How the per-layer numbers add up to the end-to-end ones."""
    v = {name: entry["value"] for name, entry in metrics.items()}
    wal_round = v["wal.append_ms"] * v["wal.flushes_per_round"]
    checkpoint = (v["core.state_dict_ms"] + v["codec.encode_ms"]
                  + v["integrity.crc_ms"] + 2 * v["wal.fsync_ms"])
    rung = sum(v[f"{name}_s"] for name in (
        "datasets.generate", "blocking.block", "matching.fit",
        "features.score", "core.evaluate"))
    return [
        f"round trip mean {v['client.round_mean_ms']:.3f} ms = router/http/rpc "
        f"{v['router.overhead_ms']:.3f} + shard exec "
        f"{v['shard.exec_propose_ms']:.3f} + {v['shard.exec_ingest_ms']:.3f} "
        f"+ wal flushes {wal_round:.3f} (of which core "
        f"{v['core.round_ms']:.3f} per round); tracing overhead on p50 "
        f"{v['trace.overhead_round_p50_ms']:+.3f} ms",
        f"checkpoint {v['client.checkpoint_ms']:.1f} ms served vs "
        f"{checkpoint:.1f} ms in layers: state_dict "
        f"{v['core.state_dict_ms']:.1f} + encode {v['codec.encode_ms']:.1f} "
        f"+ crc {v['integrity.crc_ms']:.1f} + fsyncs "
        f"{2 * v['wal.fsync_ms']:.1f} ({v['wal.checkpoint_mb']:.1f} MiB)",
        f"restart {v['trace.restart_s']:.2f} s = drain "
        f"{v['process.drain_s']:.2f} + start {v['process.restart_start_s']:.2f}"
        f" + first status {v['session.first_status_s']:.2f}; in process the "
        f"restore takes {v['session.restore_ms'] / 1000:.2f} s, of which "
        f"journal decode {v['wal.events_ms'] / 1000:.2f} s",
        f"rung {v['trace.rung_s']:.2f} s = five calls {rung:.2f} s + other "
        f"{v['rung.other_s']:.2f} s",
    ]
