"""The two workloads: one labelling journey plus one ER pipeline rung each.

Both workloads run the same phases, so every run reports every metric
(see :class:`~perfbench.label.Journey` for the labelling part):

1. three segments, each on a fresh server: set-up (launch ``serve``,
   create ``s0`` and ``s1``), bulk aging of ``s0`` at batch 8192, and a
   share of the closed-loop ``propose(16)`` → ``ingest`` rounds with
   open-loop ``/metrics`` scrapes every 2 s;
2. operator: scrape, ``checkpoint`` and ``history`` of ``s0``;
3. restart: SIGTERM, relaunch on the same root, first ``status`` of each
   session;
4. rung: ``run_scale_rung`` in a fresh interpreter;
5. correctness checks.

``label_fresh`` ages ``s0`` by two bulk batches and runs the ``small``
rung; ``label_aged`` ages it to about 1e6 draws (the probe size of the
constant-cost-sessions work) and runs the ``medium`` rung.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from perfbench.common import (
    Checks,
    host_steal_seconds,
    load_average,
    percentile,
    provenance,
    summarize_ms,
    windowed_p90,
    windowed_rate,
)
from perfbench.label import (
    ROUND_BATCH,
    SCRAPE_PERIOD_S,
    SEGMENTS,
    SESSIONS,
    Journey,
    Ops,
    become_subreaper,
    reap_orphans,
    replay_session,
)

from repro.service import SessionManager

#: Fixed labelling work per second of ``--seconds``, rounded to whole
#: windows of :data:`P90_WINDOW` rounds per segment.
ROUNDS_PER_SECOND = 125

SPECS = {
    "label_fresh": {"bulk_batches": 2, "rung": "small"},
    "label_aged": {"bulk_batches": 122, "rung": "medium"},
}

#: The rung runs at this seed in every run.  Its input size depends
#: strongly on the seed (``medium`` gave 1.01M to 1.26M candidates over
#: five seeds, and ``rung_s`` tracked it), so a per-run seed would bury
#: any change to the pipeline in seed-to-seed variation.  The labelling
#: pool still varies with ``--seed``.
RUNG_SEED = 0

#: |OASIS estimate - true F| allowed for the rung's 600-label estimate.
RUNG_F_TOLERANCE = 0.1
RUNG_RECALL_FLOOR = 0.9
RUNG_LABEL_BUDGET = 600

#: Rounds per window of the windowed p90.
P90_WINDOW = 125

#: Full throughput windows needed for their median; with fewer,
#: ``draws_per_s`` is the overall labelling rate.
RATE_MIN_WINDOWS = 3

#: Gated end-to-end metrics: (name, unit).  Only figures whose run-to-run
#: spread stays well inside a 25% bound on the host the benchmark was
#: sized on are gated; see README.md for the measured spreads.
GATED = (
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("disk_mb", "MiB"),
    ("rung_rss_mb", "MiB"),
)

#: End-to-end figures every run reports but does not gate: their
#: run-to-run spread on that host (12-37%) is as wide as the largest
#: bound allowed.  Claims about them need paired runs.
REPORTED = (
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("draws_per_s", "1/s"),
    ("server_cpu_us_per_draw", "us"),
    ("bulk_draws_per_s", "1/s"),
    ("operator_s", "s"),
    ("restart_s", "s"),
    ("rung_s", "s"),
)


def rounds_per_segment(seconds: int) -> int:
    windows = round(seconds * ROUNDS_PER_SECOND / (SEGMENTS * P90_WINDOW))
    return P90_WINDOW * max(1, windows)


def child_env(root: Path, workdir: Path) -> dict:
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    path = [str(root / "src"), str(root)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["TMPDIR"] = str(tmp)
    return env


def run_rung(rung: str, seed: int, workdir: Path, env: dict, trace: bool,
             ops: Ops) -> dict:
    """One rung in a fresh interpreter; returns its JSON report."""
    store = workdir / "rung"
    store.mkdir()
    command = [sys.executable, "-m", "perfbench.rung", "--rung", rung,
               "--seed", str(seed), "--workdir", str(store)]
    if trace:
        command.append("--trace")
    ops.attempted["rung"] = ops.attempted.get("rung", 0) + 1
    with open(workdir / "rung.err", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            command + ["--spawned-at", repr(spawned)],
            stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL,
            env=env)
        try:
            stdout, _ = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        finally:
            reap_orphans()
    if proc.returncode != 0:
        ops.failed["rung"] = ops.failed.get("rung", 0) + 1
        tail = (workdir / "rung.err").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"rung exited with {proc.returncode}: {tail}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def check_candidates(checks: Checks, ledger: Path, rung: str, seed: int,
                     count: int) -> None:
    """The candidate count equals what earlier runs of the same rung and
    seed recorded in ``ledger``, which is kept per source digest
    (blocking is deterministic); the first run records it."""
    key = f"{rung}/{seed}"
    try:
        seen = json.loads(ledger.read_text())
    except (OSError, ValueError):
        seen = {}
    if key in seen:
        checks.equal(f"rung {key} candidates equal earlier runs",
                     count, seen[key])
        return
    checks.expect(f"rung {key} candidates recorded (first run)", True, count)
    seen[key] = count
    tmp = ledger.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True))
    os.replace(tmp, ledger)


def check_label(checks: Checks, journey: Journey, raw: dict,
                manager) -> None:
    """In every segment, each served session equals a memory-only
    in-process replay bit for bit, proposals included; the last segment's
    sessions survive the graceful restart unchanged."""
    for index, sid in enumerate(SESSIONS):
        final = raw["final"][sid]
        restored = raw["restored"][sid]
        checks.identical(f"{sid} restart keeps estimate",
                         restored["estimate"], final["estimate"])
        for key in ("labels_consumed", "draws"):
            checks.equal(f"{sid} restart keeps {key}",
                         restored[key], final[key])
        if sid == "s0":
            checks.equal("s0 history holds every draw", raw["history_len"],
                         final["draws"])
        session, digest = replay_session(journey, index, manager)
        replayed = (None if np.isnan(session.estimate)
                    else float(session.estimate))
        for segment, status in enumerate(raw["segment_status"]):
            status = status[sid]
            checks.identical(
                f"{sid} segment {segment} estimate equals in-process replay",
                status["estimate"], replayed)
            checks.equal(
                f"{sid} segment {segment} labels_consumed equals replay",
                status["labels_consumed"], int(session.labels_consumed))
            checks.equal(
                f"{sid} segment {segment} proposals equal replay",
                journey.digests[segment][sid].hexdigest(), digest)


def check_rung(checks: Checks, report: dict, ledger: Path, rung: str,
               seed: int) -> None:
    metrics = report["metrics"]
    recall = metrics["lsh_recall_truth"]
    checks.expect(f"rung blocking recall >= {RUNG_RECALL_FLOOR}",
                  recall >= RUNG_RECALL_FLOOR, recall)
    oasis = metrics["oasis"]
    error = abs(oasis["estimate"] - oasis["true_f_measure"])
    checks.expect(f"rung |OASIS - true F| <= {RUNG_F_TOLERANCE}",
                  error <= RUNG_F_TOLERANCE,
                  {"estimate": oasis["estimate"],
                   "true_f": oasis["true_f_measure"], "error": error})
    checks.equal("rung labels_consumed equals budget",
                 oasis["labels_consumed"], RUNG_LABEL_BUDGET)
    check_candidates(checks, ledger, rung, seed, metrics["n_candidates"])


def figures(raw: dict, rung: dict) -> dict:
    """Every end-to-end figure, gated or reported: ``{name: {value, unit}}``."""
    rounds = raw["round_s"]
    values = {
        "setup_s": statistics.median(raw["setup_samples_s"]) + rung["start_s"],
        "rss_mb": sum(raw["rss_mb"]),
        "disk_mb": raw["disk_mb"],
        "rung_rss_mb": rung["vmhwm_mb"],
        "round_p50_ms": 1000.0 * percentile(rounds, 50),
        "round_p90_ms": 1000.0 * windowed_p90(rounds, P90_WINDOW),
        "draws_per_s": windowed_rate(raw["round_end_s"], SCRAPE_PERIOD_S,
                                     ROUND_BATCH, RATE_MIN_WINDOWS),
        "server_cpu_us_per_draw": 1e6 * statistics.median(
            raw["label_cpu_samples_s"]) / raw["label_draws"],
        "bulk_draws_per_s": raw["bulk_draws"] / statistics.median(
            raw["bulk_samples_s"]),
        "operator_s": raw["operator_s"],
        "restart_s": raw["restart_s"],
        "rung_s": rung["rung_s"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in GATED + REPORTED}


def sample_counts(raw: dict) -> dict:
    """What each end-to-end figure summarises, for the report."""
    n_rounds = len(raw["round_s"])
    windows = sum(int(e[-1] // SCRAPE_PERIOD_S) for e in raw["round_end_s"])
    return {
        "setup_s": f"median of {len(raw['setup_samples_s'])} set-ups "
                   "+ 1 rung start",
        "rss_mb": "router + shard VmHWM before the restart",
        "disk_mb": "service root after the restart",
        "rung_rss_mb": "rung process VmHWM",
        "round_p50_ms": f"{n_rounds} rounds",
        "round_p90_ms": f"{n_rounds} rounds, median of "
                        f"{n_rounds // P90_WINDOW} window p90s",
        "draws_per_s": f"{n_rounds * ROUND_BATCH} draws, " + (
            f"median of {windows} {SCRAPE_PERIOD_S:g}-s windows"
            if windows >= RATE_MIN_WINDOWS else
            f"overall rate (only {windows} full {SCRAPE_PERIOD_S:g}-s "
            "windows)"),
        "server_cpu_us_per_draw": f"median of {SEGMENTS} segments of "
                                  f"{raw['label_draws']} draws",
        "bulk_draws_per_s": f"median of {SEGMENTS} phases of "
                            f"{raw['bulk_draws']} draws",
        "operator_s": "1 scrape + 1 checkpoint + 1 history + 1 restart",
        "restart_s": "1 restart",
        "rung_s": "1 rung",
    }


def run(name: str, *, seed: int, seconds: int, trace: bool, workdir: Path,
        root: Path, out) -> dict:
    spec = SPECS[name]
    become_subreaper()
    env = child_env(root, workdir)
    ops = Ops()
    checks = Checks()
    host = {"steal_s": host_steal_seconds(), "loadavg_start": load_average()}
    prov = provenance(root)
    wall0 = time.monotonic()
    tracer = None
    if trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
    journey = Journey(seed, bulk_batches=spec["bulk_batches"],
                      rounds_per_segment=rounds_per_segment(seconds),
                      workdir=workdir, env=env, ops=ops, tracer=tracer)
    raw = rung = None
    try:
        raw = journey.run()
        rung = run_rung(spec["rung"], RUNG_SEED, workdir, env, trace, ops)
    except Exception as exc:  # the run fails; report it, print no numbers
        checks.expect("workload completed", False,
                      f"{type(exc).__name__}: {exc}")
    if raw is not None and rung is not None:
        manager = SessionManager(None)
        with tracer.gc_timer() if trace else nullcontext():
            check_label(checks, journey, raw, manager)
        ledger = (root / ".perfbench_work"
                  / f"candidates-{prov['src_sha256']}.json")
        check_rung(checks, rung, ledger, spec["rung"], RUNG_SEED)
    shown = metrics = {}
    if checks.ok:
        shown = figures(raw, rung)
        metrics = {name: shown[name] for name, _ in GATED}
        if trace:
            metrics = tracer.per_layer(journey, raw, rung, manager, shown)
            for sid in SESSIONS:
                checks.identical(f"{sid} core sample_batch loop equals served",
                                 tracer.core_estimates[sid],
                                 raw["final"][sid]["estimate"])
            tracer.write(root / ".perfbench_work" / "traces"
                         / f"{name}-{seed}.json")
    steal = host_steal_seconds()
    if steal is not None and host["steal_s"] is not None:
        host["steal_s"] = steal - host["steal_s"]
    host["loadavg_end"] = load_average()
    host["wall_s"] = time.monotonic() - wall0
    report(out, name, seed, trace, raw, rung, shown, metrics, ops, checks,
           host, prov)
    return {
        "correct": checks.ok,
        "attempted": ops.total_attempted,
        "failed": ops.total_failed,
        "metrics": metrics if checks.ok else {},
    }


def _line(metric: str, entry: dict, count: str) -> str:
    return (f"  {metric:32s} {entry['value']:14.6g} {entry['unit']:6s} "
            f"n={count}")


def report(out, name, seed, trace, raw, rung, shown, metrics, ops, checks,
           host, prov) -> None:
    print(f"== {name} seed={seed} trace={int(trace)}", file=out)
    print(f"  provenance {json.dumps(prov)}", file=out)
    print(f"  host steal_s={host['steal_s']} loadavg "
          f"{host['loadavg_start']} -> {host['loadavg_end']} "
          f"wall_s={host['wall_s']:.1f}", file=out)
    counts = sample_counts(raw) if raw else {}
    if shown:
        print("  end to end, gated:", file=out)
        for metric, _ in GATED:
            print(_line(metric, shown[metric], counts[metric]), file=out)
        print("  end to end, reported (not gated):", file=out)
        for metric, _ in REPORTED:
            print(_line(metric, shown[metric], counts[metric]), file=out)
    if trace and metrics:
        print("  per layer:", file=out)
        for metric, entry in metrics.items():
            print(_line(metric, entry, "1"), file=out)
    if raw:
        tail = summarize_ms(raw["round_s"])
        print(f"  round trip ms, pooled: "
              f"{json.dumps({k: round(v, 3) for k, v in tail.items()})}",
              file=out)
        print(f"  phases_s {json.dumps({k: round(v, 3) for k, v in raw.get('phases_s', {}).items()})}",
              file=out)
    if rung:
        timings = rung["metrics"]["timings"]
        print(f"  rung {rung['metrics']['rung']} records="
              f"{rung['metrics']['n_records']} candidates="
              f"{rung['metrics']['n_candidates']} own timings_s "
              f"{json.dumps({k: round(v, 3) for k, v in timings.items()})}",
              file=out)
    if trace and metrics:
        from perfbench.trace import accounting

        for line in accounting(metrics):
            print(f"  account {line}", file=out)
    print(f"  operations attempted={ops.total_attempted} "
          f"failed={ops.total_failed} retried="
          f"{raw.get('retries', 0) if raw else 0} "
          f"by kind {json.dumps(ops.attempted)}", file=out)
    for error in ops.errors[:5]:
        print(f"  error {error}", file=out)
    checks.report(out)
    print(f"  correct={checks.ok}", file=out)
