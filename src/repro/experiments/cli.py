"""Command-line experiment runner.

Regenerates the paper's experiments without writing code::

    python -m repro.experiments datasets
    python -m repro.experiments compare --dataset abt_buy --budget 2000
    python -m repro.experiments convergence --dataset abt_buy
    python -m repro.experiments calibration --dataset abt_buy
    python -m repro.experiments sweep --config sweep.json --workers 4 \
        --out runs/sweep --resume
    python -m repro.experiments pipeline --rungs small medium large \
        --out BENCH_pipeline_ladder.json
    python -m repro.experiments serve --port 8765 --root runs/service

Each experiment subcommand prints the corresponding table/series in the
same format as the benchmark suite.  ``compare``, ``calibration`` and
``sweep`` accept ``--workers`` to fan repeated trials out over a
process pool (estimates are bit-identical for any worker count);
``sweep`` additionally checkpoints each completed repeat under
``--out`` and ``--resume`` skips whatever already finished.

``serve`` runs the evaluation service (:mod:`repro.service`): a
JSON-over-HTTP front-end where clients create sessions, fetch pair
batches to label (``propose``) and return labels as they arrive
(``ingest``), with every session journalled under ``--root`` so a
killed server resumes each session exactly where it stopped.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import OASISSampler
from repro.datasets import BENCHMARK_NAMES, dataset_summary, load_benchmark
from repro.datasets.scale import DATASET_SPECS
from repro.experiments.aggregate import aggregate_all
from repro.experiments.convergence import run_convergence_experiment
from repro.experiments.report import format_series, format_table
from repro.experiments.runner import run_trials
from repro.experiments.scale import DEFAULT_MEMORY_BUDGET, run_scale_rung
from repro.experiments.specs import make_sampler_spec
from repro.experiments.sweep import SweepConfig, run_sweep
from repro.measures.ratio import MEASURE_KINDS, FMeasure, measure_from_spec
from repro.oracle import DeterministicOracle
from repro.utils import check_count

__all__ = ["main", "build_parser"]


def _add_measure_flags(parser) -> None:
    """The target-measure flags shared by the experiment subcommands."""
    parser.add_argument(
        "--measure", default=None, choices=sorted(MEASURE_KINDS),
        help="target measure to estimate (default: the paper's "
        "F-measure); the reported true value tracks this choice",
    )
    parser.add_argument(
        "--alpha", type=float, default=None,
        help="F-measure weight in the alpha parametrisation "
        "(only with --measure fmeasure or no --measure; default 0.5)",
    )


def _measure_from_args(args):
    """Resolve (--measure, --alpha) into a measure, or None for legacy F.

    Returns None when neither flag was given, which keeps the exact
    historical default path (F-measure at alpha 0.5).
    """
    if args.measure is None and args.alpha is None:
        return None
    if args.measure in (None, "fmeasure"):
        return FMeasure(0.5 if args.alpha is None else args.alpha)
    if args.alpha is not None:
        raise SystemExit(
            f"--alpha only parametrises the F-measure, not {args.measure}"
        )
    return measure_from_spec(args.measure)


def _true_value(pool, measure) -> tuple:
    """(display name, ground-truth value) of the targeted measure."""
    if measure is None:
        return "F", pool.performance["f_measure"]
    return measure.name, measure.value(pool.true_labels, pool.predictions)


def _positive_int(text: str):
    """argparse type: a positive integer, via the shared validator."""

    def parse(value):
        try:
            return check_count(int(value), text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the OASIS paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="print Tables 1-2")
    datasets.add_argument("--scale", default="tiny", choices=["tiny", "small"])
    datasets.add_argument("--seed", type=int, default=42)

    compare = sub.add_parser("compare", help="Figure 2 style comparison")
    compare.add_argument("--dataset", default="abt_buy", choices=BENCHMARK_NAMES)
    compare.add_argument("--scale", default="small", choices=["tiny", "small"])
    compare.add_argument("--budget", type=_positive_int("budget"), default=2000)
    compare.add_argument("--repeats", type=_positive_int("repeats"), default=10)
    compare.add_argument("--n-strata", type=_positive_int("n_strata"), default=30)
    compare.add_argument("--seed", type=int, default=42)
    compare.add_argument(
        "--calibrated", action="store_true",
        help="use calibrated probabilities instead of margins",
    )
    compare.add_argument(
        "--batch-size", type=_positive_int("batch_size"), default=1,
        help="draws per proposal refresh (1 = sequential paper protocol)",
    )
    compare.add_argument(
        "--include-oss", action="store_true",
        help="add the OSS (adaptive Neyman) extension baseline",
    )
    compare.add_argument(
        "--workers", type=_positive_int("workers"), default=1,
        help="process-pool width for the repeated trials",
    )
    _add_measure_flags(compare)

    convergence = sub.add_parser("convergence", help="Figure 4 diagnostics")
    convergence.add_argument("--dataset", default="abt_buy", choices=BENCHMARK_NAMES)
    convergence.add_argument("--scale", default="small", choices=["tiny", "small"])
    convergence.add_argument("--iterations", type=_positive_int("iterations"), default=10_000)
    convergence.add_argument("--n-strata", type=_positive_int("n_strata"), default=30)
    convergence.add_argument("--seed", type=int, default=42)
    convergence.add_argument(
        "--batch-size", type=_positive_int("batch_size"), default=1,
        help="draws per proposal refresh during the diagnostic run",
    )
    _add_measure_flags(convergence)

    calibration = sub.add_parser("calibration", help="Figure 3 comparison")
    calibration.add_argument("--dataset", default="abt_buy", choices=BENCHMARK_NAMES)
    calibration.add_argument("--scale", default="small", choices=["tiny", "small"])
    calibration.add_argument("--budget", type=_positive_int("budget"), default=2000)
    calibration.add_argument("--repeats", type=_positive_int("repeats"), default=10)
    calibration.add_argument("--seed", type=int, default=42)
    calibration.add_argument(
        "--workers", type=_positive_int("workers"), default=1,
        help="process-pool width for the repeated trials",
    )

    sweep = sub.add_parser(
        "sweep",
        help="declarative scenario grid: dataset x oracle x batch size",
    )
    sweep.add_argument(
        "--config", default=None,
        help="JSON sweep config (see repro.experiments.sweep.SweepConfig); "
        "overrides the inline grid flags below",
    )
    sweep.add_argument(
        "--datasets", nargs="+", default=["abt_buy"], choices=BENCHMARK_NAMES,
        metavar="DATASET",
    )
    sweep.add_argument("--scale", default="tiny", choices=["tiny", "small"])
    sweep.add_argument("--budgets", nargs="+", type=_positive_int("budgets"), default=[50, 100, 200])
    sweep.add_argument("--batch-sizes", nargs="+", type=_positive_int("batch_sizes"), default=[1])
    sweep.add_argument("--repeats", type=_positive_int("repeats"), default=10)
    sweep.add_argument("--n-strata", type=_positive_int("n_strata"), default=30)
    sweep.add_argument("--seed", type=int, default=42)
    sweep.add_argument(
        "--flip-prob", type=float, default=None,
        help="also sweep a noisy oracle with this symmetric error rate",
    )
    sweep.add_argument(
        "--measures", nargs="+", default=None, choices=sorted(MEASURE_KINDS),
        metavar="MEASURE",
        help="target-measure grid axis, one job per measure "
        "(default: the F-measure path)",
    )
    sweep.add_argument(
        "--workers", type=_positive_int("workers"), default=1,
        help="process-pool width per job (results identical for any value)",
    )
    sweep.add_argument(
        "--out", default=None,
        help="run directory: shards stream here as repeats complete",
    )
    resume = sweep.add_mutually_exclusive_group()
    resume.add_argument(
        "--resume", dest="resume", action="store_true", default=True,
        help="skip shards already completed in --out (default)",
    )
    resume.add_argument(
        "--no-resume", dest="resume", action="store_false",
        help="recompute every shard even if present",
    )

    pipeline = sub.add_parser(
        "pipeline",
        help="out-of-core scale ladder: chunked stores + MinHash-LSH",
    )
    pipeline.add_argument(
        "--rungs", nargs="+", default=["small", "medium", "large"],
        choices=sorted(DATASET_SPECS), metavar="RUNG",
        help="ladder rungs to run in sequence (see repro.datasets.scale)",
    )
    pipeline.add_argument("--seed", type=int, default=0)
    pipeline.add_argument(
        "--memory-budget", type=_positive_int("memory_budget"),
        default=DEFAULT_MEMORY_BUDGET,
        help="target bytes of transient scoring memory per chunk "
        f"(default {DEFAULT_MEMORY_BUDGET // (1024 * 1024)} MiB)",
    )
    pipeline.add_argument(
        "--bands", type=_positive_int("bands"), default=32,
        help="MinHash-LSH bands (more bands = higher recall, more pairs)",
    )
    pipeline.add_argument(
        "--rows", type=_positive_int("rows"), default=4,
        help="MinHash rows per band (more rows = stricter buckets)",
    )
    pipeline.add_argument(
        "--label-budget", type=_positive_int("label_budget"), default=600,
        help="oracle labels the OASIS estimator may consume per rung",
    )
    pipeline.add_argument(
        "--directory", default=None,
        help="persist the chunked stores here instead of a temp dir",
    )
    pipeline.add_argument(
        "--out", default=None,
        help="write the ladder metrics to this JSON file",
    )

    serve = sub.add_parser(
        "serve",
        help="run the evaluation service (JSON-over-HTTP sessions)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="listening port (0 picks a free one)",
    )
    serve.add_argument(
        "--root", default=None,
        help="service root directory: one journalled session per "
        "subdirectory; omit for a memory-only (non-durable) service",
    )
    serve.add_argument(
        "--capacity", type=_positive_int("capacity"), default=None,
        help="max resident sessions; LRU idle sessions evict to --root",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=None,
        help="evict journalled sessions idle longer than this many "
        "seconds (they restore transparently on next access; "
        "in-process mode only)",
    )
    serve.add_argument(
        "--shards", type=int, default=0,
        help="run the sharded multi-process tier with this many shard "
        "worker processes (requires --root); 0 serves in-process",
    )
    serve.add_argument(
        "--flush-interval", type=float, default=0.0,
        help="seconds each shard waits after the first "
        "queued request for a commit group to form (0 = commit "
        "whatever is queued)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32,
        help="max requests per shard commit window",
    )
    serve.add_argument(
        "--max-queue", type=int, default=128,
        help="per-shard inbox bound; beyond it requests "
        "get 503 + Retry-After",
    )
    serve.add_argument(
        "--codec", choices=("json", "binary"), default="json",
        help="WAL shard serialisation",
    )
    serve.add_argument(
        "--rpc-timeout", type=float, default=None,
        help="seconds the router waits for a shard's "
        "answer before returning 504 (default 120; clients can lower "
        "it per request with the X-Request-Timeout header)",
    )
    serve.add_argument(
        "--log-format", choices=("json", "text"), default="text",
        help="structured-log rendering: one JSON object per line, or "
        "human-readable key=value text",
    )
    serve.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum severity emitted to stderr",
    )

    report = sub.add_parser(
        "report",
        help="render a convergence report (HTML + markdown) from "
        "journalled trial stores or a live server",
    )
    source = report.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--store", default=None,
        help="trial-store directory (a sweep root or a single "
        "checkpoint dir with trials.jsonl shards)",
    )
    source.add_argument(
        "--server", default=None,
        help="base URL of a live service (http://host:port); sessions "
        "are read via GET /sessions/{id}/history",
    )
    report.add_argument(
        "--sessions", nargs="*", default=None,
        help="with --server: restrict to these session ids "
        "(default: every listed session)",
    )
    report.add_argument(
        "--out", default="report",
        help="output directory for report.html / report.md",
    )
    report.add_argument(
        "--formats", nargs="+", choices=("html", "md"),
        default=["html", "md"],
        help="which renderings to write",
    )
    report.add_argument(
        "--title", default="Convergence report",
        help="heading used in the rendered report",
    )
    return parser


def _budget_grid(budget: int) -> list[int]:
    grid = [50, 100, 250, 500, 1000, 2000, 4000, 8000, 16000]
    out = [b for b in grid if b < budget]
    out.append(budget)
    return out


def _cmd_datasets(args) -> None:
    rows = []
    for name in BENCHMARK_NAMES:
        pool = load_benchmark(name, scale=args.scale, random_state=args.seed)
        row = dataset_summary(pool)
        rows.append([
            row["dataset"], row["size"], row["imbalance_ratio"],
            row["n_matches"], row["precision"], row["recall"],
            row["f_measure"],
        ])
    print(format_table(
        ["dataset", "size", "imb_ratio", "matches", "P", "R", "F"],
        rows,
        title=f"Tables 1-2 (scale={args.scale})",
    ))


def _print_abs_errors(results) -> None:
    for name, stats in aggregate_all(results).items():
        print(format_series(f"{name} abs_err", stats.budgets, stats.abs_error))


def _cmd_compare(args) -> None:
    pool = load_benchmark(args.dataset, scale=args.scale, random_state=args.seed)
    measure = _measure_from_args(args)
    threshold = pool.threshold
    k = args.n_strata
    calibrated = args.calibrated
    specs = [
        make_sampler_spec(
            "passive", name="Passive", use_calibrated_scores=calibrated),
        make_sampler_spec(
            "stratified", name="Stratified", n_strata=k,
            use_calibrated_scores=calibrated),
        make_sampler_spec(
            "importance", name="IS", threshold=threshold,
            use_calibrated_scores=calibrated),
        make_sampler_spec(
            "oasis", name=f"OASIS {k}", n_strata=k, threshold=threshold,
            use_calibrated_scores=calibrated),
    ]
    if args.include_oss:
        specs.append(make_sampler_spec(
            "oss", name="OSS", n_strata=k, use_calibrated_scores=calibrated))

    name, true_value = _true_value(pool, measure)
    print(f"pool {args.dataset}: {len(pool)} items, "
          f"true {name} = {true_value:.4f}")
    results = run_trials(
        pool, specs, budgets=_budget_grid(args.budget),
        n_repeats=args.repeats, batch_size=args.batch_size,
        measure=measure,
        random_state=args.seed, n_workers=args.workers,
    )
    _print_abs_errors(results)


def _cmd_convergence(args) -> None:
    pool = load_benchmark(args.dataset, scale=args.scale, random_state=args.seed)
    measure = _measure_from_args(args)
    sampler = OASISSampler(
        pool.predictions,
        pool.scores_calibrated,
        DeterministicOracle(pool.true_labels),
        n_strata=args.n_strata,
        measure=measure,
        record_diagnostics=True,
        random_state=args.seed,
    )
    name, true_value = _true_value(pool, measure)
    diag = run_convergence_experiment(
        sampler, pool.true_labels, true_value,
        n_iterations=args.iterations, batch_size=args.batch_size,
    )
    checkpoints = np.linspace(0, args.iterations - 1, 10).astype(int)
    print(f"convergence on {args.dataset} (K={args.n_strata}, "
          f"{args.iterations} iterations, true {name} = {true_value:.4f})")
    print(format_series(f"|G_hat - {name}|", diag.budgets[checkpoints],
                        diag.f_abs_error[checkpoints]))
    print(format_series("mean |pi err|", diag.budgets[checkpoints],
                        diag.pi_abs_error[checkpoints]))
    print(format_series("KL(v*||v_hat)", diag.budgets[checkpoints],
                        diag.kl_from_optimal[checkpoints]))


def _cmd_calibration(args) -> None:
    pool = load_benchmark(args.dataset, scale=args.scale, random_state=args.seed)
    threshold = pool.threshold
    specs = [
        make_sampler_spec("importance", name="IS uncal", threshold=threshold),
        make_sampler_spec(
            "importance", name="IS cal", use_calibrated_scores=True),
        make_sampler_spec(
            "oasis", name="OASIS uncal", n_strata=60, threshold=threshold),
        make_sampler_spec(
            "oasis", name="OASIS cal", n_strata=60, use_calibrated_scores=True),
    ]
    print(f"pool {args.dataset}: true F = {pool.performance['f_measure']:.4f}")
    results = run_trials(
        pool, specs, budgets=_budget_grid(args.budget),
        n_repeats=args.repeats, random_state=args.seed,
        n_workers=args.workers,
    )
    _print_abs_errors(results)


def _cmd_sweep(args) -> None:
    if args.config is not None:
        config = SweepConfig.from_json(args.config)
    else:
        oracles = [{"kind": "deterministic"}]
        if args.flip_prob is not None:
            oracles.append({"kind": "noisy", "flip_prob": args.flip_prob})
        config = SweepConfig(
            datasets=list(args.datasets),
            budgets=list(args.budgets),
            samplers=[
                {"kind": "oasis", "n_strata": args.n_strata},
                {"kind": "passive"},
            ],
            oracles=oracles,
            batch_sizes=list(args.batch_sizes),
            measures=(list(args.measures) if args.measures else [None]),
            n_repeats=args.repeats,
            seed=args.seed,
            scale=args.scale,
        )

    def report(job, results):
        print(f"[{job.index + 1}] {job.job_id}")
        _print_abs_errors(results)

    run_sweep(
        config,
        workers=args.workers,
        out_dir=args.out,
        resume=args.resume,
        progress=report,
    )


def _cmd_pipeline(args) -> None:
    import json

    results = []
    for rung in args.rungs:
        metrics = run_scale_rung(
            rung,
            seed=args.seed,
            directory=args.directory,
            memory_budget=args.memory_budget,
            bands=args.bands,
            rows=args.rows,
            label_budget=args.label_budget,
        )
        results.append(metrics)
        rss = metrics["peak_rss_bytes"]
        rss_mb = f"{rss / 2**20:8.1f}" if rss is not None else "     n/a"
        print(
            f"{metrics['rung']:>8}: {metrics['n_records']:>9,} records  "
            f"{metrics['n_candidates']:>10,} candidates  "
            f"recall {metrics['lsh_recall_truth']:.3f}  "
            f"OASIS {metrics['oasis']['estimate']:.4f} "
            f"(true {metrics['oasis']['true_f_measure']:.4f}, "
            f"{metrics['oasis']['labels_consumed']} labels)  "
            f"peak RSS{rss_mb} MiB  "
            f"{metrics['timings']['total_s']:7.1f}s"
        )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.out}")


def _cmd_serve(args) -> None:
    # Deferred import: the service layer is not needed by the
    # experiment subcommands.
    from repro.service.http import make_sharded_backend, serve

    if args.shards > 0 and args.root is None:
        raise SystemExit("--shards requires --root (journals live there)")
    backend = make_sharded_backend(
        args.root, args.shards, codec=args.codec,
        flush_interval=args.flush_interval, max_batch=args.max_batch,
        max_queue=args.max_queue, capacity=args.capacity,
        rpc_timeout=args.rpc_timeout,
        log_format=args.log_format, log_level=args.log_level,
    )
    serve(backend, host=args.host, port=args.port,
          idle_timeout=args.idle_timeout,
          log_format=args.log_format, log_level=args.log_level)


def _cmd_report(args) -> None:
    # Deferred import: report generation pulls in the service client
    # only when --server is used.
    from repro.experiments.report import (
        collect_series_from_server,
        collect_series_from_store,
        write_report,
    )

    if args.store is not None:
        series = collect_series_from_store(args.store)
    else:
        series = collect_series_from_server(
            args.server, session_ids=args.sessions)
    if not series:
        raise SystemExit("no convergence series found to report on")
    paths = write_report(series, args.out, formats=tuple(args.formats),
                         title=args.title)
    for path in paths:
        print(f"wrote {path}")


_COMMANDS = {
    "datasets": _cmd_datasets,
    "compare": _cmd_compare,
    "convergence": _cmd_convergence,
    "calibration": _cmd_calibration,
    "sweep": _cmd_sweep,
    "pipeline": _cmd_pipeline,
    "serve": _cmd_serve,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _COMMANDS[args.command](args)
    return 0
