"""Child process: one ER pipeline rung, ``run_scale_rung(rung, seed=...)``.

Run by the benchmark as ``python -m perfbench.rung --rung R --seed N
--workdir D --spawned-at T [--trace]`` in a fresh interpreter, so that
the rung's imports, memory high-water mark and CPU time are its own.
Prints one JSON object on its last stdout line.

With ``--trace`` the five public calls the rung makes (generate, block,
fit, score, evaluate) are wrapped from outside with spans, by replacing
the names the rung module looks them up under; the rung itself is not
edited.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from perfbench.common import proc_vmhwm_mb, tree_bytes


def _instrument(scale, spans: list) -> None:
    """Time each public call ``run_scale_rung`` makes, from outside."""

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append([name, t0, time.monotonic()])
        return wrapper

    def timed_iter(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                yield from fn(*args, **kwargs)
            finally:
                spans.append([name, t0, time.monotonic()])
        return wrapper

    pipeline_cls = scale.ERPipeline
    sampler_cls = scale.OASISSampler
    scale.generate_scale_sources = timed(
        "datasets.generate", scale.generate_scale_sources)
    scale.minhash_lsh_pairs = timed("blocking.block", scale.minhash_lsh_pairs)

    class TracedPipeline(pipeline_cls):
        def fit(self, *args, **kwargs):
            return timed("matching.fit", super().fit)(*args, **kwargs)

        def score_pairs_iter(self, *args, **kwargs):
            return timed_iter("features.score",
                              super().score_pairs_iter)(*args, **kwargs)

    class TracedSampler(sampler_cls):
        def sample_until_budget(self, *args, **kwargs):
            return timed("core.evaluate",
                         super().sample_until_budget)(*args, **kwargs)

    scale.ERPipeline = TracedPipeline
    scale.OASISSampler = TracedSampler


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rung", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.experiments import scale

    spans: list = []
    if args.trace:
        _instrument(scale, spans)
    ready = time.monotonic()
    cpu0 = os.times()
    metrics = scale.run_scale_rung(args.rung, seed=args.seed,
                                   directory=args.workdir)
    done = time.monotonic()
    cpu1 = os.times()
    storage_bytes = tree_bytes(args.workdir)
    print(json.dumps({
        "start_s": ready - args.spawned_at,
        "rung_s": done - ready,
        "cpu_s": (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system),
        "vmhwm_mb": proc_vmhwm_mb(os.getpid()),
        "storage_bytes": storage_bytes,
        "metrics": metrics,
        "spans": [[name, t0 - ready, t1 - ready] for name, t0, t1 in spans],
    }))


if __name__ == "__main__":
    main()
