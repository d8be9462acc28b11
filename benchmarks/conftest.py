"""Shared benchmark fixtures: session-scoped pools and sampler specs.

Every benchmark regenerates one paper table or figure on the scaled
synthetic pools.  Pools are built once per session; repeat counts are
deliberately smaller than the paper's 1000 (Monte-Carlo error scales as
1/sqrt(repeats) and the method ordering resolves at far fewer runs).
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import load_benchmark
from repro.experiments import make_sampler_spec

# Repeats per sampler configuration in the experiment benchmarks.
N_REPEATS = 10

# Worker processes for the experiment benchmarks' ``run_trials`` calls.
# Results are bit-identical for every worker count, so this only sets
# wall time; two keeps the process count small on a shared host.
N_WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def pools():
    """Lazily-built cache of the small-scale benchmark pools."""
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = load_benchmark(name, scale="small", random_state=42)
        return cache[name]

    return get


def standard_specs(pool, *, oasis_k=(30, 60, 120), calibrated=False):
    """The paper's Figure 2 line-up: Passive, Stratified, IS, OASIS K.

    Picklable specs, so ``run_trials`` can fan them out over
    :data:`N_WORKERS` processes.
    """
    threshold = pool.threshold
    specs = [
        make_sampler_spec("passive", name="Passive",
                          use_calibrated_scores=calibrated),
        make_sampler_spec("stratified", name="Stratified",
                          use_calibrated_scores=calibrated, n_strata=30),
        make_sampler_spec("importance", name="IS",
                          use_calibrated_scores=calibrated,
                          threshold=threshold),
    ]
    for k in oasis_k:
        specs.append(
            make_sampler_spec("oasis", name=f"OASIS {k}",
                              use_calibrated_scores=calibrated,
                              n_strata=k, threshold=threshold)
        )
    return specs


def run_once(benchmark, fn):
    """Register ``fn`` with pytest-benchmark but execute it only once.

    Experiment regenerators are too heavy for repeated timing rounds;
    a single round still records wall-clock in the benchmark table.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
