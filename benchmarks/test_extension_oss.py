"""Extension benchmark: OSS (adaptive Neyman allocation) vs the field.

Bennett & Carvalho's online stratified sampling [3] is discussed in the
paper's related work as adaptive-but-stratified.  This benchmark slots
it into the Figure 2 line-up on the Abt-Buy pool: the expected ordering
is Passive/Stratified < OSS < IS/OASIS — adaptivity helps, biased
sampling helps more.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import (
    aggregate_trajectories,
    format_series,
    make_sampler_spec,
    run_trials,
)

from conftest import N_REPEATS, N_WORKERS, run_once, standard_specs

BUDGETS = [100, 250, 500, 1000, 2000, 4000]


def _run(pool):
    specs = standard_specs(pool, oasis_k=(30,))
    specs.append(make_sampler_spec("oss", name="OSS", n_strata=30))
    results = run_trials(
        pool, specs, budgets=BUDGETS, n_repeats=N_REPEATS, random_state=77,
        n_workers=N_WORKERS,
    )
    return {name: aggregate_trajectories(res) for name, res in results.items()}


def _final(stats):
    value = stats.final_abs_error()
    return np.inf if np.isnan(value) else value


def test_extension_oss_ordering(benchmark, pools, capsys):
    pool = pools("abt_buy")
    stats = run_once(benchmark, lambda: _run(pool))

    with capsys.disabled():
        print("\nExtension: OSS vs the Figure 2 line-up (abt_buy)")
        for method, s in stats.items():
            print(format_series(f"  {method} abs_err", s.budgets, s.abs_error))

    oss = _final(stats["OSS"])
    stratified = _final(stats["Stratified"])
    oasis = _final(stats["OASIS 30"])

    # Adaptive allocation should not lose to proportional allocation.
    assert oss <= stratified * 1.1 or not np.isfinite(stratified)
    # But stratified adaptivity alone does not reach importance
    # sampling: OASIS stays ahead.
    assert oasis <= oss * 1.1
