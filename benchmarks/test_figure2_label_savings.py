"""Figure 2: expected absolute error vs label budget, per dataset.

The paper's central result: on every heavily-imbalanced ER pool, OASIS
reaches a given estimate precision with far fewer labels than Passive,
Stratified or static IS sampling; on the mildly-imbalanced cora pool it
is merely competitive; on the balanced tweets pool all methods tie.

One benchmark per dataset.  Each runs the full line-up (Passive,
Stratified, IS, OASIS at K = 30/60/120 — 10/20/40 for tweets, as in the
paper) for N_REPEATS seeded repeats, prints the abs-err and std-dev
series, and asserts the method ordering.  NaN curves mean the paper's
95%-defined rule failed — passive sampling often cannot produce an
estimate at all, which is itself the reproduced behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import aggregate_trajectories, format_series, run_trials

from conftest import N_REPEATS, N_WORKERS, run_once, standard_specs

# Per-dataset budget grids (the paper's x-axes, scaled ~5-10x down).
BUDGETS = {
    "amazon_google": [100, 250, 500, 1000, 2000, 4000],
    "restaurant": [100, 250, 500, 1000, 2000, 3000],
    "dblp_acm": [100, 250, 500, 1000, 2000],
    "abt_buy": [100, 250, 500, 1000, 2000, 4000],
    "cora": [100, 250, 500, 1000, 2000],
    "tweets100k": [50, 100, 250, 500, 1000],
}
OASIS_K = {
    "amazon_google": (30, 60, 120),
    "restaurant": (30, 60, 120),
    "dblp_acm": (30, 60, 120),
    "abt_buy": (30, 60, 120),
    "cora": (30, 60, 120),
    "tweets100k": (10, 20, 40),  # the paper's smaller grid for tweets
}


def _final_error(stats):
    """Last defined abs-err; +inf when the curve never became defined."""
    value = stats.final_abs_error()
    return np.inf if np.isnan(value) else value


# The run is a pure function of the session's pool and the fixed seed,
# so the heavy-imbalance and headline tests read one amazon_google run.
_RUNS: dict = {}


def _run_figure2(pool, name):
    cached = _RUNS.get(name)
    if cached is not None and cached[0] is pool:
        return cached[1]
    specs = standard_specs(pool, oasis_k=OASIS_K[name])
    results = run_trials(
        pool,
        specs,
        budgets=BUDGETS[name],
        n_repeats=N_REPEATS,
        random_state=2017,
        n_workers=N_WORKERS,
    )
    stats = {spec.name: aggregate_trajectories(results[spec.name])
             for spec in specs}
    _RUNS[name] = (pool, stats)
    return stats


def _print_curves(name, stats_by_method, capsys):
    with capsys.disabled():
        print(f"\nFigure 2 [{name}]  (abs. err / std. dev vs label budget)")
        for method, stats in stats_by_method.items():
            print(format_series(
                f"  {method} abs_err", stats.budgets, stats.abs_error
            ))
            print(format_series(
                f"  {method} std_dev", stats.budgets, stats.std_dev
            ))


@pytest.mark.parametrize(
    "name", ["amazon_google", "restaurant", "dblp_acm", "abt_buy"]
)
def test_figure2_heavy_imbalance(benchmark, pools, capsys, name):
    """Heavily-imbalanced pools: OASIS wins outright."""
    pool = pools(name)
    stats = run_once(benchmark, lambda: _run_figure2(pool, name))
    _print_curves(name, stats, capsys)

    best_oasis = min(
        _final_error(stats[f"OASIS {k}"]) for k in OASIS_K[name]
    )
    passive = _final_error(stats["Passive"])
    stratified = _final_error(stats["Stratified"])
    importance = _final_error(stats["IS"])

    # OASIS beats the unbiased baselines decisively (they are often
    # not even defined at the final budget -> inf).
    assert best_oasis < passive
    assert best_oasis < stratified
    # And is at least competitive with static IS (the paper shows a
    # clear win; we allow slack for the reduced repeat count).
    assert best_oasis <= importance * 1.3


def test_figure2_cora_mild_imbalance(benchmark, pools, capsys):
    """cora: imbalance ~48 — OASIS competitive, not dominant."""
    pool = pools("cora")
    stats = run_once(benchmark, lambda: _run_figure2(pool, "cora"))
    _print_curves("cora", stats, capsys)

    best_oasis = min(_final_error(stats[f"OASIS {k}"]) for k in (30, 60, 120))
    others = [
        _final_error(stats["Passive"]),
        _final_error(stats["Stratified"]),
        _final_error(stats["IS"]),
    ]
    finite_others = [e for e in others if np.isfinite(e)]
    assert finite_others, "baselines should produce estimates on cora"
    # Competitive: within 2x of the best baseline.
    assert best_oasis <= 2.0 * min(finite_others)


def test_figure2_tweets_balanced(benchmark, pools, capsys):
    """tweets100k: balanced classes — all methods effectively tie."""
    pool = pools("tweets100k")
    stats = run_once(benchmark, lambda: _run_figure2(pool, "tweets100k"))
    _print_curves("tweets100k", stats, capsys)

    finals = {m: _final_error(s) for m, s in stats.items()}
    # Everything converges and nothing dominates: all errors small.
    assert all(np.isfinite(e) for e in finals.values())
    assert all(e < 0.06 for e in finals.values())


def test_figure2_headline_label_savings(benchmark, pools, capsys):
    """The paper's headline: up to 83% fewer labels at 1:3000 imbalance.

    Measured as: labels OASIS needs to reach the error Passive attains
    at its final budget, versus Passive's budget.
    """
    name = "amazon_google"
    pool = pools(name)
    stats = run_once(benchmark, lambda: _run_figure2(pool, name))

    passive = stats["Passive"]
    tolerance = passive.final_abs_error()
    if np.isnan(tolerance):
        # Passive never defined: infinite savings; the strongest
        # possible form of the paper's claim.
        with capsys.disabled():
            print(
                "\nFigure 2 headline: passive sampling produced no defined "
                "estimate at the final budget; OASIS savings are unbounded."
            )
        return

    passive_budget = passive.budgets[-1]
    oasis_budget = min(
        stats[f"OASIS {k}"].labels_to_reach(tolerance) for k in (30, 60, 120)
    )
    savings = 1.0 - oasis_budget / passive_budget
    with capsys.disabled():
        print(
            f"\nFigure 2 headline [{name}]: passive reaches abs err "
            f"{tolerance:.4f} at {passive_budget} labels; OASIS reaches it "
            f"at {oasis_budget:.0f} labels -> {100 * savings:.0f}% savings "
            f"(paper: 83% at imbalance 1:3000)"
        )
    assert savings > 0.5
