"""Figure 5: estimation error across classifier types on Abt-Buy.

The paper re-runs the comparison with five classifiers (L-SVM, NN,
AdaBoost, LR, RBF-SVM) and measures each method's expected absolute
error after 5000 labels: OASIS generally wins regardless of the
classifier producing the scores.  We rebuild the Abt-Buy pool once per
classifier and evaluate all four sampling methods at a fixed budget.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers import (
    AdaBoostClassifier,
    LinearSVM,
    LogisticRegression,
    MLPClassifier,
    RbfSVM,
)
from repro.datasets import load_benchmark
from repro.experiments import aggregate_trajectories, format_table, run_trials

from conftest import N_WORKERS, run_once, standard_specs

BUDGET = 1500
N_REPEATS = 8

CLASSIFIERS = {
    "L-SVM": lambda: LinearSVM(random_state=0),
    "NN": lambda: MLPClassifier(random_state=0, n_epochs=80),
    "AB": lambda: AdaBoostClassifier(n_estimators=40),
    "LR": lambda: LogisticRegression(),
    "R-SVM": lambda: RbfSVM(random_state=0, n_components=100),
}


def _evaluate_classifier(name, factory):
    pool = load_benchmark(
        "abt_buy", scale="small", classifier=factory(), random_state=42
    )
    specs = standard_specs(pool, oasis_k=(30,))
    results = run_trials(
        pool, specs, budgets=[BUDGET], n_repeats=N_REPEATS, random_state=5,
        n_workers=N_WORKERS,
    )
    row = {"classifier": name, "true_f": pool.performance["f_measure"]}
    for method, result in results.items():
        stats = aggregate_trajectories(result)
        row[method] = stats.abs_error[-1]
    return row


def test_figure5_classifier_sweep(benchmark, capsys):
    rows = run_once(
        benchmark,
        lambda: [
            _evaluate_classifier(name, factory)
            for name, factory in CLASSIFIERS.items()
        ],
    )

    header = ["classifier", "true_F", "Passive", "Stratified", "IS", "OASIS 30"]
    table_rows = [
        [
            r["classifier"],
            round(r["true_f"], 3),
            r["Passive"],
            r["Stratified"],
            r["IS"],
            r["OASIS 30"],
        ]
        for r in rows
    ]
    with capsys.disabled():
        print()
        print(format_table(
            header,
            table_rows,
            title=f"Figure 5: abs err after {BUDGET} labels (Abt-Buy)",
        ))

    wins = 0
    for r in rows:
        oasis = r["OASIS 30"]
        others = [r["Passive"], r["Stratified"], r["IS"]]
        finite_others = [e for e in others if np.isfinite(e)]
        assert np.isfinite(oasis), f"OASIS undefined for {r['classifier']}"
        # OASIS must always beat the unbiased baselines (or they are
        # undefined, which counts as a win).
        for baseline in (r["Passive"], r["Stratified"]):
            assert not np.isfinite(baseline) or oasis < baseline * 1.1, (
                f"OASIS lost to a passive baseline on {r['classifier']}"
            )
        if not finite_others or oasis <= min(finite_others):
            wins += 1
    # OASIS is the best method for the majority of classifiers.
    assert wins >= 3
