"""Tests for the benchmark's own helpers (not for the program under test)."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from perfbench.common import (
    Checks,
    host_steal_seconds,
    make_pool,
    percentile,
    proc_cpu_seconds,
    proc_vmhwm_mb,
    same_float,
    summarize_ms,
    tail_supported,
    windowed_p90,
    windowed_rate,
)


def test_tail_rule_needs_ten_samples_beyond_the_percentile():
    assert tail_supported(100, 90)
    assert not tail_supported(99, 90)
    assert tail_supported(1000, 99)
    assert not tail_supported(999, 99)


def test_percentile_refuses_unsupported_tails():
    assert percentile([3.0], 50) == 3.0
    assert percentile(range(101), 90) == pytest.approx(90.0)
    with pytest.raises(ValueError, match="p90 needs 100 samples"):
        percentile(range(99), 90)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summary_reports_only_supported_percentiles():
    assert set(summarize_ms([0.001] * 99)) == {"count", "p50", "mean"}
    assert set(summarize_ms([0.001] * 100)) == {"count", "p50", "p90", "mean"}
    assert "p99" in summarize_ms([0.001] * 1000)


def test_windowed_p90_ignores_a_stall_confined_to_one_window():
    values = np.full(500, 1.0)
    values[400:] = 50.0  # every sample of the last window stalls
    assert windowed_p90(values, 100) == 1.0
    assert percentile(values, 90) == 50.0
    with pytest.raises(ValueError):
        windowed_p90(values[:99], 100)


def test_windowed_rate_is_the_median_window_and_falls_back_when_short():
    # 10 events per second for 4 s, then a 1-s window with a single event.
    ends = np.concatenate([np.arange(40) / 10.0 + 0.05, [4.5]])
    assert windowed_rate([ends], 1.0, 2.0) == 20.0
    # Two short phases: two full windows in all, so the overall rate.
    assert windowed_rate([ends[:15], ends[:15]], 1.0, 1.0) == \
        pytest.approx(30 / 2.9)
    # Windows never straddle phases: 2 + 2 full windows of 10 events.
    assert windowed_rate([ends[:25], ends[:25]], 1.0, 1.0) == 10.0


def test_pool_generator_is_a_pure_function_of_the_seed():
    a = make_pool(7, n_items=20_000)
    b = make_pool(7, n_items=20_000)
    c = make_pool(8, n_items=20_000)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)
    assert not np.array_equal(a[2], c[2])
    truth, predictions, scores = a
    assert int(truth.sum()) == 100
    assert np.array_equal(predictions, (scores >= 0.5).astype(np.int8))
    assert scores.min() >= 0.0 and scores.max() <= 1.0


def test_proc_readers_see_a_live_process():
    assert proc_cpu_seconds(os.getpid()) > 0
    assert proc_vmhwm_mb(os.getpid()) > 1
    steal = host_steal_seconds()
    assert steal is None or steal >= 0


def test_proc_readers_return_none_once_the_pid_is_gone():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    assert child.wait(timeout=60) == 0
    assert proc_cpu_seconds(child.pid) is None
    assert proc_vmhwm_mb(child.pid) is None
    assert proc_cpu_seconds(None) is None
    assert proc_vmhwm_mb(None) is None


def test_comparators_reject_a_perturbed_estimate():
    estimate = 0.1275547293534506
    assert same_float(estimate, float(np.float64(estimate)))
    assert not same_float(estimate, float(np.nextafter(estimate, 1.0)))
    assert same_float(None, float("nan"))
    assert not same_float(None, 0.0)
    checks = Checks()
    assert checks.identical("same", estimate, estimate)
    assert checks.ok
    assert not checks.identical("perturbed", estimate,
                                float(np.nextafter(estimate, 0.0)))
    assert not checks.ok


def test_rung_checks_reject_a_perturbed_estimate_and_budget(tmp_path):
    pytest.importorskip("repro")
    from perfbench.workloads import RUNG_F_TOLERANCE, check_rung

    def report(estimate, labels=600, candidates=1234):
        return {"metrics": {
            "lsh_recall_truth": 0.95, "n_candidates": candidates,
            "oasis": {"estimate": estimate, "true_f_measure": 0.9,
                      "labels_consumed": labels}}}

    ledger = tmp_path / "candidates.json"
    checks = Checks()
    check_rung(checks, report(0.9), ledger, "small", 1)
    assert checks.ok
    perturbed = Checks()
    check_rung(perturbed, report(0.9 + 1.01 * RUNG_F_TOLERANCE, labels=599,
                                 candidates=1235), ledger, "small", 1)
    failed = {r["check"] for r in perturbed.results if not r["ok"]}
    assert len(failed) == 3, failed
