"""A scale-ladder rung is a pure function of its seed.

Every randomised step of ``run_scale_rung`` — record generation, LSH,
the training sample, the SVM and the Platt calibrator's fold shuffle,
and OASIS — draws from the rung seed, so two runs report identical
pools and identical estimates.
"""

from __future__ import annotations

from repro.experiments.scale import run_scale_rung


def test_small_rung_repeats_exactly_at_a_fixed_seed():
    first, second = (run_scale_rung("small", seed=0) for _ in range(2))
    assert first["n_candidates"] == second["n_candidates"]
    assert first["oasis"]["true_f_measure"] == second["oasis"]["true_f_measure"]
    assert first["oasis"]["estimate"] == second["oasis"]["estimate"]
