"""The package's import path does not load scipy.

Every process the service starts (the ``serve`` router, the forkserver
its shard workers fork from) and the scale-ladder rung import
``repro``; ``scipy.stats`` would add most of a second and ~70 MiB to
each.  The normal quantile the intervals need comes from the standard
library, and scipy is imported only inside the methods that evaluate a
Beta distribution (``SemiSupervisedEstimator``,
``BetaBernoulliModel.credible_interval``).  The check runs in a fresh
interpreter, so modules this test session already imported do not
mask a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import numpy as np

import repro
import repro.experiments.cli
import repro.experiments.scale
import repro.service.http
import repro.service.shard
from repro import CrowdOracle, DeterministicOracle, OASISSampler

rng = np.random.default_rng(0)
scores = rng.random(1000)
predictions = (scores > 0.5).astype(int)
labels = (rng.random(1000) < scores).astype(int)
sampler = OASISSampler(predictions, scores, DeterministicOracle(labels),
                       random_state=0)
sampler.sample_until_budget(200)
low, high = sampler.confidence_interval()
assert low < sampler.estimate < high, (low, sampler.estimate, high)
crowd = CrowdOracle(labels, [0.8, 0.8, 0.8], random_state=0)
low, high = crowd.wilson_interval(100)
assert low < crowd.majority_accuracy < high, (low, high)
print(sorted(name for name in sys.modules
             if name == "scipy" or name.startswith("scipy.")))
"""


def test_import_path_and_intervals_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.strip()
    assert loaded == "[]", f"scipy modules loaded: {loaded[:200]}"
