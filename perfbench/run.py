"""Repository benchmark entry point.

    python3 perfbench/run.py --workload label_fresh --seed 1 --seconds 12 --trace 0

Run from the repository root.  ``--workload all`` (the default) runs
every workload in turn.  Each run prints a readable report, then, as the
last stdout line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the gated end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A run whose
outputs fail a correctness check prints ``"correct": false`` with no
metrics and exits with status 1.  See ``perfbench/README.md`` for what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("label_fresh", "label_aged")


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12,
                        help="sets the fixed labelling work: 125 rounds per "
                        "second, rounded to whole 125-round windows per "
                        "segment (not a time limit)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail_setup(f"no program source under {ROOT / 'src'}; run from the "
                    "repository root")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import numpy  # noqa: F401

        from perfbench import workloads
    except ImportError as exc:
        _fail_setup(f"cannot import the benchmark or the program: {exc}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    status = 0
    for name in names:
        workdir = ROOT / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            result = workloads.run(name, seed=args.seed, seconds=args.seconds,
                                   trace=bool(args.trace), workdir=workdir,
                                   root=ROOT, out=sys.stdout)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        results[name] = result
        if not result["correct"]:
            status = 1
    sys.stdout.flush()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
