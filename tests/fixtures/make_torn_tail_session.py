"""Generate a torn-tail recovery fixture in the current frame format.

Writes, into the directory given as its one argument, two session
journals — one per WAL codec — each ending in a **torn final frame**:
the last event shard holds only a prefix of the bytes its frame header
declares, exactly the footprint of a crash (or power loss on a
non-atomic store) mid-append.  A ``fixture.json`` sidecar records the
pool, the drive schedule and the state restore must land on *after*
discarding the torn tail.

Each frame version has its own committed fixture, and each is the
compatibility contract for torn-tail recovery of that version:
``tests/test_service_torn_fixture.py`` restores every session with
current code and must (a) classify the damage as a recoverable tail,
not corruption, (b) land bit-identically on the recorded pre-tear
trajectory, and (c) keep journalling cleanly from the recovered
sequence number.  ``torn_tail_session/`` holds ``WFC1`` frames, written
by this script before ``WFC2`` existed; ``torn_tail_session_wfc2/``
holds ``WFC2`` frames.  A committed fixture is never regenerated: a new
frame version gets a new sibling directory.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/make_torn_tail_session.py \\
        tests/fixtures/torn_tail_session_wfc2
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from repro.service.codec import encode_state  # noqa: E402
from repro.service.session import EvaluationSession  # noqa: E402
from repro.service.wal import SessionWAL  # noqa: E402

SEED = 31
BATCH_SIZE = 7
ROUNDS = 3  # full rounds; a final ingest is then appended and torn


def make_pool(seed=29, n=80):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.3).astype(np.int8)
    scores = rng.normal(size=n) + 1.6 * labels
    predictions = (scores > 0.55).astype(np.int8)
    return predictions, scores, labels


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path,
                        help="directory to (re)create the fixture in")
    root = parser.parse_args().output
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)

    predictions, scores, labels = make_pool()
    sidecar = {
        "seed": SEED,
        "batch_size": BATCH_SIZE,
        "rounds": ROUNDS,
        "true_labels": [int(v) for v in labels],
        "predictions": encode_state(np.asarray(predictions)),
        "scores": encode_state(np.asarray(scores, dtype=float)),
        "sessions": {},
    }

    for codec in ("json", "binary"):
        session_id = f"torn-{codec}"
        session = EvaluationSession.create(
            predictions, scores, sampler="oasis", measure="recall",
            seed=SEED, directory=root / session_id, session_id=session_id,
            wal_factory=lambda d: SessionWAL(d, codec=codec),
        )
        for _ in range(ROUNDS):
            proposal = session.propose(BATCH_SIZE)
            session.ingest(
                proposal["ticket"],
                [int(labels[i]) for i in proposal["pending"]],
            )
        expected = session.status()
        estimate_at_restore = float(session.estimate)

        # One more round, whose ingest we tear: the expected state at
        # restore is *after* its propose (outstanding again) but before
        # its ingest — the torn event is the ingest's shard.  The
        # propose changes no labels, so the estimate to restore to is
        # the one captured above.
        proposal = session.propose(BATCH_SIZE)
        session.ingest(
            proposal["ticket"],
            [int(labels[i]) for i in proposal["pending"]],
        )
        events = root / session_id / "events"
        tail = sorted(events.iterdir())[-1]
        data = tail.read_bytes()
        tail.write_bytes(data[: max(13, 2 * len(data) // 3)])

        sidecar["sessions"][codec] = {
            "session_id": session_id,
            "torn_shard": tail.name,
            "estimate_at_restore": estimate_at_restore,
            "draws_at_restore": expected["draws"],
            "labels_consumed_at_restore": expected["labels_consumed"],
            "outstanding_ticket": proposal["ticket"],
            "outstanding_pending": [int(i) for i in proposal["pending"]],
        }

    (root / "fixture.json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True)
    )
    print(f"wrote {root}")


if __name__ == "__main__":
    main()
