"""Helpers shared by the benchmark workloads.

Everything here is measured from outside the program under test:
percentiles over client-side samples, ``/proc`` readers for another
process's CPU time and peak RSS, host-noise readings, the seeded input
pool, and the correctness comparators every run must pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import struct
from pathlib import Path

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, its value is one or two outliers, not a tail.
TAIL_SAMPLES = 10

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- summaries ----------------------------------------------------------------


def tail_supported(count: int, q: float) -> bool:
    """Whether ``count`` samples support the ``q``-th percentile.

    The rule: at least :data:`TAIL_SAMPLES` samples must lie above it,
    so p90 needs 100 samples and p99 needs 1000.
    """
    return count * (100.0 - q) >= 100.0 * TAIL_SAMPLES - 1e-9


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``.

    Raises ``ValueError`` when the sample count does not support it
    (see :func:`tail_supported`); the median needs one sample only.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("percentile of an empty sample")
    if q > 50.0 and not tail_supported(data.size, q):
        raise ValueError(
            f"p{q:g} needs {math.ceil(100.0 * TAIL_SAMPLES / (100.0 - q) - 1e-9)}"
            " samples; "
            f"got {data.size}")
    return float(np.percentile(data, q))


def windowed_p90(values, window: int) -> float:
    """Median, over consecutive windows of ``window`` samples, of each
    window's p90.

    A host stall that hits a minority of windows moves this far less
    than the p90 of the pooled sample.  A trailing partial window is
    dropped; ``window`` must support p90 on its own.
    """
    data = np.asarray(values, dtype=float)
    n_windows = data.size // window
    if n_windows == 0:
        raise ValueError(f"need at least {window} samples; got {data.size}")
    return float(np.median([
        percentile(data[i * window:(i + 1) * window], 90)
        for i in range(n_windows)]))


def windowed_rate(segments, period: float, per_event: float,
                  min_windows: int = 3) -> float:
    """Median, over full ``period``-second windows, of the events
    completed per second (``per_event`` units each).

    ``segments`` holds one list per measured phase of completion times,
    each measured from the start of its phase; windows never straddle
    two phases.  With fewer than ``min_windows`` full windows in all,
    the overall rate is returned instead.
    """
    counts = []
    events = duration = 0.0
    for ends in segments:
        data = np.asarray(ends, dtype=float)
        if data.size == 0:
            continue
        events += data.size
        duration += float(data[-1])
        n_windows = int(data[-1] // period)
        counts.extend(np.bincount((data // period).astype(np.int64),
                                  minlength=n_windows)[:n_windows])
    if events == 0:
        raise ValueError("rate of an empty sample")
    if len(counts) < min_windows:
        return per_event * events / duration
    return float(np.median(counts)) * per_event / period


def summarize_ms(seconds) -> dict:
    """Median and supported tail percentiles of durations, in ms."""
    millis = [1000.0 * value for value in seconds]
    out = {"count": len(millis)}
    if millis:
        for q in (50, 90, 99):
            if q == 50 or tail_supported(len(millis), q):
                out[f"p{q}"] = percentile(millis, q)
        out["mean"] = float(np.mean(millis))
    return out


# -- /proc readers ------------------------------------------------------------


def proc_cpu_seconds(pid: int | None) -> float | None:
    """User+system CPU seconds of ``pid``; None once it has gone."""
    if pid is None:
        return None
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # The command name may hold spaces and parentheses: the fixed
    # fields start after the last ')'.  utime and stime are fields 14
    # and 15 of the line, i.e. 12 and 13 after the state field.
    fields = text.rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_vmhwm_mb(pid: int | None) -> float | None:
    """Peak resident set (VmHWM) of ``pid`` in MiB; None once gone."""
    if pid is None:
        return None
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None  # a zombie keeps its stat file but drops its memory lines


def host_steal_seconds() -> float | None:
    """Host-wide CPU steal since boot, seconds (``/proc/stat``)."""
    try:
        first = Path("/proc/stat").read_text().splitlines()[0].split()
    except (OSError, IndexError):
        return None
    if first[0] != "cpu" or len(first) < 9:
        return None
    return int(first[8]) / _CLK_TCK


def tree_bytes(path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(os.path.getsize(os.path.join(parent, name))
               for parent, _, names in os.walk(path) for name in names)


def load_average() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return None


# -- inputs -------------------------------------------------------------------


def make_pool(seed: int, n_items: int = 200_000, match_share: float = 0.005):
    """The seeded synthetic labelling pool.

    Returns ``(truth, predictions, scores)``: exactly
    ``n_items * match_share`` true matches, noisy similarity scores
    (matches centred high, non-matches low, overlapping) and the
    predictions obtained by thresholding the scores at 0.5.  A pure
    function of ``seed``.
    """
    rng = np.random.default_rng([seed, 0x0A515])
    truth = np.zeros(n_items, dtype=np.int8)
    truth[rng.choice(n_items, size=int(round(n_items * match_share)),
                     replace=False)] = 1
    centre = np.where(truth == 1, 0.68, 0.30)
    scores = np.clip(centre + rng.normal(0.0, 0.13, n_items), 0.0, 1.0)
    predictions = (scores >= 0.5).astype(np.int8)
    return truth, predictions, scores


# -- correctness --------------------------------------------------------------


def same_float(a, b) -> bool:
    """Bitwise float equality; ``None`` and NaN stand for 'undefined'."""
    a = float("nan") if a is None else float(a)
    b = float("nan") if b is None else float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


class Checks:
    """The correctness checks of one run; any failure voids its numbers."""

    def __init__(self):
        self.results: list[dict] = []

    def expect(self, name: str, ok: bool, detail) -> bool:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def identical(self, name: str, got, want) -> bool:
        return self.expect(name, same_float(got, want),
                           {"got": got, "want": want})

    def equal(self, name: str, got, want) -> bool:
        return self.expect(name, got == want, {"got": got, "want": want})

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r["ok"] for r in self.results)

    def report(self, out) -> None:
        for result in self.results:
            word = "ok  " if result["ok"] else "FAIL"
            print(f"  check {word} {result['check']}: "
                  f"{json.dumps(result['detail'], default=str)}", file=out)


# -- provenance ---------------------------------------------------------------


def _git_sha(root: Path) -> str | None:
    """HEAD's commit id read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path) -> dict:
    return {
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }
