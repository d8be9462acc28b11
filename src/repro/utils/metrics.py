"""Dependency-free metrics: counters, gauges, histograms, Prometheus text.

The service tier needs operator eyes — per-session draw counts, WAL
fsync latency, queue depths, CI widths — without pulling in a client
library the container does not have.  This module is the whole stack:

* :class:`MetricsRegistry` — a thread-safe family registry.  Counters
  only go up, gauges are set, histograms observe into **fixed
  log-spaced buckets** (no dynamic resizing, so merging two histograms
  is elementwise addition).
* ``snapshot()`` / :func:`merge_snapshots` — a registry serialises to a
  plain-JSON dict, so shard workers ship their metrics to the router
  over the existing length-prefixed RPC and the router folds them into
  one exposition.
* :class:`CounterResetAccumulator` — worker restarts reset in-process
  counters to zero; the accumulator keys each source snapshot by the
  registry's ``instance`` id and carries the last value of a dead
  instance forward, so the merged totals never dip and never
  double-count.
* :func:`render_prometheus` / :func:`parse_prometheus_text` — the
  `text exposition format`__ rendered and (minimally) parsed by hand.

__ https://prometheus.io/docs/instrumenting/exposition_formats/

``NULL_REGISTRY`` is a shared disabled registry: every instrument call
is a no-op, which is what lets the observability overhead be measured
honestly (``benchmarks/test_service_throughput.py``) and lets bare
library users opt out entirely.
"""

from __future__ import annotations

import json
import math
import threading
import uuid

__all__ = [
    "MetricsRegistry",
    "NULL_REGISTRY",
    "CounterResetAccumulator",
    "log_spaced_buckets",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "merge_snapshots",
    "add_snapshot_label",
    "render_prometheus",
    "parse_prometheus_text",
    "PROMETHEUS_CONTENT_TYPE",
]

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_METRIC_TYPES = ("counter", "gauge", "histogram")


def log_spaced_buckets(minimum: float, maximum: float,
                       per_decade: int = 2) -> tuple:
    """Fixed log-spaced bucket edges covering [minimum, maximum].

    ``per_decade`` edges per power of ten; the implicit +Inf bucket is
    appended by the histogram itself.  Fixed edges are the point: two
    histograms with the same family name always merge bucket-by-bucket.
    """
    if not (0 < minimum < maximum):
        raise ValueError(
            f"need 0 < minimum < maximum; got {minimum}, {maximum}")
    start = math.floor(math.log10(minimum) * per_decade)
    stop = math.ceil(math.log10(maximum) * per_decade)
    return tuple(10.0 ** (k / per_decade) for k in range(start, stop + 1))


#: Default latency buckets: 10 µs to 10 s, half-decade spacing.
LATENCY_BUCKETS = log_spaced_buckets(1e-5, 10.0)

#: Power-of-two size buckets (batch sizes, event counts): 1 .. 1024.
SIZE_BUCKETS = tuple(float(2 ** k) for k in range(11))


def _check_labels(labelnames, labels: dict, family: str) -> tuple:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"metric {family} takes labels {tuple(labelnames)}; "
            f"got {tuple(sorted(labels))}")
    return tuple(str(labels[name]) for name in labelnames)


class _Counter:
    """A monotonically increasing sum, per label combination."""

    kind = "counter"

    def __init__(self, registry, name, help_text, labelnames):
        self._registry = registry
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {amount})")
        key = _check_labels(self.labelnames, labels, self.name)
        with self._registry._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = _check_labels(self.labelnames, labels, self.name)
        with self._registry._lock:
            return self._values.get(key, 0.0)

    def _samples(self):
        return [[list(key), value] for key, value in self._values.items()]


class _Gauge(_Counter):
    """A value that can go anywhere, per label combination."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = _check_labels(self.labelnames, labels, self.name)
        with self._registry._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _check_labels(self.labelnames, labels, self.name)
        with self._registry._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def remove(self, **labels) -> None:
        """Drop one series, so it is no longer exposed (no-op if unset)."""
        key = _check_labels(self.labelnames, labels, self.name)
        with self._registry._lock:
            self._values.pop(key, None)


class _Histogram:
    """Observations into fixed buckets, plus running sum and count.

    Bucket counts are stored per-bucket (not cumulative); rendering
    produces the cumulative ``le`` series Prometheus expects.  The
    final slot counts observations above the last edge (+Inf).
    """

    kind = "histogram"

    def __init__(self, registry, name, help_text, labelnames, buckets):
        self._registry = registry
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        edges = tuple(float(edge) for edge in (buckets or LATENCY_BUCKETS))
        if list(edges) != sorted(set(edges)):
            raise ValueError(
                f"histogram {name} bucket edges must be strictly "
                f"increasing; got {edges}")
        self.buckets = edges
        self._values: dict[tuple, dict] = {}

    def observe(self, value: float, **labels) -> None:
        key = _check_labels(self.labelnames, labels, self.name)
        value = float(value)
        slot = len(self.buckets)  # +Inf by default
        for index, edge in enumerate(self.buckets):
            if value <= edge:
                slot = index
                break
        with self._registry._lock:
            state = self._values.get(key)
            if state is None:
                state = self._values[key] = {
                    "count": 0, "sum": 0.0,
                    "buckets": [0] * (len(self.buckets) + 1),
                }
            state["count"] += 1
            state["sum"] += value
            state["buckets"][slot] += 1

    def value(self, **labels) -> dict:
        key = _check_labels(self.labelnames, labels, self.name)
        with self._registry._lock:
            state = self._values.get(key)
            return json.loads(json.dumps(state)) if state else {
                "count": 0, "sum": 0.0,
                "buckets": [0] * (len(self.buckets) + 1),
            }

    def _samples(self):
        return [
            [list(key), {"count": state["count"], "sum": state["sum"],
                         "buckets": list(state["buckets"])}]
            for key, state in self._values.items()
        ]


class _NullInstrument:
    """Accepts every instrument call and does nothing."""

    def inc(self, *args, **kwargs):
        pass

    def set(self, *args, **kwargs):
        pass

    def observe(self, *args, **kwargs):
        pass

    def remove(self, *args, **kwargs):
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Thread-safe registry of metric families.

    Families are created on first use and returned on later calls with
    the same name; re-declaring a name as a different type (or with
    different labels/buckets) raises, because the merged exposition
    could not be rendered coherently.

    ``instance`` is a random id minted at construction: it travels in
    every snapshot so a downstream :class:`CounterResetAccumulator`
    can tell "this worker restarted" (new instance, counters reset)
    from "this counter went down" (a bug).
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self.instance = uuid.uuid4().hex[:12]
        self._lock = threading.RLock()
        self._families: dict[str, object] = {}

    def _family(self, factory, name, help_text, labelnames, **extra):
        if not self.enabled:
            return _NULL_INSTRUMENT
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, factory) or tuple(
                        labelnames) != existing.labelnames:
                    raise ValueError(
                        f"metric {name} already registered with a "
                        "different type or label set")
                return existing
            family = factory(self, name, help_text, labelnames, **extra)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames=()) -> _Counter:
        return self._family(_Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "", labelnames=()) -> _Gauge:
        return self._family(_Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "", labelnames=(),
                  buckets=None) -> _Histogram:
        return self._family(_Histogram, name, help_text, labelnames,
                            buckets=buckets)

    def snapshot(self) -> dict:
        """A JSON-safe copy of every family (ships over the shard RPC)."""
        with self._lock:
            families = {}
            for name, family in self._families.items():
                entry = {
                    "type": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "samples": family._samples(),
                }
                if family.kind == "histogram":
                    entry["buckets"] = list(family.buckets)
                families[name] = entry
            return {"instance": self.instance, "families": families}

    def render(self, extra_snapshots=()) -> str:
        """Prometheus text of this registry merged with extra snapshots."""
        return render_prometheus(
            merge_snapshots([self.snapshot(), *extra_snapshots]))


#: Shared disabled registry — every instrument call is a no-op.
NULL_REGISTRY = MetricsRegistry(enabled=False)


# -- snapshot algebra ------------------------------------------------------

def add_snapshot_label(snapshot: dict, name: str, value: str) -> dict:
    """A copy of ``snapshot`` with one label prepended to every sample.

    The router uses this to stamp each shard's metrics with
    ``shard="k"`` before merging, so per-shard series stay distinct.
    """
    out = {"instance": snapshot.get("instance"), "families": {}}
    for family_name, family in snapshot.get("families", {}).items():
        entry = dict(family)
        entry["labelnames"] = [name, *family.get("labelnames", [])]
        entry["samples"] = [
            [[str(value), *key], sample_value]
            for key, sample_value in family.get("samples", [])
        ]
        out["families"][family_name] = entry
    return out


def _merge_sample(kind: str, existing, incoming):
    if kind == "gauge":
        return incoming
    if kind == "histogram":
        if len(existing["buckets"]) != len(incoming["buckets"]):
            raise ValueError("histogram bucket layouts disagree")
        return {
            "count": existing["count"] + incoming["count"],
            "sum": existing["sum"] + incoming["sum"],
            "buckets": [a + b for a, b in zip(existing["buckets"],
                                              incoming["buckets"])],
        }
    return existing + incoming


def merge_snapshots(snapshots) -> dict:
    """Fold snapshots into one: counters/histograms add, gauges last-win.

    Families sharing a name must agree on type, label names and (for
    histograms) bucket edges — guaranteed when every producer creates
    them through the same instrumented code path.
    """
    merged: dict = {"instance": None, "families": {}}
    for snapshot in snapshots:
        for name, family in snapshot.get("families", {}).items():
            target = merged["families"].get(name)
            if target is None:
                target = merged["families"][name] = {
                    "type": family["type"],
                    "help": family.get("help", ""),
                    "labelnames": list(family.get("labelnames", [])),
                    "samples": [],
                }
                if family["type"] == "histogram":
                    target["buckets"] = list(family.get("buckets", []))
                index: dict = {}
                target["_index"] = index
            else:
                if target["type"] != family["type"] or target[
                        "labelnames"] != list(family.get("labelnames", [])):
                    raise ValueError(
                        f"cannot merge metric {name}: type or label "
                        "sets disagree across sources")
                index = target["_index"]
            for key, value in family.get("samples", []):
                tkey = tuple(key)
                position = index.get(tkey)
                if position is None:
                    index[tkey] = len(target["samples"])
                    target["samples"].append([list(key), value])
                else:
                    target["samples"][position][1] = _merge_sample(
                        family["type"], target["samples"][position][1], value)
    for family in merged["families"].values():
        family.pop("_index", None)
    return merged


class CounterResetAccumulator:
    """Restart-proof accumulation of counter-style snapshots.

    ``adjust(source, snapshot)`` returns a copy of ``snapshot`` whose
    counters (and histogram count/sum/buckets) are offset by the final
    values of every previous *instance* seen under the same source.
    When a worker restarts, its registry is reborn with a fresh
    ``instance`` id and zeroed counters; the accumulator detects the id
    change and adds the dead instance's last-seen values to the carry,
    so the merged series never loses what the old worker already
    counted and never counts it twice.  Within one instance the
    last-seen value is monotonic (``max``), keeping concurrent,
    possibly out-of-order scrapes monotonic too.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # source -> {"instance": str, "last": {(family, key): value},
        #            "carry": {(family, key): value},
        #            "families": {name: metadata}}
        # ``families`` remembers each family's type/labels/buckets so a
        # family the restarted worker has not re-registered yet (e.g.
        # per-session counters before any session is resident again)
        # can still be rendered from the bank.
        self._sources: dict[str, dict] = {}

    @staticmethod
    def _zero_like(value):
        if isinstance(value, dict):
            return {"count": 0, "sum": 0.0,
                    "buckets": [0] * len(value["buckets"])}
        return 0.0

    @staticmethod
    def _add(a, b):
        if isinstance(b, dict):
            return {
                "count": a["count"] + b["count"],
                "sum": a["sum"] + b["sum"],
                "buckets": [x + y for x, y in zip(a["buckets"],
                                                  b["buckets"])],
            }
        return a + b

    @staticmethod
    def _max(a, b):
        if isinstance(b, dict):
            return b if b["count"] >= a["count"] else a
        return max(a, b)

    def adjust(self, source: str, snapshot: dict) -> dict:
        instance = snapshot.get("instance")
        with self._lock:
            state = self._sources.setdefault(
                source, {"instance": instance, "last": {}, "carry": {},
                         "families": {}})
            if state["instance"] != instance:
                # The source restarted: bank everything its previous
                # incarnation had counted, then start tracking fresh.
                for key, value in state["last"].items():
                    carry = state["carry"].get(key, self._zero_like(value))
                    state["carry"][key] = self._add(carry, value)
                state["last"] = {}
                state["instance"] = instance
            out = {"instance": instance, "families": {}}
            for name, family in snapshot.get("families", {}).items():
                entry = dict(family)
                if family["type"] != "gauge":
                    state["families"][name] = {
                        key: value for key, value in family.items()
                        if key != "samples"
                    }
                if family["type"] == "gauge":
                    entry["samples"] = [
                        [list(key), value]
                        for key, value in family.get("samples", [])
                    ]
                    out["families"][name] = entry
                    continue
                samples = []
                seen = set()
                for key, value in family.get("samples", []):
                    skey = (name, tuple(key))
                    seen.add(skey)
                    previous = state["last"].get(
                        skey, self._zero_like(value))
                    state["last"][skey] = self._max(previous, value)
                    carry = state["carry"].get(skey)
                    adjusted = state["last"][skey]
                    if carry is not None:
                        adjusted = self._add(carry, adjusted)
                    samples.append([list(key), adjusted])
                # Series the live snapshot no longer reports (it
                # restarted before re-touching them) still render from
                # carry + last, so nothing observed ever disappears.
                for (fname, key), value in list(state["last"].items()):
                    if fname != name or (fname, key) in seen:
                        continue
                    carry = state["carry"].get((fname, key))
                    adjusted = value if carry is None else self._add(
                        carry, value)
                    samples.append([list(key), adjusted])
                for (fname, key), value in state["carry"].items():
                    if fname != name or (fname, key) in seen or (
                            fname, key) in state["last"]:
                        continue
                    samples.append([list(key), value])
                entry["samples"] = samples
                out["families"][name] = entry
            # Families the live snapshot does not declare at all (the
            # restarted worker has not re-registered them yet) render
            # from the bank under their remembered metadata.
            for name, metadata in state["families"].items():
                if name in out["families"]:
                    continue
                samples = []
                for (fname, key), value in state["last"].items():
                    if fname != name:
                        continue
                    carry = state["carry"].get((fname, key))
                    samples.append([list(key), value if carry is None
                                    else self._add(carry, value)])
                for (fname, key), value in state["carry"].items():
                    if fname != name or (fname, key) in state["last"]:
                        continue
                    samples.append([list(key), value])
                if samples:
                    out["families"][name] = {**metadata, "samples": samples}
            return out


# -- text exposition -------------------------------------------------------

def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    # repr gives the shortest string that round-trips the float, which
    # keeps ``le`` labels stable and readable (1e-05, not 17 digits).
    return repr(value) if isinstance(value, float) else str(value)


def _label_text(labelnames, key, extra=None) -> str:
    pairs = [f'{name}="{_escape_label(value)}"'
             for name, value in zip(labelnames, key)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(snapshot: dict) -> str:
    """Render one (merged) snapshot in the text exposition format."""
    lines = []
    for name in sorted(snapshot.get("families", {})):
        family = snapshot["families"][name]
        help_text = family.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} "
                         f"{help_text.replace(chr(10), ' ')}")
        lines.append(f"# TYPE {name} {family['type']}")
        labelnames = family.get("labelnames", [])
        samples = sorted(family.get("samples", []), key=lambda s: s[0])
        if family["type"] != "histogram":
            for key, value in samples:
                lines.append(
                    f"{name}{_label_text(labelnames, key)} "
                    f"{_format_value(value)}")
            continue
        edges = family.get("buckets", [])
        for key, state in samples:
            cumulative = 0
            for edge, count in zip(edges, state["buckets"]):
                cumulative += count
                le = 'le="' + _format_value(float(edge)) + '"'
                labels = _label_text(labelnames, key, le)
                lines.append(f"{name}_bucket{labels} {cumulative}")
            cumulative += state["buckets"][len(edges)]
            labels = _label_text(labelnames, key, 'le="+Inf"')
            lines.append(f"{name}_bucket{labels} {cumulative}")
            lines.append(f"{name}_sum{_label_text(labelnames, key)} "
                         f"{_format_value(state['sum'])}")
            lines.append(f"{name}_count{_label_text(labelnames, key)} "
                         f"{state['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus_text(text: str) -> dict:
    """Minimal exposition parser (for tests and the CI smoke).

    Returns ``{family: {"type": ..., "samples": {(metric, labels): value}}}``
    where ``labels`` is a tuple of sorted ``(name, value)`` pairs and
    ``metric`` the full sample name (``family``, ``family_bucket``, …).
    Raises ``ValueError`` on anything that is not valid exposition
    text, which is exactly what the CI scrape assertion needs.
    """
    families: dict[str, dict] = {}
    types: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in _METRIC_TYPES:
                raise ValueError(f"unknown metric type {kind!r}: {raw!r}")
            types[name] = kind
            families.setdefault(name, {"type": kind, "samples": {}})
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            metric, _, rest = line.partition("{")
            labels_text, closed, value_text = rest.partition("}")
            if not closed or not value_text.strip():
                raise ValueError(f"malformed sample line: {raw!r}")
            labels = []
            for item in filter(None, labels_text.split(",")):
                lname, eq, lvalue = item.partition("=")
                if not eq or not (lvalue.startswith('"')
                                  and lvalue.endswith('"')):
                    raise ValueError(f"malformed label in: {raw!r}")
                labels.append((lname.strip(), lvalue[1:-1]))
            value_text = value_text.strip()
        else:
            metric, _, value_text = line.partition(" ")
            labels = []
            value_text = value_text.strip()
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ValueError(f"non-numeric sample value in: {raw!r}") from exc
        family = metric
        for suffix in ("_bucket", "_sum", "_count"):
            base = metric[: -len(suffix)] if metric.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family = base
                break
        entry = families.setdefault(
            family, {"type": types.get(family, "untyped"), "samples": {}})
        entry["samples"][(metric, tuple(sorted(labels)))] = value
    return families
