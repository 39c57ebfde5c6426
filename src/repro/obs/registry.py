"""Typed metric registry: counters, gauges, log-scale histograms.

The telemetry substrate every layer of the service reports into
(ROADMAP "repro.obs").  Design constraints, in order:

* **near-zero hot-path cost** — an increment is one Python ``+=`` and a
  histogram observation is one :func:`math.frexp` plus two adds; no
  dict lookup (callers pre-bind children), no locking, no per-claim
  allocation;
* **mergeable** — :meth:`MetricRegistry.snapshot` produces a
  :class:`RegistrySnapshot` that merges associatively and
  commutatively with snapshots from other processes/hosts, so one
  scrape can see the whole fabric (workers ship theirs over the STATS
  RPC);
* **bounded cardinality** — labelled families cap their child count;
  past the cap new label tuples collapse into one overflow child, so a
  campaign-id-shaped label can never grow the registry without bound.

Counters and gauges are plain floats.  Histograms use one fixed,
global bucket layout — factor-2 buckets from 1 microsecond up
(:data:`BUCKET_EDGES`) — which is what makes cross-process merging a
plain elementwise add: every histogram everywhere shares the same
edges.  Percentiles (p50/p90/p99) come from the cumulative bucket rank
with linear interpolation inside the landing bucket.

Increments are not atomic across threads; the registry is a telemetry
layer, where a torn ``+=`` under free threading costs at most one lost
count, never corruption.  Within this repo every hot-path writer is
the single pumping thread; the HTTP exposition thread only reads
snapshots.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

#: Histogram bucket base: the first bucket's upper edge, in seconds.
BUCKET_BASE = 1e-6
#: Number of factor-2 buckets.  28 buckets span 1 µs .. ~134 s; the
#: last bucket additionally absorbs everything above its edge (+Inf).
NUM_BUCKETS = 28
#: Upper edge of every bucket (the last one also catches +Inf).
BUCKET_EDGES = tuple(BUCKET_BASE * 2.0**i for i in range(NUM_BUCKETS))

#: Percentiles every summary surface reports.
SUMMARY_QUANTILES = (50.0, 90.0, 99.0)


def bucket_index(value: float) -> int:
    """O(1) bucket for ``value`` seconds (frexp, not a bisect).

    Bucket ``i`` covers ``(BASE * 2^(i-1), BASE * 2^i]`` — except
    bucket 0, which starts at zero, and the last bucket, which absorbs
    every larger value.
    """
    if value <= BUCKET_BASE:
        return 0
    if not math.isfinite(value):
        # frexp(inf) is (inf, 0), which would land in bucket 0.
        return NUM_BUCKETS - 1
    # frexp(x) = (m, e) with x = m * 2^e and 0.5 <= m < 1, so e is
    # ceil(log2(x)) for non-powers of two and log2(x) for exact powers
    # (m == 0.5) — exactly the half-open (lo, hi] bucket rule.
    mantissa, exponent = math.frexp(value / BUCKET_BASE)
    if mantissa == 0.5:
        exponent -= 1
    if exponent >= NUM_BUCKETS:
        return NUM_BUCKETS - 1
    return exponent


def percentile_from_counts(
    counts: Iterable[int], q: float
) -> float:
    """The ``q``-th percentile (0..100) implied by bucket ``counts``.

    Walks the cumulative counts to the landing bucket, then
    interpolates linearly between the bucket's lower and upper edge by
    the fraction of the bucket's population below the rank.  Returns
    0.0 for an empty histogram.
    """
    counts = list(counts)
    total = sum(counts)
    if total <= 0:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    rank = q / 100.0 * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            lo = 0.0 if i == 0 else BUCKET_EDGES[i - 1]
            hi = BUCKET_EDGES[i]
            fraction = (rank - cumulative) / count
            return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
        cumulative += count
    return BUCKET_EDGES[-1]  # pragma: no cover - rank <= total always lands


def _series(name: str, labels: dict) -> tuple:
    """Canonical series identity: (name, sorted label pairs)."""
    return (
        name,
        tuple(sorted((k, str(v)) for k, v in labels.items())),
    )


def series_key(name: str, labels: Optional[dict] = None) -> tuple:
    """Public form of the series identity (synthesised snapshots)."""
    return _series(name, labels or {})


def series_name(key: tuple) -> str:
    """Prometheus-style series string for a ``(name, labels)`` key."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


# ---------------------------------------------------------------------------
# Live metric objects.


class Counter:
    """Monotonic count.  ``inc`` is the only hot-path operation."""

    __slots__ = ("key", "value")

    kind = "counter"

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value (queue depth, durable lag, ...)."""

    __slots__ = ("key", "value")

    kind = "gauge"

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket log-scale latency histogram (seconds)."""

    __slots__ = ("key", "counts", "count", "sum")

    kind = "histogram"

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.counts = [0] * NUM_BUCKETS
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bucket_index(value)] += 1
        self.count += 1
        self.sum += value

    def observe_many(self, values: np.ndarray) -> None:
        """``observe`` every element of a float array in one pass
        (:func:`bucket_index`'s rule, vectorised: same ``counts``)."""
        mantissa, exponent = np.frexp(values / BUCKET_BASE)
        exponent -= mantissa == 0.5
        index = np.clip(exponent, 0, NUM_BUCKETS - 1)
        index[~np.isfinite(values)] = NUM_BUCKETS - 1
        index[values <= BUCKET_BASE] = 0
        for i, c in enumerate(np.bincount(index).tolist()):
            self.counts[i] += c
        self.count += values.size
        self.sum += float(values.sum())

    def percentile(self, q: float) -> float:
        return percentile_from_counts(self.counts, q)


_METRIC_TYPES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricFamily:
    """One named metric with a bounded set of labelled children.

    ``labels(...)`` returns the child for one label tuple, creating it
    on first use.  Callers on hot paths bind the child once and keep
    it; the lookup itself is a dict hit, so even unbound use stays
    cheap.  Past :attr:`max_children` distinct tuples, everything
    collapses into a single ``{<label>: "_overflow"}`` child — the
    cardinality bound that makes accidental unbounded labels (user
    ids, campaign ids) safe.
    """

    #: Default cardinality cap per family.
    MAX_CHILDREN = 64

    def __init__(
        self,
        name: str,
        kind: str,
        labelnames: tuple,
        *,
        help: str = "",
        max_children: int = MAX_CHILDREN,
    ) -> None:
        self.name = name
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.help = help
        self.max_children = max_children
        self._children: dict[tuple, object] = {}
        self._overflow = None

    def labels(self, **labelvalues):
        values = tuple(
            str(labelvalues[name]) for name in self.labelnames
        )
        child = self._children.get(values)
        if child is not None:
            return child
        if len(self._children) >= self.max_children:
            if self._overflow is None:
                self._overflow = _METRIC_TYPES[self.kind](
                    _series(
                        self.name,
                        {name: "_overflow" for name in self.labelnames},
                    )
                )
            return self._overflow
        child = _METRIC_TYPES[self.kind](
            _series(self.name, dict(zip(self.labelnames, values)))
        )
        self._children[values] = child
        return child

    def children(self) -> list:
        out = list(self._children.values())
        if self._overflow is not None:
            out.append(self._overflow)
        return out


class MetricRegistry:
    """All metrics of one process (or one service within a process).

    Registries are per-service, not process-global: tests (and
    benchmarks) build many services back to back, and a shared
    registry would bleed one service's counts into the next.
    ``counter``/``gauge``/``histogram`` are idempotent per name, so a
    layer can re-request its metrics without double registration.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._help: dict[str, str] = {}

    @property
    def enabled(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def _get(self, name: str, kind: str, labels: tuple, help: str):
        existing = self._metrics.get(name)
        if existing is not None:
            want_family = bool(labels)
            is_family = isinstance(existing, MetricFamily)
            existing_kind = (
                existing.kind if is_family else type(existing).kind
            )
            if existing_kind != kind or want_family != is_family:
                raise ValueError(
                    f"metric {name!r} already registered as a different "
                    f"type"
                )
            return existing
        if labels:
            metric: object = MetricFamily(name, kind, labels, help=help)
        else:
            metric = _METRIC_TYPES[kind](_series(name, {}))
        self._metrics[name] = metric
        self._help[name] = help
        return metric

    def counter(self, name: str, help: str = "", labels: tuple = ()):
        return self._get(name, "counter", tuple(labels), help)

    def gauge(self, name: str, help: str = "", labels: tuple = ()):
        return self._get(name, "gauge", tuple(labels), help)

    def histogram(self, name: str, help: str = "", labels: tuple = ()):
        return self._get(name, "histogram", tuple(labels), help)

    # ------------------------------------------------------------------
    def snapshot(self) -> "RegistrySnapshot":
        """Mergeable point-in-time copy of every series."""
        snap = RegistrySnapshot()
        for metric in self._metrics.values():
            children = (
                metric.children()
                if isinstance(metric, MetricFamily)
                else [metric]
            )
            for child in children:
                snap.add(child.kind, child.key, _capture(child))
        return snap


def _capture(child):
    if child.kind == "histogram":
        return {
            "count": child.count,
            "sum": child.sum,
            "counts": list(child.counts),
        }
    return child.value


# ---------------------------------------------------------------------------
# Disabled variants: same surface, no work, so instrumented code never
# branches on "is observability on" — it calls the same methods either
# way and the null objects make them free.


class _NullMetric:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def labels(self, **labelvalues) -> "_NullMetric":
        return self

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0


NULL_METRIC = _NullMetric()


class NullRegistry:
    """Registry that records nothing (the ``obs=False`` fast path)."""

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str, help: str = "", labels: tuple = ()):
        return NULL_METRIC

    def gauge(self, name: str, help: str = "", labels: tuple = ()):
        return NULL_METRIC

    def histogram(self, name: str, help: str = "", labels: tuple = ()):
        return NULL_METRIC

    def snapshot(self) -> "RegistrySnapshot":
        return RegistrySnapshot()


NULL_REGISTRY = NullRegistry()


# ---------------------------------------------------------------------------
# Snapshots: the unit of merging, shipping, and exposition.


class RegistrySnapshot:
    """Immutable-by-convention capture of a registry's series.

    Three flat maps keyed by ``(name, ((label, value), ...))``:
    counters and gauges map to floats, histograms to
    ``{"count", "sum", "counts"}`` dicts.  ``merge`` sums counters and
    gauges and adds histogram buckets elementwise — associative and
    commutative as long as the float sums themselves are exact (true
    for the integer-dominated values telemetry produces; the property
    tests pin this on dyadic rationals).  ``to_dict``/``from_dict``
    round-trip bitwise through JSON.
    """

    def __init__(self) -> None:
        self.counters: dict[tuple, float] = {}
        self.gauges: dict[tuple, float] = {}
        self.histograms: dict[tuple, dict] = {}

    # ------------------------------------------------------------------
    def add(self, kind: str, key: tuple, value) -> None:
        if kind == "counter":
            self.counters[key] = self.counters.get(key, 0.0) + value
        elif kind == "gauge":
            self.gauges[key] = self.gauges.get(key, 0.0) + value
        elif kind == "histogram":
            existing = self.histograms.get(key)
            if existing is None:
                self.histograms[key] = {
                    "count": value["count"],
                    "sum": value["sum"],
                    "counts": list(value["counts"]),
                }
            else:
                existing["count"] += value["count"]
                existing["sum"] += value["sum"]
                counts = existing["counts"]
                for i, c in enumerate(value["counts"]):
                    counts[i] += c
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown metric kind {kind!r}")

    def merge(self, other: "RegistrySnapshot") -> "RegistrySnapshot":
        """New snapshot holding this one plus ``other``."""
        merged = RegistrySnapshot()
        for snap in (self, other):
            for key, value in snap.counters.items():
                merged.add("counter", key, value)
            for key, value in snap.gauges.items():
                merged.add("gauge", key, value)
            for key, value in snap.histograms.items():
                merged.add("histogram", key, value)
        return merged

    def relabel(self, **labels) -> "RegistrySnapshot":
        """New snapshot with ``labels`` added to every series.

        The parent uses this to tag each process's shipped snapshot
        (``proc="worker0"``) before merging, so per-process series
        survive the merge instead of summing into each other.
        """
        extra = tuple(sorted((k, str(v)) for k, v in labels.items()))

        def rekey(key: tuple) -> tuple:
            name, pairs = key
            return (name, tuple(sorted(pairs + extra)))

        out = RegistrySnapshot()
        out.counters = {rekey(k): v for k, v in self.counters.items()}
        out.gauges = {rekey(k): v for k, v in self.gauges.items()}
        out.histograms = {
            rekey(k): {
                "count": v["count"],
                "sum": v["sum"],
                "counts": list(v["counts"]),
            }
            for k, v in self.histograms.items()
        }
        return out

    # ------------------------------------------------------------------
    def value(self, name: str, **labels) -> Optional[float]:
        """Counter-or-gauge value for one series (None when absent)."""
        key = _series(name, labels)
        if key in self.counters:
            return self.counters[key]
        return self.gauges.get(key)

    def histogram_percentile(
        self, name: str, q: float, **labels
    ) -> Optional[float]:
        hist = self.histograms.get(_series(name, labels))
        if hist is None:
            return None
        return percentile_from_counts(hist["counts"], q)

    def family_total(self, name: str) -> float:
        """Sum of a counter family's series across all label tuples."""
        return sum(
            value
            for (series, _), value in self.counters.items()
            if series == name
        )

    def names(self) -> set:
        """Every distinct metric name present in the snapshot."""
        return {
            key[0]
            for group in (self.counters, self.gauges, self.histograms)
            for key in group
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {
            "counters": [
                [name, dict(labels), value]
                for (name, labels), value in sorted(self.counters.items())
            ],
            "gauges": [
                [name, dict(labels), value]
                for (name, labels), value in sorted(self.gauges.items())
            ],
            "histograms": [
                [name, dict(labels), hist]
                for (name, labels), hist in sorted(self.histograms.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RegistrySnapshot":
        snap = cls()
        for name, labels, value in payload.get("counters", ()):
            snap.add("counter", _series(name, labels), value)
        for name, labels, value in payload.get("gauges", ()):
            snap.add("gauge", _series(name, labels), value)
        for name, labels, hist in payload.get("histograms", ()):
            snap.add("histogram", _series(name, labels), hist)
        return snap
