"""Labeled metrics registry: counters, gauges, histograms.

The tallies the solver stack already keeps (:class:`SolverStats`
backend/session/route/cache counters, the automata interner's hit
counters, the lazy spaces' exploration counts) *feed* this registry
instead of growing yet another parallel mechanism: when a registry is
enabled, ``stats.py`` and the automata layer mirror each recorded
delta into labeled metrics; when disabled, the module-level helpers
cost one global load and a comparison.

``solver_unknown_total{cause}`` counts UNKNOWN solver queries by the
cause they stopped on (``budget``, ``timeout``, ``candidates``,
``split_cap``, ``settle_depth``, ``max_cores``, ``default_guess``,
``refinement_limit``, or ``backend`` for an external solver that names
none); :meth:`SolverStats.record` feeds it.

Snapshots are JSON-shaped (the ``/stats`` surface of a future serve
daemon) and *mergeable*: worker processes ship their registry snapshot
through the trace spool at each job boundary, and the runner folds the
per-pid maxima into one batch-level snapshot (:mod:`repro.obs.export`).

Everything here is stdlib-only and imports nothing from ``repro`` —
``stats.py`` (and anything else on a hot path) can import it without
cycles.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

#: Histogram bucket upper bounds, in seconds (latency-shaped; ``inf``
#: is implicit).  Chosen to straddle the native solver's microsecond
#: cache hits through multi-second external-solver calls.
DEFAULT_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing labeled counter."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock):
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A labeled point-in-time value (last write wins)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock):
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """A labeled cumulative-bucket histogram (Prometheus-shaped)."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "_lock")

    def __init__(
        self, lock: threading.Lock, bounds: tuple = DEFAULT_BUCKETS
    ):
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1


class MetricsRegistry:
    """Thread-safe map ``(name, labels) -> metric``.

    One lock serializes both structural mutation (get-or-create) and
    value updates — metric updates are rare relative to the solver work
    around them, and a single lock keeps snapshots consistent.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, _LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, _LabelKey], Histogram] = {}

    def _get(self, table: dict, name: str, labels: dict, factory):
        key = (name, _label_key(labels))
        metric = table.get(key)
        if metric is None:
            with self._lock:
                metric = table.get(key)
                if metric is None:
                    metric = table[key] = factory(self._lock)
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(self._counters, name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(self._gauges, name, labels, Gauge)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(self._histograms, name, labels, Histogram)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-shaped dump of every metric (see module docstring)."""
        with self._lock:
            counters: Dict[str, List[dict]] = {}
            for (name, key), counter in sorted(self._counters.items()):
                counters.setdefault(name, []).append(
                    {"labels": dict(key), "value": counter.value}
                )
            gauges: Dict[str, List[dict]] = {}
            for (name, key), gauge in sorted(self._gauges.items()):
                gauges.setdefault(name, []).append(
                    {"labels": dict(key), "value": gauge.value}
                )
            histograms: Dict[str, List[dict]] = {}
            for (name, key), hist in sorted(self._histograms.items()):
                buckets = {
                    str(bound): count
                    for bound, count in zip(hist.bounds, hist.bucket_counts)
                }
                buckets["+inf"] = hist.bucket_counts[-1]
                histograms.setdefault(name, []).append(
                    {
                        "labels": dict(key),
                        "count": hist.count,
                        "sum": hist.sum,
                        "buckets": buckets,
                    }
                )
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def merge_snapshots(snapshots: List[dict]) -> dict:
    """Fold JSON-shaped registry snapshots into one (sums throughout).

    Counters and histograms sum exactly; gauges sum too — the gauges in
    this codebase are per-process residency numbers (cache sizes),
    whose batch-level meaning is the total across workers.
    """
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}

    def fold_valued(section: str, snap: dict) -> None:
        for name, series in (snap.get(section) or {}).items():
            out = merged[section].setdefault(name, {})
            for entry in series:
                key = _label_key(entry.get("labels") or {})
                slot = out.get(key)
                if slot is None:
                    out[key] = {
                        "labels": dict(entry.get("labels") or {}),
                        "value": entry.get("value", 0.0),
                    }
                else:
                    slot["value"] += entry.get("value", 0.0)

    def fold_histograms(snap: dict) -> None:
        for name, series in (snap.get("histograms") or {}).items():
            out = merged["histograms"].setdefault(name, {})
            for entry in series:
                key = _label_key(entry.get("labels") or {})
                slot = out.get(key)
                if slot is None:
                    out[key] = {
                        "labels": dict(entry.get("labels") or {}),
                        "count": entry.get("count", 0),
                        "sum": entry.get("sum", 0.0),
                        "buckets": dict(entry.get("buckets") or {}),
                    }
                else:
                    slot["count"] += entry.get("count", 0)
                    slot["sum"] += entry.get("sum", 0.0)
                    for bound, count in (entry.get("buckets") or {}).items():
                        slot["buckets"][bound] = (
                            slot["buckets"].get(bound, 0) + count
                        )

    for snap in snapshots:
        if not snap:
            continue
        fold_valued("counters", snap)
        fold_valued("gauges", snap)
        fold_histograms(snap)

    return {
        section: {
            name: [slot for _, slot in sorted(slots.items())]
            for name, slots in sorted(merged[section].items())
        }
        for section in ("counters", "gauges", "histograms")
    }


# -- module-level switch ------------------------------------------------------

_REGISTRY: Optional[MetricsRegistry] = None


def get_registry() -> Optional[MetricsRegistry]:
    return _REGISTRY


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    global _REGISTRY
    _REGISTRY = registry


def enable() -> MetricsRegistry:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def disable() -> None:
    global _REGISTRY
    _REGISTRY = None


def enabled() -> bool:
    return _REGISTRY is not None


def count(name: str, amount: float = 1.0, **labels) -> None:
    """Increment a counter when a registry is enabled; else free."""
    registry = _REGISTRY
    if registry is None:
        return
    registry.counter(name, **labels).inc(amount)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation when a registry is enabled."""
    registry = _REGISTRY
    if registry is None:
        return
    registry.histogram(name, **labels).observe(value)


def gauge_set(name: str, value: float, **labels) -> None:
    """Set a gauge when a registry is enabled; else free."""
    registry = _REGISTRY
    if registry is None:
        return
    registry.gauge(name, **labels).set(value)
