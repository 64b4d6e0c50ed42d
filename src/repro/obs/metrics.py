"""The metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the numeric half of the telemetry plane (the trace half
lives in :mod:`repro.sim.trace`).  It follows the same zero-cost-when-
disabled contract as :class:`repro.sim.trace.Tracer`: toggling
``enabled`` swaps the instance's ``emit`` between the recording method
and a module-level no-op, so instrumentation points are free when
nobody is listening.  Hot loops never call the registry at all — they
keep plain integer counters and the harvest pass
(:mod:`repro.obs.harvest`) folds them in once per run.

This module imports nothing from the simulation stack so that low
layers (``sim.resources``) can use :class:`BusyTracker` without an
import cycle.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "BusyTracker",
    "GaugeStat",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
]

# Metric kinds accepted by MetricsRegistry.emit().
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

# Log-spaced bucket edges covering 1 µs .. 7 s: mantissas (1, 1.5, 2, 3,
# 5, 7) per decade.  Wide enough for both per-packet costs and the
# paper's ~765 ms recovery phases; values beyond the last edge land in
# the overflow bucket and are reported via the exact max.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    m * (10.0 ** k) for k in range(7) for m in (1.0, 1.5, 2.0, 3.0, 5.0, 7.0)
)

# Denser edges for SLO-graded delivery latency: twelve mantissas per
# decade over 1 µs .. 10 s.  Latency SLOs interpolate p999 inside a
# single bucket, so the low decades need finer resolution than the
# recovery-phase buckets above.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    m * (10.0 ** k) for k in range(7)
    for m in (1.0, 1.2, 1.5, 1.8, 2.2, 2.7, 3.3, 3.9, 4.7, 5.6, 6.8, 8.2)
)


class BusyTracker:
    """Busy-interval accounting: engaged spans accumulate into a total.

    This is the primitive behind ``Resource.utilization`` (and usable by
    anything that alternates between busy and idle).  The arithmetic is
    exactly the hand-rolled original — one ``busy_time += now - since``
    per engaged interval — so refactoring onto it is float-identical.
    """

    __slots__ = ("busy_time", "_since")

    def __init__(self) -> None:
        self.busy_time = 0.0
        self._since: Optional[float] = None

    def engage(self, now: float) -> None:
        """Mark the tracked thing busy as of ``now`` (idempotent)."""
        if self._since is None:
            self._since = now

    def release(self, now: float) -> None:
        """Mark it idle; accumulates the closed interval (idempotent)."""
        if self._since is not None:
            self.busy_time += now - self._since
            self._since = None

    def total(self, now: float) -> float:
        """Accumulated busy time, including a still-open interval."""
        if self._since is not None:
            return self.busy_time + (now - self._since)
        return self.busy_time

    def ckpt_state(self) -> dict:
        """Snapshot contract: closed total plus the open interval start."""
        return {"busy_time": self.busy_time, "since": self._since}


class GaugeStat:
    """Summary of a sampled value: n, total, min, max (mean derivable)."""

    __slots__ = ("n", "total", "min", "max")

    def __init__(self, n: int = 0, total: float = 0.0,
                 min: Optional[float] = None, max: Optional[float] = None):
        self.n = n
        self.total = total
        self.min = min
        self.max = max

    def set(self, value: float) -> None:
        self.n += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> Optional[float]:
        return self.total / self.n if self.n else None

    def copy(self) -> "GaugeStat":
        return GaugeStat(self.n, self.total, self.min, self.max)

    def merge(self, other: "GaugeStat") -> None:
        self.n += other.n
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_doc(self) -> Dict[str, Any]:
        return {"n": self.n, "total": self.total,
                "min": self.min, "max": self.max}

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "GaugeStat":
        return cls(doc["n"], doc["total"], doc["min"], doc["max"])

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, GaugeStat):
            return NotImplemented
        return (self.n, self.total, self.min, self.max) == \
               (other.n, other.total, other.min, other.max)


class Histogram:
    """Fixed-bucket histogram with exact n/total/min/max sidecars.

    ``counts`` has ``len(edges) + 1`` slots; the last is the overflow
    bucket.  Percentiles interpolate linearly within the bucket that
    crosses the target rank and are clamped to the observed
    ``[min, max]`` — a constant distribution (every FTD reload costs
    exactly ``MCP_RELOAD_US``) therefore reports the exact constant at
    every percentile.
    """

    __slots__ = ("edges", "counts", "n", "total", "min", "max")

    def __init__(self, edges: Tuple[float, ...] = DEFAULT_BUCKETS,
                 counts: Optional[List[int]] = None, n: int = 0,
                 total: float = 0.0, min: Optional[float] = None,
                 max: Optional[float] = None):
        self.edges = tuple(edges)
        self.counts = list(counts) if counts is not None \
            else [0] * (len(self.edges) + 1)
        if len(self.counts) != len(self.edges) + 1:
            raise ValueError("counts must have len(edges) + 1 slots")
        self.n = n
        self.total = total
        self.min = min
        self.max = max

    def observe(self, value: float) -> None:
        edges = self.edges
        lo, hi = 0, len(edges)
        while lo < hi:                       # first edge >= value
            mid = (lo + hi) // 2
            if edges[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.n += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> Optional[float]:
        return self.total / self.n if self.n else None

    def percentile(self, q: float) -> Optional[float]:
        """Approximate q-th percentile (q in [0, 100]), min/max-clamped."""
        if self.n == 0:
            return None
        target = (q / 100.0) * self.n
        if target <= 0:
            return self.min
        cum = 0
        for index, count in enumerate(self.counts):
            if count and cum + count >= target:
                lower = self.edges[index - 1] if index > 0 else 0.0
                upper = self.edges[index] if index < len(self.edges) \
                    else (self.max if self.max is not None else lower)
                value = lower + ((target - cum) / count) * (upper - lower)
                if self.min is not None and value < self.min:
                    value = self.min
                if self.max is not None and value > self.max:
                    value = self.max
                return value
            cum += count
        return self.max

    def copy(self) -> "Histogram":
        return Histogram(self.edges, list(self.counts), self.n,
                         self.total, self.min, self.max)

    def merge(self, other: "Histogram") -> None:
        if self.edges != other.edges:
            raise ValueError("cannot merge histograms with different edges")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.n += other.n
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_doc(self) -> Dict[str, Any]:
        return {"edges": list(self.edges), "counts": list(self.counts),
                "n": self.n, "total": self.total,
                "min": self.min, "max": self.max}

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "Histogram":
        return cls(tuple(doc["edges"]), doc["counts"], doc["n"],
                   doc["total"], doc["min"], doc["max"])

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.edges == other.edges and self.counts == other.counts
                and self.n == other.n and self.total == other.total
                and self.min == other.min and self.max == other.max)


def _noop_emit(name: str, value: float = 1.0, kind: str = COUNTER,
               edges: Optional[Tuple[float, ...]] = None) -> None:
    """Placeholder ``emit`` installed while a registry is disabled."""


class MetricsRegistry:
    """Collects named counters, gauges and histograms.

    A disabled registry costs one attribute lookup plus a no-op call per
    ``emit`` — toggling :attr:`enabled` swaps the instance's ``emit``
    between the recording method and a module-level no-op, exactly the
    :class:`repro.sim.trace.Tracer` trick.  ``inc``/``observe``/``gauge``
    are conveniences that route through ``emit``, so the single swap
    disables every entry point.
    """

    def __init__(self, enabled: bool = True):
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, GaugeStat] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.enabled = enabled  # property: installs the right emit

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        if self._enabled:
            # Restore the recording method (remove the instance shadow).
            self.__dict__.pop("emit", None)
        else:
            self.__dict__["emit"] = _noop_emit

    def emit(self, name: str, value: float = 1.0,
             kind: str = COUNTER,
             edges: Optional[Tuple[float, ...]] = None) -> None:
        """Record one sample.

        ``edges`` selects the bucket layout of a histogram on its
        *first* sample; later samples must agree (snapshots of the same
        metric merge across runs, and merging demands equal edges).
        """
        if not self._enabled:
            return
        if kind == COUNTER:
            self.counters[name] = self.counters.get(name, 0) + value
        elif kind == HISTOGRAM:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram(
                    edges=edges if edges is not None else DEFAULT_BUCKETS)
            elif edges is not None and tuple(edges) != hist.edges:
                raise ValueError(
                    "histogram %r already uses different bucket edges"
                    % (name,))
            hist.observe(value)
        elif kind == GAUGE:
            stat = self.gauges.get(name)
            if stat is None:
                stat = self.gauges[name] = GaugeStat()
            stat.set(value)
        else:
            raise ValueError("unknown metric kind %r" % (kind,))

    # Conveniences — all funnel through emit, so the disabled shadow
    # covers them too.

    def inc(self, name: str, value: float = 1.0) -> None:
        self.emit(name, value, COUNTER)

    def observe(self, name: str, value: float,
                edges: Optional[Tuple[float, ...]] = None) -> None:
        self.emit(name, value, HISTOGRAM, edges=edges)

    def gauge(self, name: str, value: float) -> None:
        self.emit(name, value, GAUGE)

    def snapshot(self) -> "MetricsSnapshot":
        return MetricsSnapshot(
            counters=dict(self.counters),
            gauges={k: v.copy() for k, v in self.gauges.items()},
            histograms={k: v.copy() for k, v in self.histograms.items()})

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


class MetricsSnapshot:
    """An immutable-by-convention capture of a registry, mergeable.

    ``merge`` is commutative and associative — counters sum, gauges
    combine (n/total sum, min/max extremes), histograms sum bucket
    counts — so folding per-run snapshots in *any* order produces the
    same aggregate.  That is what lets pool workers and the serial
    loop agree byte for byte.
    """

    def __init__(self, counters: Optional[Dict[str, float]] = None,
                 gauges: Optional[Dict[str, GaugeStat]] = None,
                 histograms: Optional[Dict[str, Histogram]] = None):
        self.counters = counters if counters is not None else {}
        self.gauges = gauges if gauges is not None else {}
        self.histograms = histograms if histograms is not None else {}

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into self (in place); returns self."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, stat in other.gauges.items():
            mine = self.gauges.get(name)
            if mine is None:
                self.gauges[name] = stat.copy()
            else:
                mine.merge(stat)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = hist.copy()
            else:
                mine.merge(hist)
        return self

    @classmethod
    def merged(cls, snapshots: Iterable["MetricsSnapshot"]) \
            -> "MetricsSnapshot":
        out = cls()
        for snap in snapshots:
            out.merge(snap)
        return out

    def to_doc(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": {k: v.to_doc() for k, v in self.gauges.items()},
            "histograms": {k: v.to_doc()
                           for k, v in self.histograms.items()},
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "MetricsSnapshot":
        return cls(
            counters=dict(doc.get("counters", {})),
            gauges={k: GaugeStat.from_doc(v)
                    for k, v in doc.get("gauges", {}).items()},
            histograms={k: Histogram.from_doc(v)
                        for k, v in doc.get("histograms", {}).items()})

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return (self.counters == other.counters
                and self.gauges == other.gauges
                and self.histograms == other.histograms)
