"""Per-process telemetry runtime: intent flags and the active registry.

The experiment engine configures telemetry *intent* once per process
(``configure``), then brackets each run with ``begin_run`` /
``collect``.  Every run (serial or in a pool worker) re-configures
from arguments carried in the task partial before it boots.
Everything here is process-local — runs never share a live registry —
so a run's snapshot only ever reflects its own cluster.

Telemetry intent OFF is the default and installs nothing anywhere: no
wrapper, no registry, no tracer — the hot path is byte-for-byte the
pre-telemetry code.  The same holds for the continuous plane added in
PR 10: with ``sample_every``/``flight_dir`` unset, ``build_cluster``
installs no sampler timer and no flight-recorder ring.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry, MetricsSnapshot

__all__ = [
    "configure",
    "metrics_on",
    "tracing",
    "sample_every",
    "flight_on",
    "flight_dir",
    "begin_run",
    "active_registry",
    "note_flight",
    "active_flight",
    "stash_trace",
    "take_trace",
    "stash_timeseries",
    "take_timeseries",
    "collect",
    "reset",
]

_metrics_on = False
_tracing_on = False
_sample_every: Optional[float] = None
_flight_dir: Optional[str] = None
_registry: Optional[MetricsRegistry] = None
_trace_records: Optional[List[Any]] = None
_timeseries: Optional[Dict[str, Any]] = None
_flight: Optional[Any] = None


def configure(metrics: bool = False, tracing: bool = False,
              sample_every: Optional[float] = None,
              flight_dir: Optional[str] = None) -> None:
    """Set this process's telemetry intent (idempotent)."""
    global _metrics_on, _tracing_on, _sample_every, _flight_dir
    _metrics_on = bool(metrics)
    _tracing_on = bool(tracing)
    _sample_every = float(sample_every) if sample_every else None
    _flight_dir = flight_dir


def metrics_on() -> bool:
    return _metrics_on


def tracing() -> bool:
    """True when per-run trace capture was requested (``--trace``)."""
    return _tracing_on


def sample_every() -> Optional[float]:
    """The ``--sample-every`` cadence in µs, or None when sampling is off."""
    return _sample_every


def flight_on() -> bool:
    """True when the flight recorder was armed (``--flight-recorder``)."""
    return _flight_dir is not None


def flight_dir() -> Optional[str]:
    """Where flight dumps land, or None when the recorder is off."""
    return _flight_dir


def begin_run() -> Optional[MetricsRegistry]:
    """Open a fresh collection scope for one run.

    Installs a new enabled registry when metrics intent is on (else
    leaves the registry absent) and clears any stashed trace records
    and timeseries.  The flight-recorder handle is deliberately *not*
    cleared: ``build_cluster`` overwrites it per built cluster.
    """
    global _registry, _trace_records, _timeseries
    _registry = MetricsRegistry(enabled=True) if _metrics_on else None
    _trace_records = None
    _timeseries = None
    return _registry


def active_registry() -> Optional[MetricsRegistry]:
    """The current run's registry, or None when metrics are off."""
    return _registry


def note_flight(recorder: Any) -> None:
    """Register the cluster's armed flight recorder (build time)."""
    global _flight
    _flight = recorder


def active_flight() -> Optional[Any]:
    """The most recently armed flight recorder, or None."""
    return _flight


def stash_trace(records: List[Any]) -> None:
    """Stash a run's trace records for the engine to pick up."""
    global _trace_records
    _trace_records = list(records)


def take_trace() -> Optional[List[Any]]:
    """Remove and return the stashed trace records (None if none)."""
    global _trace_records
    records, _trace_records = _trace_records, None
    return records


def stash_timeseries(doc: Dict[str, Any]) -> None:
    """Stash a run's sampled tracks (the sampler's ``to_doc``)."""
    global _timeseries
    _timeseries = doc


def take_timeseries() -> Optional[Dict[str, Any]]:
    """Remove and return the stashed timeseries doc (None if none)."""
    global _timeseries
    doc, _timeseries = _timeseries, None
    return doc


def collect() -> Optional[MetricsSnapshot]:
    """Close the run scope: snapshot and drop the active registry."""
    global _registry
    registry, _registry = _registry, None
    return registry.snapshot() if registry is not None else None


def reset() -> None:
    """Return the runtime to its boot state (tests use this)."""
    global _metrics_on, _tracing_on, _sample_every, _flight_dir
    global _registry, _trace_records, _timeseries, _flight
    _metrics_on = False
    _tracing_on = False
    _sample_every = None
    _flight_dir = None
    _registry = None
    _trace_records = None
    _timeseries = None
    _flight = None
