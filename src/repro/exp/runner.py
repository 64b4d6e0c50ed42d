"""The one deterministic fan-out every campaign, study and sweep uses.

:func:`run_many` owns the fan-out every campaign used to carry
privately: every config runs hermetically (its own ``Simulator``, its
own seed), outcomes come back ordered by config index, and progress is
reported as **monotonic completed-count ticks** — ``1, 2, ..., N``
exactly once each — under ``workers=1`` and ``workers>1`` alike.  There
are two executors: a serial loop in this process, and a process pool
(``fork`` where the platform has it, its default start method
otherwise).  Every run is reclaimed before the next one starts, so a
serial campaign holds one cluster at a time.

:func:`run_experiment` drives a whole declarative experiment: expand the
spec through its registry entry, fan the configs out, journal each
outcome as it completes (when given a journal path), aggregate, render,
and stamp a :class:`~repro.exp.results.RunManifest`.  A campaign killed
mid-flight resumes from its journal: re-invoking the same spec with the
same journal path skips the already-completed runs and finishes with
results byte-identical to an uninterrupted run.

Journal format (JSON lines)::

    {"journal": 1, "experiment": ..., "spec_hash": ..., "total": N}
    {"run": 0, "outcome": {...}}
    {"run": 3, "outcome": {...}}        # completion order, not run order

A torn final line (the process died mid-write) is ignored on load; a
header whose ``spec_hash`` does not match the spec being resumed raises
:class:`JournalMismatch` rather than silently mixing configurations.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from .results import ExperimentResult, RunManifest, encode_outcome
from .spec import ExperimentSpec

__all__ = [
    "derive_run_seed",
    "run_many",
    "run_experiment",
    "Journal",
    "JournalMismatch",
]

JOURNAL_VERSION = 1


def derive_run_seed(base_seed: int, run_id: int) -> int:
    """Per-run seed derivation: stable, collision-free, and identical to
    what the historic campaigns used, so same-seed results stay
    byte-identical across the refactor."""
    return base_seed + run_id


class JournalMismatch(ValueError):
    """The journal on disk belongs to a different spec."""


class Journal:
    """Append-only outcome journal backing resumable campaigns."""

    def __init__(self, path: str, spec: ExperimentSpec, total: int):
        self.path = path
        self.spec = spec
        self.total = total

    def load(self) -> Dict[int, Any]:
        """Encoded outcomes by run index; ``{}`` if no journal yet."""
        if not os.path.exists(self.path):
            return {}
        completed: Dict[int, Any] = {}
        with open(self.path) as fh:
            lines = fh.read().splitlines()
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except ValueError:
            raise JournalMismatch("journal %s has an unreadable header"
                                  % self.path)
        if header.get("journal") != JOURNAL_VERSION:
            raise JournalMismatch("journal %s has version %r, want %d"
                                  % (self.path, header.get("journal"),
                                     JOURNAL_VERSION))
        if header.get("spec_hash") != self.spec.spec_hash:
            raise JournalMismatch(
                "journal %s was written by spec %s; resuming spec %s "
                "would mix configurations — delete the journal or rerun "
                "the original spec"
                % (self.path, header.get("spec_hash"), self.spec.spec_hash))
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except ValueError:
                continue        # torn tail from a mid-write kill
            index = entry.get("run")
            if isinstance(index, int) and 0 <= index < self.total \
                    and "outcome" in entry:
                completed[index] = entry["outcome"]
        return completed

    def append(self, index: int, encoded_outcome: Any) -> None:
        new = not os.path.exists(self.path) \
            or os.path.getsize(self.path) == 0
        with open(self.path, "a") as fh:
            if new:
                fh.write(json.dumps({
                    "journal": JOURNAL_VERSION,
                    "experiment": self.spec.experiment,
                    "spec_hash": self.spec.spec_hash,
                    "total": self.total,
                }, sort_keys=True) + "\n")
            fh.write(json.dumps({"run": index,
                                 "outcome": encoded_outcome},
                                sort_keys=True) + "\n")
            fh.flush()


class _Ticker:
    """Serializes progress into strictly-increasing completed counts."""

    def __init__(self, progress: Optional[Callable[[int], None]],
                 already_done: int = 0):
        self.done = already_done
        self.progress = progress

    def tick(self) -> None:
        self.done += 1
        if self.progress is not None:
            self.progress(self.done)


def _invoke(runner: Callable[[Any], Any], item):
    """Run one ``(index, config)`` item, then reclaim what it built.

    A finished cluster is a web of reference cycles that holds 2 MB of
    SRAM per NIC; left to the cyclic collector it survives until a
    generation-2 pass, long after the next run has booted.  Collecting
    here bounds a serial campaign (and each pool worker) to one live
    cluster.
    """
    index, config = item
    outcome = runner(config)
    gc.collect()
    return index, outcome


def _boot_and_resume(boot: Callable[[Any], Any],
                     resume: Callable[[Any, Any], Any], config: Any) -> Any:
    """One run of an experiment registered with a boot/resume split."""
    return resume(boot(config), config)


# -- telemetry wrapping --------------------------------------------------------
#
# When the CLI asks for metrics (`repro metrics`) or per-run traces
# (`--trace`), run_experiment wraps the run function in
# _telemetry_invoke via functools.partial — run_many itself is
# untouched, and with telemetry off no wrapper exists at all, so the hot
# path is byte-for-byte the pre-telemetry code.


class _TelemetryEnvelope:
    """A run's outcome plus its telemetry sidecar.

    Picklable (it crosses the pool's pipes) and unambiguous: no
    experiment outcome is an instance of this class, so unwrapping is a
    plain isinstance check.  Journal-resumed outcomes
    are *not* enveloped — their runs were computed in an earlier
    process, so their telemetry is absent by construction.
    """

    __slots__ = ("outcome", "snapshot", "trace", "timeseries", "flight")

    def __init__(self, outcome: Any, snapshot: Any, trace: Any,
                 timeseries: Any = None, flight: Any = None):
        self.outcome = outcome
        self.snapshot = snapshot
        self.trace = trace
        self.timeseries = timeseries
        self.flight = flight


def _unwrap_outcome(outcome: Any) -> Any:
    if isinstance(outcome, _TelemetryEnvelope):
        return outcome.outcome
    return outcome


def _flight_payload(flight_dir: Optional[str],
                    outcome: Any) -> Optional[Dict[str, Any]]:
    """Classify the finished run; a triggered ring report or None.

    Runs in the run's own process (serial or pool worker), where the
    ring and the outcome both live; the parent takes the anomaly-instant
    snapshot later, from the report's ``at_us``.
    """
    if flight_dir is None:
        return None
    from ..obs import runtime as obs_runtime
    from ..obs.flightrec import classify_anomaly

    recorder = obs_runtime.active_flight()
    if recorder is None:
        return None
    reason = classify_anomaly(outcome)
    if reason is None:
        return None
    return recorder.report(reason)


def _flight_exception(flight_dir: Optional[str], config: Any,
                      exc: BaseException) -> None:
    """Best-effort ring dump for a run that raised (run side)."""
    if flight_dir is None:
        return
    from ..obs import runtime as obs_runtime
    from ..obs.flightrec import dump_exception

    recorder = obs_runtime.active_flight()
    if recorder is None:
        return
    try:
        dump_exception(flight_dir, config, recorder, exc)
    except OSError:
        pass


def _telemetry_invoke(runner: Callable[[Any], Any], metrics: bool,
                      tracing: bool, sample_every: Optional[float],
                      flight_dir: Optional[str],
                      config: Any) -> "_TelemetryEnvelope":
    """One run, bracketed by a per-run telemetry scope.

    The intent flags are set before ``runner`` boots anything, in the
    run's own process, so a pool worker started by ``spawn`` builds the
    same tracer, sampler and flight ring as the serial loop.
    """
    from ..obs import runtime as obs_runtime

    obs_runtime.configure(metrics=metrics, tracing=tracing,
                          sample_every=sample_every, flight_dir=flight_dir)
    obs_runtime.begin_run()
    try:
        outcome = runner(config)
    except BaseException as exc:
        _flight_exception(flight_dir, config, exc)
        raise
    return _TelemetryEnvelope(outcome, obs_runtime.collect(),
                              obs_runtime.take_trace(),
                              obs_runtime.take_timeseries(),
                              _flight_payload(flight_dir, outcome))


def run_many(configs: Sequence[Any], runner: Callable[[Any], Any], *,
             workers: int = 1,
             progress: Optional[Callable[[int], None]] = None,
             completed: Optional[Dict[int, Any]] = None,
             on_outcome: Optional[Callable[[int, Any], None]] = None
             ) -> List[Any]:
    """Run every config through ``runner``; outcomes in config order.

    ``runner`` must be a picklable module-level function.  ``completed``
    maps config indices to already-known outcomes (a resumed journal);
    those configs are skipped.  ``on_outcome(index, outcome)`` fires in
    completion order for each *newly computed* outcome, before the
    progress tick for that run — so a journal line always lands before
    the tick that announces it.  ``progress(done)`` receives monotonic
    counts ``len(completed)+1 .. len(configs)`` in both serial and
    parallel modes.  Each run is reclaimed (:func:`_invoke`) before the
    next one starts.
    """
    completed = dict(completed or {})
    outcomes: List[Any] = [None] * len(configs)
    for index, outcome in completed.items():
        outcomes[index] = outcome
    pending = [(index, config) for index, config in enumerate(configs)
               if index not in completed]
    ticker = _Ticker(progress, already_done=len(configs) - len(pending))

    def record(index: int, outcome: Any) -> None:
        outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(index, outcome)
        ticker.tick()

    if workers <= 1 or len(pending) < 2:
        for item in pending:
            record(*_invoke(runner, item))
        return outcomes
    # fork (where available) shares the already-imported simulator
    # modules with the children; spawn re-imports and still works.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else None
    ctx = multiprocessing.get_context(method)
    workers = min(workers, len(pending))
    chunksize = max(1, len(pending) // (workers * 4))
    with ctx.Pool(processes=workers) as pool:
        for index, outcome in pool.imap_unordered(
                partial(_invoke, runner), pending, chunksize):
            record(index, outcome)
        # Let idle workers exit on their own: leaving the block would
        # otherwise terminate() them, killing any exit-time work.
        pool.close()
        pool.join()
    return outcomes


def run_experiment(spec: ExperimentSpec, *, workers: int = 1,
                   progress: Optional[Callable[[int], None]] = None,
                   journal_path: Optional[str] = None,
                   telemetry: bool = False,
                   trace: bool = False,
                   sample_every: Optional[float] = None,
                   flight_dir: Optional[str] = None,
                   from_snapshot: Optional[str] = None) -> ExperimentResult:
    """Expand, fan out, (optionally) journal, aggregate and render.

    With ``journal_path``, every completed run is appended to the
    journal as it finishes and an existing journal for the same spec is
    resumed — the combined result is byte-identical to a single
    uninterrupted run.  The journal file is left in place on completion
    so a finished campaign re-invokes as a pure cache hit.

    Experiments registered with a boot/resume split run as
    ``resume(boot(config), config)`` through :func:`_boot_and_resume`,
    so the boot and the run are separate calls from this module;
    ``run_one`` serves only experiments without the split.

    ``telemetry`` collects a per-run :class:`MetricsSnapshot` and merges
    them (deterministically — the merge is commutative and runs fold in
    config order) onto the result; ``trace`` captures each run's trace
    records for Chrome-trace export.  Both leave the experiment outcomes
    byte-identical to a plain run; journal-resumed runs carry no
    telemetry (they were computed in an earlier process).

    ``sample_every`` (µs of simulated time) arms the continuous
    sampler: every run's clusters carry a :class:`TimeSeriesSampler`
    and the result grows a ``"timeseries"`` key with one track document
    per run, assembled in config order so serial and pool execution
    produce identical documents.  ``flight_dir`` arms the flight
    recorder: anomalous runs (SLO breach, deadlock outcome, exception)
    dump their trace ring plus an anomaly-instant ``ckpt`` snapshot into
    that directory; the written paths land on ``result.flight_dumps``
    (never in the serialized doc).  Both follow the telemetry
    discipline — outcomes stay byte-identical.

    ``from_snapshot`` restores a snapshot file (``repro snapshot``)
    whose spec must match, finishes the checkpointed run from its
    restored instant, and computes the remaining runs normally — the
    combined result is byte-identical to a cold-boot campaign.
    """
    from .registry import get_experiment

    experiment = get_experiment(spec.experiment)
    configs = experiment.expand(spec)
    telemetry_on = telemetry or trace \
        or sample_every is not None or flight_dir is not None
    runner = experiment.run_one
    if experiment.boot is not None and experiment.resume is not None:
        runner = partial(_boot_and_resume, experiment.boot,
                         experiment.resume)
    if telemetry_on:
        runner = partial(_telemetry_invoke, runner,
                         telemetry, trace, sample_every, flight_dir)
    completed: Dict[int, Any] = {}
    journal: Optional[Journal] = None
    if journal_path is not None:
        journal = Journal(journal_path, spec, total=len(configs))
        decode = experiment.decode or (lambda value: value)
        completed = {index: decode(encoded)
                     for index, encoded in journal.load().items()}
    if from_snapshot is not None:
        from ..ckpt import SnapshotMismatch, load_snapshot, restore_snapshot

        snap = load_snapshot(from_snapshot)
        if ExperimentSpec.from_dict(snap.spec).spec_hash != spec.spec_hash:
            raise SnapshotMismatch(
                "snapshot %s pins spec %s; running spec %s from it would "
                "mix configurations" % (from_snapshot,
                                        ExperimentSpec.from_dict(
                                            snap.spec).spec_hash,
                                        spec.spec_hash))
        if snap.run_index not in completed:
            completed[snap.run_index] = restore_snapshot(snap).finish()
    on_outcome = None
    if journal is not None:
        def on_outcome(index: int, outcome: Any) -> None:
            journal.append(index, encode_outcome(_unwrap_outcome(outcome)))
    started = time.perf_counter()
    try:
        outcomes = run_many(configs, runner, workers=workers,
                            progress=progress, completed=completed,
                            on_outcome=on_outcome)
    finally:
        if telemetry_on:
            from ..obs import runtime as obs_runtime
            obs_runtime.reset()
    wall = time.perf_counter() - started
    snapshot = None
    traces: Optional[List] = None
    timeseries = None
    flight_dumps: List[str] = []
    if telemetry_on:
        snapshots = []
        traces = []
        unwrapped = []
        series_runs = []
        flight_reports = []
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, _TelemetryEnvelope):
                if outcome.snapshot is not None:
                    snapshots.append(outcome.snapshot)
                if outcome.trace is not None:
                    traces.append((index, outcome.trace))
                if outcome.timeseries is not None:
                    series_runs.append([index, outcome.timeseries])
                if outcome.flight is not None:
                    flight_reports.append((index, outcome.flight))
                unwrapped.append(outcome.outcome)
            else:       # resumed from a journal: plain outcome
                unwrapped.append(outcome)
        outcomes = unwrapped
        if telemetry:
            from ..obs.metrics import MetricsSnapshot
            snapshot = MetricsSnapshot.merged(snapshots)
        if series_runs:
            # Enumeration above walks config order, so the document is
            # identical whichever executor (or completion order)
            # produced the envelopes.
            from ..obs.timeseries import TIMESERIES_SCHEMA
            timeseries = {"schema": TIMESERIES_SCHEMA,
                          "sample_every_us": float(sample_every),
                          "runs": series_runs}
        if flight_reports:
            # The runtime was reset in the finally above, so these
            # replays run exactly like restore_flight_dump's — plain
            # telemetry-off executions to the anomaly instant.
            from ..obs.flightrec import write_flight_dumps
            flight_dumps = write_flight_dumps(flight_dir, spec,
                                              flight_reports)
    aggregate = experiment.aggregate(spec, outcomes)
    rendered = experiment.render(aggregate)
    summary = experiment.summarize(aggregate) \
        if experiment.summarize is not None else None
    manifest = RunManifest.collect(spec.spec_hash, spec.seed, wall)
    return ExperimentResult(spec=spec, manifest=manifest,
                            outcomes=outcomes, rendered=rendered,
                            summary=summary, telemetry=snapshot,
                            traces=traces, timeseries=timeseries,
                            flight_dumps=flight_dumps)
