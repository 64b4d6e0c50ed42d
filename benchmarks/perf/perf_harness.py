"""Microbenchmark harness: thin wrapper over :mod:`repro.exp.perfbench`.

The benchmarks themselves live in the package (``repro.exp.perfbench``)
so the experiment engine can drive them too (``python -m repro run
perf``).  This script keeps the historical entry point and the
``BENCH_perf.json`` before/after ledger:

    PYTHONPATH=src python benchmarks/perf/perf_harness.py --label current

Each invocation merges its results into ``BENCH_perf.json`` under the
given label, alongside a run manifest (spec hash, seed, git revision,
wall time) so every recorded number is traceable to the exact
configuration that produced it.  The ledger accumulates the perf
trajectory across PRs: ``baseline`` (the pre-optimization tree) is
frozen — the harness refuses to overwrite it — and re-using any other
existing label appends a timestamped variant (``pr4-20260806T120000``)
instead of clobbering history.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
if os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.exp.perfbench import (  # noqa: E402  (path bootstrap above)
    bench_campaign,
    bench_fabric_hops,
    bench_kernel_events,
    bench_kernel_wakeups,
    bench_lanai_interpreter,
    render_results,
    run_all,
)

__all__ = [
    "bench_campaign",
    "bench_fabric_hops",
    "bench_kernel_events",
    "bench_kernel_wakeups",
    "bench_lanai_interpreter",
    "merge_into",
    "run_all",
    "main",
]

DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_perf.json")


def _validate_entry(label: str, results: dict) -> None:
    """Reject new entries that hide the hardware or parallelism axes.

    A throughput number is meaningless without the execution shape that
    produced it, so every entry must record the ``cpus`` it ran on, and
    every sub-result that reports ``runs_per_sec`` (the campaign-style
    benchmarks, whose wall clock scales with parallel fan-out) must say
    how many ``workers`` processes were in play.  Applies to *new*
    merges only — historical entries predate this axis and stay as
    recorded.
    """
    if not isinstance(results.get("cpus"), int):
        raise SystemExit(
            "refusing to record entry %r without the 'cpus' it ran on "
            "(perfbench.environment_info() supplies it)" % label)
    for name, sub in results.items():
        if not isinstance(sub, dict) or "runs_per_sec" not in sub:
            continue
        if "workers" not in sub:
            raise SystemExit(
                "refusing to record entry %r: sub-result %r reports "
                "runs_per_sec without its workers axis" % (label, name))


def merge_into(path: str, label: str, results: dict,
               manifest: dict = None) -> str:
    """Append ``results`` to the ledger; never rewrite history.

    ``baseline`` is frozen once recorded.  Any other label that already
    exists gets a timestamped suffix, so repeated runs accumulate as
    distinct entries and the cross-PR perf trajectory stays intact.
    New entries must carry their execution shape (see
    :func:`_validate_entry`).  Returns the label actually written.
    """
    _validate_entry(label, results)
    doc = {"schema": 1, "entries": {}}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        doc.setdefault("entries", {})
    if label in doc["entries"]:
        if label == "baseline":
            raise SystemExit(
                "refusing to overwrite the frozen 'baseline' entry in %s"
                % path)
        label = "%s-%s" % (label, time.strftime("%Y%m%dT%H%M%S"))
    results["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if manifest is not None:
        results["manifest"] = manifest
    doc["entries"][label] = results
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return label


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current",
                        help="entry name in BENCH_perf.json")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--campaign-runs", type=int, default=200)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="10x smaller sizes (CI smoke)")
    args = parser.parse_args(argv)

    from repro.exp.registry import get_experiment
    from repro.exp.results import RunManifest

    spec = get_experiment("perf").build_spec({
        "campaign_runs": args.campaign_runs,
        "campaign_workers": args.workers,
        "quick": args.quick,
    })
    t0 = time.perf_counter()
    results = run_all(args.campaign_runs, args.workers, quick=args.quick)
    wall = time.perf_counter() - t0
    manifest = RunManifest.collect(spec.spec_hash, spec.seed, wall)
    label = merge_into(args.out, args.label, results,
                       manifest=manifest.to_dict())
    print(render_results(results))
    print("wrote %s [%s]" % (args.out, label))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
