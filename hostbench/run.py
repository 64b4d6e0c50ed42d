"""Host-time benchmark of the repro simulator.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the simulator is imported from
``src/`` there.  ``--trace 0`` prints the end-to-end metrics of an
untraced run: ``setup_s`` (median of several fresh processes that import
``repro``, expand the spec and boot the first cluster), then
``runs_per_s``, ``cpu_s_per_run`` and ``peak_rss_mb`` of campaigns run
closed-loop for ``S`` seconds in one fresh process.  ``--trace 1``
prints the per-layer metrics of a traced pass (see ``worker.py``).

Every line before the last is a human-readable report; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and the reasons behind them are in
``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Per-child wall limits, seconds: each run of the benchmark must end
#: within 180 s.
SETUP_TIMEOUT = 30
MEASURE_SLACK = 100
TRACE_TIMEOUT = 170

sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("runs_per_s", "1/s"), ("cpu_s_per_run", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Per-layer metrics of every workload: the ``--trace 1`` JSON result.
PER_LAYER = (
    ("exp.overhead_s", "s"), ("exp.self_s", "s"), ("exp.run_p50_ms", "ms"),
    ("exp.slowest_run_s", "s"), ("cluster.boot_s", "s"),
    ("cluster.self_s", "s"), ("sim.events", "count"), ("sim.sim_us", "us"),
    ("sim.self_s", "s"), ("sim.events_per_s", "1/s"), ("net.hops", "count"),
    ("net.drops", "count"), ("net.self_s", "s"), ("net.hops_per_s", "1/s"),
    ("gm.self_s", "s"), ("gm.l_timer_invocations", "count"),
    ("gm.idle_fold_ratio", "ratio"), ("gm.retransmit_rounds", "count"),
    ("gm.delivered_per_packet", "ratio"), ("ftgm.self_s", "s"),
    ("ftgm.watchdog_arms", "count"), ("ftgm.recoveries", "count"),
    ("ftgm.reroutes", "count"), ("hw.self_s", "s"),
    ("netfaults.self_s", "s"), ("payload.self_s", "s"),
    ("obs.self_s", "s"), ("obs.harvest_s", "s"),
    ("obs.trace_overhead_x", "x"),
)
#: Per-layer metrics of the workloads that exercise the layer; printed
#: in the report only, with the reason where a workload has none.
PER_LAYER_WHERE_APPLIES = (
    ("exp.run_p95_ms", "ms"), ("lanai.self_s", "s"),
    ("lanai.instructions", "count"), ("lanai.block_hit_ratio", "ratio"),
    ("faults.self_s", "s"), ("load.self_s", "s"), ("load.lost", "count"),
)
UNITS = dict(END_TO_END + PER_LAYER + PER_LAYER_WHERE_APPLIES)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(mode: str, args, timeout: float):
    """Run one worker process; its JSON result and the wall seconds until
    it printed its first line.

    The worker gets its own process group, so a worker that overruns
    ``timeout`` is killed together with every process it forked.
    """
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                if not sel.select(timeout):
                    raise subprocess.TimeoutExpired(cmd, timeout)
            line = proc.stdout.readline()
            wall = time.perf_counter() - started
            rest, _ = proc.communicate(
                timeout=max(1.0, timeout - (time.perf_counter() - started)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("%s worker exceeded %d s" % (mode, timeout))
    lines = (line + rest).strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s worker exited with %d" % (mode,
                                                       proc.returncode))
    return json.loads(lines[-1]), wall


def end_to_end(args):
    setups = []
    for _ in range(SETUP_PROBES):
        doc, wall = _worker("setup", args, SETUP_TIMEOUT)
        setups.append((wall, doc["boot_s"]))
    measured, _ = _worker("measure", args, args.seconds + MEASURE_SLACK)
    campaigns = measured["campaigns"]
    runs = sum(c["runs"] for c in campaigns)
    wall = sum(c["wall"] for c in campaigns)
    metrics = {
        "runs_per_s": runs / wall,
        "cpu_s_per_run": measured["cpu_s"] / runs,
        "setup_s": statistics.median(s[0] for s in setups),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    print("workload %s seed %d: %d campaigns, %d runs in %.3f s; "
          "setup probes %s s (boot %s s)"
          % (args.workload, args.seed, len(campaigns), runs, wall,
             " ".join("%.3f" % s[0] for s in setups),
             " ".join("%.3f" % s[1] for s in setups)))
    return campaigns, [], metrics, metrics, {}


def traced(args):
    doc, _ = _worker("trace", args, TRACE_TIMEOUT)
    print("workload %s seed %d: traced campaign 0; trace written to %s"
          % (args.workload, args.seed, doc.get("trace_file", "-")))
    measured = doc["metrics"]
    problems = list(doc["problems"])
    missing = [name for name, _ in PER_LAYER if name not in measured]
    if measured and missing:
        problems.append("per-layer metrics missing: %s" % missing)
    result = {name: measured.get(name, 0.0) for name, _ in PER_LAYER}
    return doc["records"], problems, measured, result, doc["notes"]


def report(args):
    """Measure one workload and print its report; (correct, attempted,
    failed, metrics)."""
    records, problems, shown, metrics, notes = \
        (traced if args.trace else end_to_end)(args)
    for record in records:
        problems.extend("campaign seed %d: %s" % (record["seed"], problem)
                        for problem in record["problems"])
    attempted = sum(record["runs"] for record in records)
    failed = sum(record["failed"] for record in records)
    for name, unit in UNITS.items():
        if name in shown:
            print("  %-26s %16.6f %s" % (name, shown[name], unit))
    for name, note in sorted(notes.items()):
        print("  n/a %-22s %s" % (name, note))
    print("  runs_attempted %d, runs_failed %d" % (attempted, failed))
    for problem in problems:
        print("  FAILED: %s" % problem)
    return not problems and failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to report every one "
                             "in turn")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("hostbench: no src/repro under %s; run from the root of a "
              "checkout" % ROOT, file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, out = True, 0, 0, {}
    for name in names:
        args.workload = name
        try:
            ok, tried, lost, metrics = report(args)
        except BenchError as exc:
            print("hostbench: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        correct, attempted, failed = correct and ok, attempted + tried, \
            failed + lost
        prefix = name + "/" if len(names) > 1 else ""
        out.update((prefix + metric, {"value": value, "unit": UNITS[metric]})
                   for metric, value in metrics.items())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
