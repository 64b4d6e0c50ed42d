"""One measuring process of the benchmark; ``run.py`` starts it fresh.

    python3 hostbench/worker.py setup   --workload W --seed N
    python3 hostbench/worker.py measure --workload W --seed N --seconds S
    python3 hostbench/worker.py trace   --workload W --seed N

``setup`` imports ``repro``, builds and expands campaign 0's spec and
boots its first cluster through the experiment's registered ``boot``,
then prints one line and exits; ``run.py`` times it from the spawn.

``measure`` runs campaigns closed-loop, untraced, until ``S`` seconds
have passed (at least one campaign), and reports wall, user+sys and peak
RSS of this process and its reaped children.

``trace`` runs campaign 0 four times: untraced; twice traced (layer
hook plus telemetry) at the workload's worker count; once with telemetry
only at the other worker count (1 <-> 2).  Telemetry counts must repeat
exactly across the last three.  The first traced pass gives the
per-layer metrics and is written to ``.hostbench/``.

Each mode prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".hostbench")

sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402  (after the path set-up)

#: Largest allowed gap between a run's traced resume wall and the sum of
#: the layer self times inside it, as a share of that wall.
SELF_SUM_TOLERANCE = 0.005


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    sys.stdout.flush()


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _campaign(workload, seed: int, index: int, pins, **run_kwargs):
    """Run campaign ``index``; (result or None, record)."""
    from repro.exp import run_experiment

    spec_seed = wl.campaign_seed(workload, seed, index)
    spec = wl.build_spec(workload, spec_seed)
    workers = run_kwargs.pop("workers", workload.workers)
    started = time.perf_counter()
    try:
        result = run_experiment(spec, workers=workers, **run_kwargs)
    except Exception as exc:    # a failed run aborts its campaign
        return None, {"seed": spec_seed, "runs": workload.runs,
                      "wall": time.perf_counter() - started,
                      "failed": workload.runs,
                      "problems": ["%s: %s" % (type(exc).__name__, exc)]}
    wall = time.perf_counter() - started
    failed, problems = wl.check_campaign(workload, result, spec_seed, pins)
    return result, {"seed": spec_seed, "runs": workload.runs, "wall": wall,
                    "failed": failed, "problems": problems}


def do_setup(workload, seed: int) -> None:
    from repro.exp import get_experiment

    experiment = get_experiment(workload.experiment)
    spec = wl.build_spec(workload, wl.campaign_seed(workload, seed, 0))
    configs = experiment.expand(spec)
    started = time.perf_counter()
    experiment.boot(configs[0])
    _emit({"boot_s": time.perf_counter() - started})
    os._exit(0)     # skip tearing the booted cluster down


def do_measure(workload, seed: int, seconds: float) -> None:
    from repro.exp import get_experiment

    pins = wl.load_pins()
    get_experiment(workload.experiment)     # imports stay out of cpu_s
    cpu0, _ = _usage()
    started = time.perf_counter()
    campaigns = []
    while not campaigns or time.perf_counter() - started < seconds:
        _, record = _campaign(workload, seed, len(campaigns), pins)
        campaigns.append(record)
    cpu1, peak_rss_mb = _usage()
    _emit({"campaigns": campaigns, "cpu_s": cpu1 - cpu0,
           "peak_rss_mb": peak_rss_mb})


# -- traced pass ---------------------------------------------------------------


def _counts(snapshot):
    """Telemetry counts: every counter and gauge of the merged snapshot."""
    return {"counters": dict(snapshot.counters),
            "gauges": {name: gauge.to_doc()
                       for name, gauge in snapshot.gauges.items()}}


def _boundaries(workload):
    from repro.exp import get_experiment
    from repro.obs import harvest

    experiment = get_experiment(workload.experiment)
    return {experiment.boot.__code__: "boot",
            experiment.resume.__code__: "resume",
            harvest.harvest_cluster.__code__: "harvest",
            harvest.harvest_load.__code__: "harvest"}


def _percentile_ms(values, q: float) -> float:
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 1)))      # nearest rank
    return ordered[rank - 1] * 1000.0


def layer_metrics(workload, trace, counters, gauges, traced_wall: float,
                  untraced_wall: float):
    """(metrics, notes): the per-layer metrics of one traced pass."""
    c = counters.get
    self_s = trace.self_s()
    resumes = [span["dur"] for span in trace.boundary("resume")]
    boots = [span["dur"] for span in trace.boundary("boot")]
    harvests = [span["dur"] for span in trace.boundary("harvest")]
    notes = {}
    m = {}
    lanes = min(workload.workers, workload.runs)
    m["exp.overhead_s"] = traced_wall - (sum(resumes) + sum(boots)) / lanes
    m["exp.self_s"] = self_s.get("exp", 0.0)
    m["exp.run_p50_ms"] = _percentile_ms(resumes, 0.50)
    if len(resumes) * 0.05 >= 10:
        m["exp.run_p95_ms"] = _percentile_ms(resumes, 0.95)
    else:
        notes["exp.run_p95_ms"] = ("%d runs: fewer than 10 lie beyond p95"
                                   % len(resumes))
    m["exp.slowest_run_s"] = max(resumes)
    m["cluster.boot_s"] = sum(boots)
    m["cluster.self_s"] = self_s.get("cluster", 0.0)
    m["sim.events"] = c("sim.events_scheduled", 0)
    m["sim.sim_us"] = gauges["sim.time_us"]["total"]
    m["sim.self_s"] = self_s.get("sim", 0.0)
    m["sim.events_per_s"] = m["sim.events"] / m["sim.self_s"]
    m["net.hops"] = c("link.packets_carried", 0)
    m["net.drops"] = (c("link.packets_dropped", 0)
                      + c("switch.dead_port_drops", 0)
                      + c("switch.absorbed", 0)
                      + c("nic.dropped_arrivals", 0))
    m["net.self_s"] = self_s.get("net", 0.0)
    m["net.hops_per_s"] = m["net.hops"] / m["net.self_s"]
    m["gm.self_s"] = self_s.get("gm", 0.0)
    m["gm.l_timer_invocations"] = c("mcp.l_timer_invocations", 0)
    m["gm.idle_fold_ratio"] = (c("mcp.ticks_absorbed", 0)
                               / m["gm.l_timer_invocations"])
    m["gm.retransmit_rounds"] = c("mcp.retransmit_rounds", 0)
    m["gm.delivered_per_packet"] = (c("mcp.messages_delivered", 0)
                                    / c("mcp.packets_sent", 1))
    m["ftgm.self_s"] = self_s.get("ftgm", 0.0)
    m["ftgm.watchdog_arms"] = c("mcp.watchdog_arms", 0)
    m["ftgm.recoveries"] = c("ftd.recoveries", 0)
    m["ftgm.reroutes"] = c("ftd.reroutes", 0)
    if "mcp.watchdog_arms" not in counters:
        notes["ftgm.*"] = "no FTGM node in this workload (reads 0)"
    m["hw.self_s"] = self_s.get("hw", 0.0)
    m["netfaults.self_s"] = self_s.get("netfaults", 0.0)
    m["payload.self_s"] = self_s.get("payload", 0.0)
    # Layers only some workloads exercise: reported where they apply.
    if c("lanai.instructions_retired", 0):
        hits = c("lanai.block_hits", 0)
        m["lanai.self_s"] = self_s.get("lanai", 0.0)
        m["lanai.instructions"] = c("lanai.instructions_retired")
        m["lanai.block_hit_ratio"] = hits / (
            hits + c("lanai.blocks_translated", 0))
    else:
        notes["lanai.*"] = "no interpreted LANai node in this workload"
    if "faults" in self_s:
        m["faults.self_s"] = self_s["faults"]
    else:
        notes["faults.self_s"] = "no SWIFI injection in this workload"
    if "load" in self_s:
        m["load.self_s"] = self_s["load"]
        m["load.lost"] = sum(value for name, value in counters.items()
                             if name.startswith("load.stage.")
                             and name.endswith(".lost"))
    else:
        notes["load.*"] = "no open-loop load in this workload"
    m["obs.self_s"] = self_s.get("obs", 0.0)
    m["obs.harvest_s"] = sum(harvests)
    m["obs.trace_overhead_x"] = traced_wall / untraced_wall
    return m, notes


def _trace_problems(workload, trace):
    """The trace's own checks: one closed resume span per run, and the
    layer self times inside each adding up to its wall."""
    resumes = trace.boundary("resume")
    if len(resumes) != workload.runs:
        return ["traced %d run resumes for %d runs"
                % (len(resumes), workload.runs)]
    problems = []
    for span in resumes:
        gap = abs(span["layers_self_sum"] - span["dur"])
        if gap > SELF_SUM_TOLERANCE * span["dur"]:
            problems.append("run %s: layer self times sum to %.6f s, "
                            "resume wall is %.6f s"
                            % (span["run"], span["layers_self_sum"],
                               span["dur"]))
    return problems


def do_trace(workload, seed: int) -> None:
    from layers import LayerTracer

    pins = wl.load_pins()
    records = []
    problems = []

    untraced, record = _campaign(workload, seed, 0, pins)
    records.append(record)
    untraced_wall = record["wall"]

    passes = []
    for _ in range(2):
        tracer = LayerTracer(SRC, OUT_DIR, _boundaries(workload))
        tracer.start()
        try:
            result, record = _campaign(workload, seed, 0, pins,
                                       telemetry=True)
        finally:
            trace = tracer.stop()
        records.append(record)
        passes.append((result, record, trace))

    other_workers = 1 if workload.workers > 1 else 2
    result_w, record = _campaign(workload, seed, 0, pins, telemetry=True,
                                 workers=other_workers)
    records.append(record)

    results = [p[0] for p in passes] + [result_w]
    if any(r is None for r in results) or untraced is None:
        problems.append("a campaign raised; no per-layer metrics")
        _emit({"records": records, "problems": problems, "metrics": {},
               "notes": {}})
        return
    outcome = wl.outcome_fields(workload, untraced)
    for r in results:
        if wl.outcome_fields(workload, r) != outcome:
            problems.append("traced or telemetry outcome differs from the "
                            "untraced one")
    counts = [_counts(r.telemetry) for r in results]
    labels = ["traced pass 2", "workers=%d" % other_workers]
    for label, other in zip(labels, counts[1:]):
        if other != counts[0]:
            drift = sorted(
                name for name in set(other["counters"])
                | set(counts[0]["counters"])
                if other["counters"].get(name)
                != counts[0]["counters"].get(name))
            problems.append("telemetry counts drift between traced pass 1 "
                            "and %s: %s" % (label, drift or "gauges"))
    traces = [p[2] for p in passes]
    for each in traces:
        problems.extend(_trace_problems(workload, each))
    if any(len(each.boundary("resume")) != workload.runs for each in traces):
        _emit({"records": records, "problems": problems, "metrics": {},
               "notes": {}})
        return
    _, first_record, trace = passes[0]
    metrics, notes = layer_metrics(workload, trace,
                                   counts[0]["counters"],
                                   counts[0]["gauges"],
                                   first_record["wall"], untraced_wall)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                        % (workload.name, seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "metrics": metrics, "notes": notes,
                   "counts": counts[0], "trace": trace.to_doc()}, fh)
    _emit({"records": records, "problems": problems, "metrics": metrics,
           "notes": notes, "trace_file": os.path.relpath(path, ROOT)})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.PIN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    if args.mode == "setup":
        do_setup(workload, args.seed)
    elif args.mode == "measure":
        do_measure(workload, args.seed, args.seconds)
    else:
        do_trace(workload, args.seed)


if __name__ == "__main__":
    main()
