"""Microbenchmarks for the simulation-stack fast paths.

Four numbers capture the cost of everything this project does:

* **kernel events/sec** — raw discrete-event throughput: processes
  yielding timeouts, the pattern every host, NIC, DMA engine and daemon
  reduces to.
* **LANai instructions/sec** — interpreted firmware throughput: a tight
  ALU/branch loop on :class:`~repro.lanai.cpu.LanaiCpu`, the engine
  behind every interpreted ``send_chunk`` in the fault-injection study.
* **campaign runs/sec** — end-to-end wall clock of a Table 1 style
  fault-injection campaign (the dominant cost of the reproduction).
* **fabric hops/sec** — the link/switch layer alone: packets crossing a
  3-tier fat-tree with no NIC firmware or host behind them.

These used to live in ``benchmarks/perf/perf_harness.py``; they moved
into the package so the experiment engine can register them (``repro
run perf``) and the harness script became a thin wrapper that merges
results (plus a run manifest) into ``BENCH_perf.json``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Dict

__all__ = [
    "bench_kernel_events",
    "bench_kernel_wakeups",
    "bench_lanai_interpreter",
    "bench_fabric_hops",
    "bench_campaign",
    "bench_netfaults",
    "bench_loadgen",
    "bench_slo_chaos",
    "bench_fabric_scaling",
    "bench_closfault",
    "bench_snapshot",
    "run_bench",
    "run_all",
    "environment_info",
    "render_results",
    "BENCH_NAMES",
]

BENCH_NAMES = ("kernel_timeouts", "kernel_wakeups", "lanai_interpreter",
               "fabric_hops", "campaign", "snapshot")


def bench_kernel_events(total_yields: int = 200_000,
                        procs: int = 100) -> dict:
    """Events/sec: ``procs`` processes each yielding timeouts."""
    from ..sim import Simulator

    sim = Simulator()
    per_proc = total_yields // procs

    def worker():
        timeout = sim.timeout
        for _ in range(per_proc):
            yield timeout(1.0)

    for _ in range(procs):
        sim.spawn(worker())
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    yields = per_proc * procs
    return {
        "yields": yields,
        "wall_s": round(wall, 4),
        "events_per_sec": round(yields / wall, 1),
    }


def bench_kernel_wakeups(total_yields: int = 100_000) -> dict:
    """Events/sec for the event/succeed ping-pong (Store-style wakeups)."""
    from ..sim import Simulator

    sim = Simulator()
    box = {"ev": None}

    def producer():
        for _ in range(total_yields):
            yield sim.timeout(1.0)
            if box["ev"] is not None:
                box["ev"].succeed("item")
                box["ev"] = None

    def consumer():
        while True:
            box["ev"] = sim.event()
            got = yield box["ev"]
            if got is None:  # pragma: no cover - defensive
                return

    sim.spawn(producer())
    sim.spawn(consumer())
    t0 = time.perf_counter()
    sim.run(until=total_yields + 1.0)
    wall = time.perf_counter() - t0
    return {
        "yields": total_yields,
        "wall_s": round(wall, 4),
        "events_per_sec": round(2 * total_yields / wall, 1),
    }


_LOOP_ITERS = 20_000
_LOOP_ENTRY = 0x100


def _loop_program():
    """A 7-instruction ALU/branch loop, ``_LOOP_ITERS`` iterations."""
    from ..lanai import isa

    Ins = isa.Instruction
    ops = isa.BY_MNEMONIC
    words = [
        Ins(ops["addi"], rd=1, ra=0, imm=_LOOP_ITERS),   # r1 = N
        # loop:
        Ins(ops["addi"], rd=2, ra=2, imm=1),             # r2 += 1
        Ins(ops["xor"], rd=3, ra=2, rb=1),
        Ins(ops["add"], rd=4, ra=3, rb=2),
        Ins(ops["sub"], rd=5, ra=4, rb=3),
        Ins(ops["slt"], rd=6, ra=5, rb=1),
        Ins(ops["addi"], rd=1, ra=1, imm=-1),            # r1 -= 1
        Ins(ops["bne"], ra=1, rb=0, imm=-7),             # -> loop
        Ins(ops["jr"], ra=15),                           # return
    ]
    return [isa.encode(w) for w in words]


def bench_lanai_interpreter(repeats: int = 3) -> dict:
    """Interpreted instructions/sec on a steady-state firmware loop."""
    from ..hw.sram import Sram
    from ..lanai.bus import MemoryBus
    from ..lanai.cpu import LanaiCpu
    from ..sim import Simulator

    sim = Simulator()
    sram = Sram(64 * 1024)
    sram.write_words(_LOOP_ENTRY, _loop_program())
    cpu = LanaiCpu(sim, MemoryBus(sram))

    executed = 0
    t0 = time.perf_counter()
    for _ in range(repeats):
        outcomes = []

        def run():
            outcome = yield from cpu.run_routine(_LOOP_ENTRY,
                                                 fuel=10 * _LOOP_ITERS)
            outcomes.append(outcome)

        sim.spawn(run())
        sim.run()
        assert outcomes and outcomes[0].status == "done", outcomes
        executed += outcomes[0].instructions
    wall = time.perf_counter() - t0
    return {
        "instructions": executed,
        "wall_s": round(wall, 4),
        "instr_per_sec": round(executed / wall, 1),
    }


class _HopSink:
    """A host stand-in at a fabric edge: accepts and counts arrivals."""

    def __init__(self, sim, node_id: int):
        self.sim = sim
        self.node_id = node_id
        self.name = "sink%d" % node_id
        self.link = None
        self.received = 0

    def deliver_packet(self, packet) -> bool:
        self.received += 1
        return True


def bench_fabric_hops(nodes: int = 64, radix: int = 8,
                      packets_per_node: int = 100,
                      nbytes: int = 1024) -> dict:
    """Hops/sec through a 3-tier fat-tree: links and switches alone.

    Every host stand-in queues ``packets_per_node`` packets at time 0
    for the host half the fabric away, which is always in another pod:
    five switch hops and six wire hops per packet.  Successive packets
    of a source take successive core paths, so uplinks and core ports
    carry interleaved flows and output ports contend.  Only the event
    loop is timed; packets are built before the clock starts.  ``hops``
    is ``link.packets_carried`` summed over the fabric (the ``net.hops``
    of hostbench).
    """
    from ..net import Fabric, Packet, PacketType
    from ..net.fabric import fat_tree_dimensions
    from ..payload import Payload
    from ..sim import Simulator

    half, _ = fat_tree_dimensions(nodes, radix)
    per_pod = half * half
    if nodes % (2 * per_pod):
        raise ValueError("%d hosts do not split into two halves of whole "
                         "radix-%d pods" % (nodes, radix))
    sim = Simulator()
    fabric = Fabric(sim)
    sinks = [_HopSink(sim, i) for i in range(nodes)]
    fabric.fat_tree(sinks, nports=radix)
    sends = []
    for src in range(nodes):
        dst = (src + nodes // 2) % nodes
        dst_edge = dst // half
        for k in range(packets_per_node):
            agg, core = k % half, (k // half) % half
            route = [half + agg, half + core, dst_edge // half,
                     dst_edge % half, dst % half]
            sends.append((fabric.nic_ports[src], Packet(
                ptype=PacketType.DATA, src_node=src, dest_node=dst,
                route=route, payload=Payload.phantom(nbytes, tag=src))
                .seal()))
    t0 = time.perf_counter()
    for port, packet in sends:
        port.transmit(packet)
    sim.run()
    wall = time.perf_counter() - t0
    hops = sum(link.packets_carried for link in fabric.links)
    delivered = sum(sink.received for sink in sinks)
    if delivered != len(sends):
        raise RuntimeError("fabric lost %d of %d packets"
                           % (len(sends) - delivered, len(sends)))
    return {
        "nodes": nodes,
        "radix": radix,
        "packets": len(sends),
        "hops": hops,
        "events": next(sim._seq),
        "sim_us": round(sim.now, 3),
        "wall_s": round(wall, 4),
        "hops_per_sec": round(hops / wall, 1),
    }


def bench_campaign(runs: int = 200, workers: int = 1, seed: int = 2003,
                   messages: int = 16) -> dict:
    """Wall clock of a Table 1 campaign (the paper-scale workload)."""
    from ..faults import run_campaign

    t0 = time.perf_counter()
    result = run_campaign(runs=runs, seed=seed, messages=messages,
                          workers=workers)
    wall = time.perf_counter() - t0
    return {
        "runs": runs,
        "workers": workers,
        "wall_s": round(wall, 3),
        "runs_per_sec": round(runs / wall, 3),
        "counts": dict(result.counts),
    }


def bench_netfaults(runs_per_scenario: int = 1, workers: int = 1,
                    nodes: int = 4) -> dict:
    """Wall clock of the §6 network-fault campaign."""
    from .registry import get_experiment
    from .runner import run_experiment

    experiment = get_experiment("netfaults")
    spec = experiment.build_spec({"runs_per_scenario": runs_per_scenario,
                                  "nodes": nodes})
    t0 = time.perf_counter()
    result = run_experiment(spec, workers=workers)
    wall = time.perf_counter() - t0
    counts = {scenario: sum(row.values())
              for scenario, row in result.summary["counts"].items()}
    return {
        "runs": spec.runs,
        "workers": workers,
        "nodes": nodes,
        "wall_s": round(wall, 3),
        "runs_per_sec": round(spec.runs / wall, 3),
        "scenario_runs": counts,
    }


def bench_loadgen(clients: int = 8, nodes: int = 4,
                  peak_rate: float = 4_000.0,
                  duration_us: float = 400_000.0) -> dict:
    """Load-generator throughput: schedule expansion + one driven run.

    Reports the pure :func:`~repro.load.generator.build_schedule`
    expansion rate and the end-to-end offered-message rate of driving
    that schedule through a booted FTGM cluster (the load plane's unit
    of work in an ``slo-chaos`` cell).
    """
    from ..cluster import build_cluster
    from ..load.generator import LoadConfig, build_schedule, run_load

    config = LoadConfig(seed=2003, n_nodes=nodes, clients=clients,
                        peak_rate=peak_rate, duration_us=duration_us,
                        drain_us=200_000.0)
    t0 = time.perf_counter()
    schedule = build_schedule(config)
    schedule_wall = time.perf_counter() - t0
    cluster = build_cluster(n_nodes=nodes, flavor="ftgm")
    t1 = time.perf_counter()
    result = run_load(cluster, config, schedule=schedule)
    drive_wall = time.perf_counter() - t1
    offered = len(schedule.ops)
    return {
        "clients": clients,
        "nodes": nodes,
        "offered_msgs": offered,
        "delivered_msgs": len(result.first_delivery),
        "schedule_wall_s": round(schedule_wall, 4),
        "schedule_msgs_per_sec": round(offered / schedule_wall, 1),
        "drive_wall_s": round(drive_wall, 3),
        "driven_msgs_per_sec": round(offered / drive_wall, 1),
    }


def bench_slo_chaos(runs_per_cell: int = 1, workers: int = 1) -> dict:
    """Wall clock of the full 10-cell SLO-graded chaos campaign."""
    from .registry import get_experiment
    from .runner import run_experiment

    experiment = get_experiment("slo-chaos")
    spec = experiment.build_spec({"runs_per_cell": runs_per_cell})
    t0 = time.perf_counter()
    result = run_experiment(spec, workers=workers)
    wall = time.perf_counter() - t0
    return {
        "runs": spec.runs,
        "workers": workers,
        "wall_s": round(wall, 3),
        "runs_per_sec": round(spec.runs / wall, 3),
        "verdicts": dict(result.summary["verdicts"]),
    }


def bench_fabric_scaling(sizes=(8, 64, 128, 256), radix: int = 8,
                         idle_us: float = 1_000_000.0) -> dict:
    """Boot+map+idle wall clock as the fabric scales (the lazy-model win).

    Each point builds an FTGM cluster (the paper's single-switch star at
    8 nodes, a three-tier fat-tree above), boots and maps it, then runs
    the simulation one simulated second with nothing to do.  Above the
    lazy auto-threshold every idle MCP parks off the event wheel, so the
    idle leg of a 256-node fabric costs (near) nothing and the
    boot+map+idle total stays within ~10x of the 8-node cluster instead
    of scaling with ``nodes x housekeeping ticks``.

    Every cluster is released (and the cyclic GC run) before the next
    point, and the cyclic collector is paused *during* each point: a
    256-node boot allocates half a gigabyte of SRAM images, and with a
    big ambient heap (say, after a 200-run campaign in the same
    process) the collector would otherwise fire hundreds of times
    mid-boot and charge that heap's scanning cost to this benchmark.
    """
    import gc

    from ..cluster import build_cluster

    points = {}
    for n in sizes:
        topology = "star" if n <= 8 else "fat-tree"
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            cluster = build_cluster(
                n, flavor="ftgm", seed=2003, topology=topology,
                radix=radix if topology == "fat-tree" else None)
            t1 = time.perf_counter()
            cluster.sim.run(until=cluster.sim.now + idle_us)
            t2 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        parked = sum(1 for node in cluster.nodes
                     if getattr(node.driver.mcp, "_parked", False))
        points[str(n)] = {
            "nodes": n,
            "topology": topology,
            "boot_wall_s": round(t1 - t0, 4),
            "idle_wall_s": round(t2 - t1, 4),
            "total_wall_s": round(t2 - t0, 4),
            "parked_nodes": parked,
        }
        del cluster
    base = points[str(sizes[0])]["total_wall_s"] or 1e-9
    for point in points.values():
        point["ratio_vs_%d" % sizes[0]] = round(
            point["total_wall_s"] / base, 2)
    return {
        "idle_sim_us": idle_us,
        "radix": radix,
        "points": points,
    }


def bench_closfault(runs_per_cell: int = 1, workers: int = 1,
                    nodes: int = 64, radix: int = 8,
                    scale: str = "full") -> dict:
    """Wall clock of the correlated-fault campaign on a fat-tree fabric.

    The large-fabric analogue of :func:`bench_netfaults`: compound
    scenarios (rack loss, spine loss, cascades, repair flaps) on a
    multi-tier fabric, dominated by the 3-tier boot+map and the
    detector-driven recovery rather than by raw packet counts.
    """
    from .registry import get_experiment
    from .runner import run_experiment

    experiment = get_experiment("closfault")
    spec = experiment.build_spec({"runs_per_cell": runs_per_cell,
                                  "nodes": nodes, "radix": radix,
                                  "scale": scale})
    t0 = time.perf_counter()
    result = run_experiment(spec, workers=workers)
    wall = time.perf_counter() - t0
    counts = {scenario: sum(row.values())
              for scenario, row in result.summary["counts"].items()}
    return {
        "runs": spec.runs,
        "workers": workers,
        "nodes": nodes,
        "radix": radix,
        "wall_s": round(wall, 3),
        "runs_per_sec": round(spec.runs / wall, 3),
        "scenario_runs": counts,
    }


def bench_snapshot(sizes=(8, 64, 256), at_us: float = 4_000.0) -> dict:
    """Snapshot/restore cost vs fabric size (the ckpt layer's price tag).

    Each point pauses run 0 of a one-cell closfault spec at ``at_us``,
    captures the canonical state, then restores it from the in-memory
    snapshot (boot + prefix replay + verifying re-capture) — the two
    legs of the ``repro snapshot`` / ``--from-snapshot`` workflow.
    ``state_bytes`` is the canonical-JSON size of the hashed state
    section, i.e. what a snapshot file costs on disk before the recipe.
    """
    from ..ckpt.capture import canonical_json
    from ..ckpt.snapshot import restore_snapshot, take_snapshot
    from .registry import get_experiment

    experiment = get_experiment("closfault")
    points = {}
    for n in sizes:
        spec = experiment.build_spec({
            "scale": "small", "nodes": n,
            "radix": 4 if n <= 16 else 8})
        t0 = time.perf_counter()
        snapshot = take_snapshot(spec, at_us, run_index=0)
        t1 = time.perf_counter()
        restore_snapshot(snapshot)
        t2 = time.perf_counter()
        points[str(n)] = {
            "nodes": n,
            "snapshot_wall_s": round(t1 - t0, 4),
            "restore_wall_s": round(t2 - t1, 4),
            "state_bytes": len(canonical_json(snapshot.capture["state"])),
            "state_hash": snapshot.state_hash[:16],
        }
    return {"at_us": at_us, "points": points}


def _best(bench, rate_key: str, samples: int = 3) -> dict:
    """Best-of-N: the machine's fastest run is its least-disturbed one."""
    results = [bench() for _ in range(samples)]
    best = max(results, key=lambda r: r[rate_key])
    best["samples"] = samples
    return best


def run_bench(config: Dict[str, Any]) -> dict:
    """Run one named benchmark (the engine's per-run function).

    ``config``: ``{"bench": <BENCH_NAMES entry>, "quick": bool,
    "campaign_runs": int, "campaign_workers": int}``.
    """
    name = config["bench"]
    quick = bool(config.get("quick", False))
    scale = 10 if quick else 1
    samples = 1 if quick else 3
    if name == "kernel_timeouts":
        return _best(lambda: bench_kernel_events(200_000 // scale),
                     "events_per_sec", samples)
    if name == "kernel_wakeups":
        return _best(lambda: bench_kernel_wakeups(100_000 // scale),
                     "events_per_sec", samples)
    if name == "lanai_interpreter":
        return _best(lambda: bench_lanai_interpreter(
            repeats=1 if quick else 3), "instr_per_sec", samples)
    if name == "fabric_hops":
        return _best(lambda: bench_fabric_hops(
            nodes=32 if quick else 64), "hops_per_sec", samples)
    if name == "campaign":
        return bench_campaign(config.get("campaign_runs", 200),
                              config.get("campaign_workers", 1))
    if name == "snapshot":
        return bench_snapshot(sizes=(8,) if quick else (8, 64, 256))
    raise ValueError("unknown benchmark %r (have: %s)"
                     % (name, ", ".join(BENCH_NAMES)))


def environment_info() -> Dict[str, Any]:
    info: Dict[str, Any] = {
        "python": "%d.%d.%d" % sys.version_info[:3]}
    try:
        info["cpus"] = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        info["cpus"] = os.cpu_count()
    return info


def run_all(campaign_runs: int = 200, workers: int = 1,
            quick: bool = False) -> dict:
    results = {
        name: run_bench({"bench": name, "quick": quick,
                         "campaign_runs": campaign_runs,
                         "campaign_workers": workers})
        for name in BENCH_NAMES
    }
    results.update(environment_info())
    return results


def render_results(results: Dict[str, Any]) -> str:
    lines = []
    for name in ("kernel_timeouts", "kernel_wakeups"):
        lines.append("%-18s %12.0f events/sec"
                     % (name, results[name]["events_per_sec"]))
    lines.append("%-18s %12.0f instr/sec"
                 % ("lanai_interpreter",
                    results["lanai_interpreter"]["instr_per_sec"]))
    hops = results.get("fabric_hops")
    if hops:
        lines.append("%-18s %12.0f hops/sec (%d nodes, %d packets)"
                     % ("fabric_hops", hops["hops_per_sec"], hops["nodes"],
                        hops["packets"]))
    campaign = results["campaign"]
    lines.append("%-18s %12.2f runs/sec (%d runs, workers=%d, %.1fs)"
                 % ("campaign", campaign["runs_per_sec"],
                    campaign["runs"], campaign["workers"],
                    campaign["wall_s"]))
    snapshot = results.get("snapshot")
    if snapshot:
        for point in snapshot["points"].values():
            lines.append(
                "%-18s %4d nodes: snapshot %.2fs, restore %.2fs, "
                "%.1f KiB state"
                % ("snapshot", point["nodes"], point["snapshot_wall_s"],
                   point["restore_wall_s"], point["state_bytes"] / 1024.0))
    return "\n".join(lines)
