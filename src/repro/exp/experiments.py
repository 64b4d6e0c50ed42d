"""Every experiment of the evaluation, registered declaratively.

Each ``register(Experiment(...))`` below replaces what used to be a
hand-built CLI subcommand plus its own ad-hoc fan-out loop: the SWIFI
campaigns (Table 1, §5.2 effectiveness, fault surface), the netfault
sweep, the GM-vs-FTGM metric and figure benchmarks (Tables 2/3,
Figs. 4/5/7/8/9) and the perf microbenchmarks.  The shared machinery —
spec expansion, process-pool fan-out, journaling/resume, manifests —
lives in :mod:`repro.exp.runner`; this module only declares *what* each
experiment runs and how its outcomes aggregate and render.

All ``run_one`` functions are picklable module-level callables so every
experiment parallelizes over :func:`repro.exp.runner.run_many`.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List

from ..faults.campaign import (
    CampaignResult,
    aggregate_effectiveness,
)
from ..faults.injector import (
    InjectionConfig,
    boot_injection,
    resume_injection,
    run_injection,
)
from ..faults.outcomes import InjectionOutcome
from ..faults.surface import analyze_surface
from ..load.chaos import (
    SLO_SCENARIOS,
    SloChaosCampaignResult,
    SloChaosConfig,
    SloChaosOutcome,
    boot_slo_chaos,
    resume_slo_chaos,
    run_slo_chaos,
)
from ..load.profiles import PROFILE_NAMES
from ..load.slo import SloSpec
from ..netfaults.campaign import (
    NET_SCENARIOS,
    NetFaultCampaignResult,
    NetFaultConfig,
    NetFaultOutcome,
    boot_netfault,
    resume_netfault,
    run_netfault_injection,
)
from ..netfaults.clos import (
    CLOS_SCENARIOS,
    ClosFaultCampaignResult,
    ClosFaultConfig,
    boot_closfault,
    cross_fabric_pairs,
    resume_closfault,
    run_closfault_injection,
)
from ..workloads.allsize import BandwidthResult
from ..workloads.pingpong import PingPongResult
from ..workloads.recovery import RecoveryExperiment
from ..workloads.utilization import UtilizationResult
from .registry import Experiment, Option, register
from .results import typed_decoder
from .runner import derive_run_seed
from .spec import (
    ClusterSpec,
    ExperimentSpec,
    FaultSpec,
    ScenarioSpec,
    WorkloadSpec,
    freeze_params,
    thaw_params,
)

__all__: List[str] = []      # everything is reached through the registry


def _get(params: Dict[str, Any], key: str, default: Any) -> Any:
    value = params.get(key)
    return default if value is None else value


def _identity(rendered: str) -> str:
    return rendered


# -- checkpoint hooks ----------------------------------------------------------
#
# ``pause`` runs a booted run to a simulated instant and hands back a
# PausedRun (the hook behind ``repro snapshot``).  Module-level defs,
# like every other registered callable.


def _injection_pause(state, config, at):
    return resume_injection(state, config, pause_at=at)


def _netfault_pause(state, config, at):
    return resume_netfault(state, config, pause_at=at)


def _closfault_pause(state, config, at):
    return resume_closfault(state, config, pause_at=at)


def _slo_chaos_pause(state, config, at):
    return resume_slo_chaos(state, config, pause_at=at)


# -- SWIFI campaigns: table1 / effectiveness / surface -------------------------


def _swifi_spec(name: str, params: Dict[str, Any], *, flavor: str,
                default_runs: int, small_runs: int,
                default_seed: int) -> ExperimentSpec:
    # --scale small shrinks the default campaign for smoke tests and CI;
    # an explicit --runs always wins, and the default "full" scale keeps
    # the spec byte-identical to the pre---scale era.
    scale = _get(params, "scale", "full")
    runs = _get(params, "runs",
                small_runs if scale == "small" else default_runs)
    seed = _get(params, "seed", default_seed)
    messages = _get(params, "messages", 16)
    return ExperimentSpec(
        experiment=name, seed=seed, runs=runs,
        scenarios=(ScenarioSpec(
            name="send_chunk-bitflip", runs=runs,
            cluster=ClusterSpec(n_nodes=2, flavor=flavor,
                                interpreted_nodes=(0,)),
            workload=WorkloadSpec(kind="stream", messages=messages,
                                  message_bytes=256),
            fault=FaultSpec(kind="bitflip",
                            params=freeze_params(
                                {"section": "send_chunk"}))),),
        params=freeze_params({"flavor": flavor, "messages": messages}))


def _swifi_expand(spec: ExperimentSpec) -> List[InjectionConfig]:
    flavor = spec.param("flavor", "gm")
    messages = spec.param("messages", 16)
    return [InjectionConfig(run_id=run_id,
                            seed=derive_run_seed(spec.seed, run_id),
                            flavor=flavor, messages=messages)
            for run_id in range(spec.runs)]


def _campaign_aggregate(spec: ExperimentSpec,
                        outcomes: List[InjectionOutcome]) -> CampaignResult:
    return CampaignResult(spec.runs, outcomes)


def _campaign_summary(result: CampaignResult) -> Dict[str, Any]:
    return {"runs": result.runs, "counts": dict(result.counts)}


register(Experiment(
    name="table1",
    help="fault-injection campaign",
    build_spec=lambda params: _swifi_spec("table1", params, flavor="gm",
                                          default_runs=150, small_runs=12,
                                          default_seed=2003),
    expand=_swifi_expand,
    run_one=run_injection,
    aggregate=_campaign_aggregate,
    render=CampaignResult.render,
    decode=typed_decoder(InjectionOutcome),
    summarize=_campaign_summary,
    options=(Option("runs", "--runs", int, None,
                    "injection runs (default 150; 12 at --scale small)"),
             Option("seed", "--seed", int, 2003, "campaign base seed"),
             Option("scale", "--scale", str, "full",
                    "campaign size; 'small' trims the default runs "
                    "for smoke tests (explicit --runs wins)",
                    ("small", "full"))),
    progress_every=25,
    progress_fmt="  ... %d/%d runs",
    boot=boot_injection,
    resume=resume_injection,
    pause=_injection_pause,
))


def _effectiveness_aggregate(spec, outcomes):
    return aggregate_effectiveness(spec.runs, outcomes)


register(Experiment(
    name="effectiveness",
    help="FTGM recovery coverage (section 5.2)",
    build_spec=lambda params: _swifi_spec("effectiveness", params,
                                          flavor="ftgm",
                                          default_runs=80, small_runs=10,
                                          default_seed=7001),
    expand=_swifi_expand,
    run_one=run_injection,
    aggregate=_effectiveness_aggregate,
    render=lambda result: result.render(),
    decode=typed_decoder(InjectionOutcome),
    summarize=asdict,
    options=(Option("runs", "--runs", int, None,
                    "injection runs (default 80; 10 at --scale small)"),
             Option("seed", "--seed", int, 7001, "campaign base seed"),
             Option("scale", "--scale", str, "full",
                    "campaign size; 'small' trims the default runs "
                    "for smoke tests (explicit --runs wins)",
                    ("small", "full"))),
    boot=boot_injection,
    resume=resume_injection,
    pause=_injection_pause,
))


def _surface_aggregate(spec, outcomes):
    return CampaignResult(spec.runs, outcomes), analyze_surface(outcomes)


def _surface_render(aggregate) -> str:
    campaign, report = aggregate
    return campaign.render() + "\n\n" + report.render()


def _surface_summary(aggregate) -> Dict[str, Any]:
    campaign, report = aggregate
    return {"runs": campaign.runs, "counts": dict(campaign.counts),
            "fields": {name: dict(row)
                       for name, row in report.table.items()}}


register(Experiment(
    name="surface",
    help="fault outcomes by corrupted instruction field",
    build_spec=lambda params: _swifi_spec("surface", params, flavor="gm",
                                          default_runs=150, small_runs=12,
                                          default_seed=6007),
    expand=_swifi_expand,
    run_one=run_injection,
    aggregate=_surface_aggregate,
    render=_surface_render,
    decode=typed_decoder(InjectionOutcome),
    summarize=_surface_summary,
    options=(Option("runs", "--runs", int, None,
                    "injection runs (default 150; 12 at --scale small)"),
             Option("seed", "--seed", int, 6007, "campaign base seed"),
             Option("scale", "--scale", str, "full",
                    "campaign size; 'small' trims the default runs "
                    "for smoke tests (explicit --runs wins)",
                    ("small", "full"))),
    boot=boot_injection,
    resume=resume_injection,
    pause=_injection_pause,
))


# -- netfaults: link/switch fault sweep ----------------------------------------


def _netfaults_spec(params: Dict[str, Any]) -> ExperimentSpec:
    scenarios = tuple(_get(params, "scenarios", NET_SCENARIOS))
    runs_per_scenario = _get(params, "runs_per_scenario", 5)
    n_nodes = _get(params, "nodes", 4)
    topology = _get(params, "topology", "ring")
    messages = _get(params, "messages", 12)
    return ExperimentSpec(
        experiment="netfaults",
        seed=_get(params, "seed", 2003),
        runs=runs_per_scenario * len(scenarios),
        scenarios=tuple(ScenarioSpec(
            name=scenario, runs=runs_per_scenario,
            cluster=ClusterSpec(n_nodes=n_nodes, flavor="ftgm",
                                topology=topology, n_switches=2),
            workload=WorkloadSpec(kind="cross-pairs", messages=messages,
                                  message_bytes=512),
            fault=FaultSpec(kind=scenario))
            for scenario in scenarios))


def _netfaults_expand(spec: ExperimentSpec) -> List[NetFaultConfig]:
    configs: List[NetFaultConfig] = []
    run_id = 0
    for scenario in spec.scenarios:
        for _ in range(scenario.runs):
            configs.append(NetFaultConfig(
                run_id=run_id,
                seed=derive_run_seed(spec.seed, run_id),
                scenario=scenario.fault.kind,
                n_nodes=scenario.cluster.n_nodes,
                topology=scenario.cluster.topology,
                messages=scenario.workload.messages))
            run_id += 1
    return configs


def _netfaults_aggregate(spec, outcomes) -> NetFaultCampaignResult:
    return NetFaultCampaignResult(spec.seed, outcomes)


def _netfaults_summary(result: NetFaultCampaignResult) -> Dict[str, Any]:
    return {"counts": {scenario: dict(row)
                       for scenario, row in result.counts.items()}}


register(Experiment(
    name="netfaults",
    help="link/switch fault campaign with reroute recovery",
    build_spec=_netfaults_spec,
    expand=_netfaults_expand,
    run_one=run_netfault_injection,
    aggregate=_netfaults_aggregate,
    render=NetFaultCampaignResult.render,
    decode=typed_decoder(NetFaultOutcome),
    summarize=_netfaults_summary,
    options=(Option("runs_per_scenario", "--runs-per-scenario", int, 5,
                    "runs per scenario (default 5)",
                    legacy_flag="--runs"),
             Option("seed", "--seed", int, 2003, "campaign base seed"),
             Option("nodes", "--nodes", int, 4, "cluster size"),
             Option("topology", "--topology", str, "ring",
                    "fabric shape", choices=("ring", "tree"))),
    progress_every=4,
    progress_fmt="  ... %d runs done",
    boot=boot_netfault,
    resume=resume_netfault,
    pause=_netfault_pause,
))


# -- closfault: correlated faults on Clos/fat-tree fabrics ---------------------


def _closfault_spec(params: Dict[str, Any]) -> ExperimentSpec:
    # --scale small trims the grid to the CI smoke cell: one scenario,
    # FTGM only (explicit options win, as everywhere).
    scale = _get(params, "scale", "full")
    small = scale == "small"
    scenarios = tuple(_get(params, "scenarios",
                           ["rack-loss"] if small else CLOS_SCENARIOS))
    flavors: tuple = ("ftgm",) if small else ("ftgm", "gm")
    runs_per_cell = _get(params, "runs_per_cell", 1)
    n_nodes = _get(params, "nodes", 16)
    topology = _get(params, "topology", "fat-tree")
    radix = _get(params, "radix", 4)
    messages = _get(params, "messages", 6)
    n_pairs = _get(params, "pairs", 2)
    return ExperimentSpec(
        experiment="closfault",
        seed=_get(params, "seed", 2003),
        runs=runs_per_cell * len(scenarios) * len(flavors),
        scenarios=tuple(ScenarioSpec(
            name="%s/%s" % (scenario, flavor), runs=runs_per_cell,
            cluster=ClusterSpec(n_nodes=n_nodes, flavor=flavor,
                                topology=topology, n_switches=2,
                                radix=radix),
            workload=WorkloadSpec(kind="cross-fabric-pairs",
                                  messages=messages, message_bytes=512,
                                  params=freeze_params(
                                      {"pairs": n_pairs})),
            fault=FaultSpec(kind=scenario))
            for scenario in scenarios for flavor in flavors))


def _closfault_expand(spec: ExperimentSpec) -> List[ClosFaultConfig]:
    configs: List[ClosFaultConfig] = []
    run_id = 0
    for scenario in spec.scenarios:
        flavor = scenario.name.split("/")[1]
        cluster = scenario.cluster
        pairs = cross_fabric_pairs(
            cluster.n_nodes, topology=cluster.topology,
            radix=cluster.radix or 8, n_spines=cluster.n_switches or 2,
            n_pairs=thaw_params(scenario.workload.params).get("pairs", 2))
        for _ in range(scenario.runs):
            configs.append(ClosFaultConfig(
                run_id=run_id,
                seed=derive_run_seed(spec.seed, run_id),
                scenario=scenario.name,
                flavor=flavor,
                n_nodes=cluster.n_nodes,
                topology=cluster.topology,
                n_switches=cluster.n_switches,
                radix=cluster.radix,
                pairs=tuple(pairs),
                messages=scenario.workload.messages))
            run_id += 1
    return configs


def _closfault_aggregate(spec, outcomes) -> ClosFaultCampaignResult:
    return ClosFaultCampaignResult(spec.seed, outcomes)


def _closfault_summary(result: ClosFaultCampaignResult) -> Dict[str, Any]:
    return {"counts": {cell: dict(row)
                       for cell, row in result.counts.items()}}


register(Experiment(
    name="closfault",
    help="correlated fault campaign on a Clos/fat-tree fabric, "
         "FT on vs off",
    build_spec=_closfault_spec,
    expand=_closfault_expand,
    run_one=run_closfault_injection,
    aggregate=_closfault_aggregate,
    render=ClosFaultCampaignResult.render,
    decode=typed_decoder(NetFaultOutcome),
    summarize=_closfault_summary,
    options=(Option("runs_per_cell", "--runs-per-cell", int, 1,
                    "runs per scenario x flavor cell (default 1)",
                    legacy_flag="--runs"),
             Option("seed", "--seed", int, 2003, "campaign base seed"),
             Option("nodes", "--nodes", int, 16, "cluster size"),
             Option("radix", "--radix", int, 4,
                    "switch port count of the generated fabric"),
             Option("topology", "--topology", str, "fat-tree",
                    "fabric shape", choices=("fat-tree", "clos")),
             Option("pairs", "--pairs", int, 2,
                    "cross-fabric workload pairs"),
             Option("messages", "--messages", int, 6,
                    "messages per directed pair"),
             Option("scale", "--scale", str, "full",
                    "grid size; 'small' keeps rack-loss/ftgm only "
                    "(explicit options win)", ("small", "full"))),
    progress_every=2,
    progress_fmt="  ... %d/%d runs",
    boot=boot_closfault,
    resume=resume_closfault,
    pause=_closfault_pause,
))


# -- slo-chaos: SLO-graded load plane with netfault overlay --------------------


def _slo_chaos_spec(params: Dict[str, Any]) -> ExperimentSpec:
    # --scale small shrinks the sweep to the control cell plus one fault
    # scenario over a shorter profile (CI smoke); explicit options win.
    scale = _get(params, "scale", "full")
    small = scale == "small"
    scenarios = tuple(_get(params, "scenarios",
                           ["baseline", "link-cut"] if small
                           else SLO_SCENARIOS))
    runs_per_cell = _get(params, "runs_per_cell", 1)
    n_nodes = _get(params, "nodes", 4)
    topology = _get(params, "topology", "ring")
    clients = _get(params, "clients", 4 if small else 8)
    profile = _get(params, "profile", "staged-ramp")
    peak_rate = _get(params, "peak_rate", 800.0 if small else 1_500.0)
    duration_us = _get(params, "duration_us",
                       120_000.0 if small else 400_000.0)
    return ExperimentSpec(
        experiment="slo-chaos",
        seed=_get(params, "seed", 2003),
        runs=runs_per_cell * len(scenarios) * 2,
        scenarios=tuple(ScenarioSpec(
            name="%s/%s" % (scenario, flavor), runs=runs_per_cell,
            cluster=ClusterSpec(n_nodes=n_nodes, flavor=flavor,
                                topology=topology, n_switches=2),
            workload=WorkloadSpec(
                kind="open-loop", messages=0, message_bytes=0,
                params=freeze_params({
                    "clients": clients, "profile": profile,
                    "peak_rate": peak_rate,
                    "duration_us": duration_us})),
            fault=FaultSpec(kind=scenario))
            for scenario in scenarios for flavor in ("ftgm", "gm")),
        params=freeze_params({"slo": SloSpec().to_dict()}))


def _slo_chaos_expand(spec: ExperimentSpec) -> List[SloChaosConfig]:
    slo = SloSpec.from_dict(spec.param("slo", {}))
    configs: List[SloChaosConfig] = []
    run_id = 0
    for scenario in spec.scenarios:
        load = thaw_params(scenario.workload.params)
        for _ in range(scenario.runs):
            configs.append(SloChaosConfig(
                run_id=run_id,
                seed=derive_run_seed(spec.seed, run_id),
                scenario=scenario.fault.kind,
                flavor=scenario.cluster.flavor,
                n_nodes=scenario.cluster.n_nodes,
                topology=scenario.cluster.topology,
                n_switches=scenario.cluster.n_switches,
                clients=load.get("clients", 8),
                profile=load.get("profile", "staged-ramp"),
                peak_rate=load.get("peak_rate", 1_500.0),
                duration_us=load.get("duration_us", 400_000.0),
                slo=slo))
            run_id += 1
    return configs


def _slo_chaos_aggregate(spec, outcomes) -> SloChaosCampaignResult:
    return SloChaosCampaignResult(spec.seed, outcomes)


def _slo_chaos_summary(result: SloChaosCampaignResult) -> Dict[str, Any]:
    return {"verdicts": {cell: "pass" if all(r.verdict.passed
                                             for r in runs) else "fail"
                         for cell, runs in sorted(result.by_cell.items())}}


register(Experiment(
    name="slo-chaos",
    help="SLO-graded chaos: netfaults over open-loop load, FT on vs off",
    build_spec=_slo_chaos_spec,
    expand=_slo_chaos_expand,
    run_one=run_slo_chaos,
    aggregate=_slo_chaos_aggregate,
    render=SloChaosCampaignResult.render,
    decode=typed_decoder(SloChaosOutcome),
    summarize=_slo_chaos_summary,
    options=(Option("runs_per_cell", "--runs-per-cell", int, 1,
                    "runs per scenario x flavor cell (default 1)"),
             Option("seed", "--seed", int, 2003, "campaign base seed"),
             Option("nodes", "--nodes", int, 4, "cluster size"),
             Option("topology", "--topology", str, "ring",
                    "fabric shape", choices=("ring", "tree")),
             Option("clients", "--clients", int, None,
                    "load clients (default 8; 4 at --scale small)"),
             Option("peak_rate", "--peak-rate", float, None,
                    "plateau offered rate, msgs/s "
                    "(default 1500; 800 at --scale small)"),
             Option("profile", "--profile", str, "staged-ramp",
                    "load profile shape", choices=PROFILE_NAMES),
             Option("duration_us", "--duration-us", float, None,
                    "profile length in simulated us "
                    "(default 400000; 120000 at --scale small)"),
             Option("scale", "--scale", str, "full",
                    "sweep size; 'small' trims scenarios and profile "
                    "for smoke tests (explicit options win)",
                    ("small", "full"))),
    progress_every=2,
    progress_fmt="  ... %d/%d runs",
    boot=boot_slo_chaos,
    resume=resume_slo_chaos,
    pause=_slo_chaos_pause,
))


# -- table2: GM vs FTGM metric matrix ------------------------------------------

_TABLE2_TASKS = ("bandwidth/gm", "bandwidth/ftgm", "latency/gm",
                 "latency/ftgm", "util/gm", "util/ftgm")


def _table2_spec(params: Dict[str, Any]) -> ExperimentSpec:
    iterations = _get(params, "iterations", 25)
    return ExperimentSpec(
        experiment="table2", seed=0, runs=len(_TABLE2_TASKS),
        scenarios=tuple(ScenarioSpec(
            name=task, runs=1,
            cluster=ClusterSpec(n_nodes=2, flavor=task.split("/")[1]),
            workload=WorkloadSpec(kind=task.split("/")[0]))
            for task in _TABLE2_TASKS),
        params=freeze_params({"iterations": iterations}))


def _table2_expand(spec: ExperimentSpec) -> List[Dict[str, Any]]:
    iterations = spec.param("iterations", 25)
    return [{"task": task, "iterations": iterations}
            for task in _TABLE2_TASKS]


def _table2_run_one(config: Dict[str, Any]):
    from ..cluster import build_cluster_from_spec
    from ..workloads import measure_utilization, run_allsize, run_pingpong

    kind, flavor = config["task"].split("/")
    if kind == "bandwidth":
        return run_allsize(
            build_cluster_from_spec(ClusterSpec(flavor=flavor)),
            1 << 20, messages=5)
    if kind == "latency":
        return run_pingpong(
            build_cluster_from_spec(ClusterSpec(flavor=flavor)),
            64, iterations=config["iterations"])
    return measure_utilization(flavor, messages=60)


def _table2_aggregate(spec, outcomes):
    from ..analysis import Table2

    return Table2.from_outcomes(outcomes)


def _table2_summary(table) -> Dict[str, Any]:
    return {"rows": [list(row) for row in table.rows()]}


register(Experiment(
    name="table2",
    help="GM vs FTGM metrics",
    build_spec=_table2_spec,
    expand=_table2_expand,
    run_one=_table2_run_one,
    aggregate=_table2_aggregate,
    render=lambda table: table.render(),
    decode=typed_decoder(BandwidthResult, PingPongResult,
                         UtilizationResult),
    summarize=_table2_summary,
    options=(Option("iterations", "--iterations", int, 25,
                    "ping-pong iterations"),),
))


# -- table3 / fig9: controlled recovery experiments ----------------------------

_TABLE3_OFFSETS = (520.0, 610.0, 700.0, 790.0)


def _recovery_spec(name: str, offsets) -> ExperimentSpec:
    return ExperimentSpec(
        experiment=name, seed=0, runs=len(offsets),
        scenarios=tuple(ScenarioSpec(
            name="hang@%gus" % offset, runs=1,
            cluster=ClusterSpec(n_nodes=2, flavor="ftgm"),
            workload=WorkloadSpec(kind="stream", messages=30),
            fault=FaultSpec(kind="mcp-hang", params=freeze_params(
                {"hang_offset_us": offset})))
            for offset in offsets))


def _recovery_expand(spec: ExperimentSpec) -> List[Dict[str, Any]]:
    return [{"hang_offset_us": scenario.fault.params[0][1]}
            for scenario in spec.scenarios]


def _recovery_run_one(config: Dict[str, Any]) -> RecoveryExperiment:
    from ..workloads import run_recovery_experiment

    return run_recovery_experiment(hang_offset_us=config["hang_offset_us"])


def _table3_aggregate(spec, outcomes):
    from ..analysis import Table3

    return Table3.from_experiments(outcomes)


def _table3_summary(table) -> Dict[str, Any]:
    return {"rows": [list(row) for row in table.rows()],
            "total_us": table.total_us}


register(Experiment(
    name="table3",
    help="recovery-time components",
    build_spec=lambda params: _recovery_spec("table3", _TABLE3_OFFSETS),
    expand=_recovery_expand,
    run_one=_recovery_run_one,
    aggregate=_table3_aggregate,
    render=lambda table: table.render(),
    decode=typed_decoder(RecoveryExperiment),
    summarize=_table3_summary,
))


def _fig9_aggregate(spec, outcomes) -> str:
    from ..analysis import recovery_timeline, render_timeline

    experiment = outcomes[0]
    port_done = experiment.record.events_posted_at + experiment.per_port_us
    return render_timeline(recovery_timeline(experiment.fault_at,
                                             experiment.record, port_done))


register(Experiment(
    name="fig9",
    help="recovery timeline",
    build_spec=lambda params: _recovery_spec("fig9", (620.0,)),
    expand=_recovery_expand,
    run_one=_recovery_run_one,
    aggregate=_fig9_aggregate,
    render=_identity,
    decode=typed_decoder(RecoveryExperiment),
))


# -- fig7 / fig8: GM-vs-FTGM sweeps --------------------------------------------

_FIG7_SIZES = (256, 1024, 4096, 4097, 8192, 16384, 65536, 262144, 1048576)
_FIG8_SIZES = (1, 16, 64, 100, 256, 1024, 4096, 16384, 65536)


def _sweep_spec(name: str, sizes, knob: str, value: int) -> ExperimentSpec:
    return ExperimentSpec(
        experiment=name, seed=0, runs=2 * len(sizes),
        scenarios=tuple(ScenarioSpec(
            name=flavor, runs=len(sizes),
            cluster=ClusterSpec(n_nodes=2, flavor=flavor),
            workload=WorkloadSpec(
                kind="allsize" if name == "fig7" else "pingpong",
                params=freeze_params({"sizes": list(sizes), knob: value})))
            for flavor in ("gm", "ftgm")),
        params=freeze_params({knob: value}))


def _sweep_sizes(scenario: ScenarioSpec) -> List[int]:
    return thaw_params(scenario.workload.params)["sizes"]


def _fig7_expand(spec: ExperimentSpec) -> List[Dict[str, Any]]:
    messages = spec.param("messages", 20)
    return [{"series": scenario.cluster.flavor, "size": size,
             "messages": max(3, min(messages, (1 << 22) // max(size, 1)))}
            for scenario in spec.scenarios
            for size in _sweep_sizes(scenario)]


def _fig7_run_one(config: Dict[str, Any]) -> Dict[str, Any]:
    from ..cluster import build_cluster
    from ..workloads import run_allsize

    result = run_allsize(build_cluster(2, flavor=config["series"]),
                         config["size"], messages=config["messages"])
    return {"series": config["series"], "x": config["size"],
            "y": result.bandwidth_mb_s}


def _fig7_aggregate(spec, outcomes) -> str:
    from ..analysis import render_ascii, series_from_points, to_csv

    curves = series_from_points(outcomes)
    return render_ascii(curves, "Figure 7. Bandwidth GM vs FTGM",
                        "message length (bytes)", "MB/s") \
        + "\n\n" + to_csv(curves, "bytes")


register(Experiment(
    name="fig7",
    help="bandwidth curves",
    build_spec=lambda params: _sweep_spec(
        "fig7", _FIG7_SIZES, "messages", _get(params, "messages", 20)),
    expand=_fig7_expand,
    run_one=_fig7_run_one,
    aggregate=_fig7_aggregate,
    render=_identity,
    options=(Option("messages", "--messages", int, 20,
                    "messages per size"),),
))


def _fig8_expand(spec: ExperimentSpec) -> List[Dict[str, Any]]:
    iterations = spec.param("iterations", 25)
    return [{"series": scenario.cluster.flavor, "size": size,
             "iterations": iterations}
            for scenario in spec.scenarios
            for size in _sweep_sizes(scenario)]


def _fig8_run_one(config: Dict[str, Any]) -> Dict[str, Any]:
    from ..cluster import build_cluster
    from ..workloads import run_pingpong

    result = run_pingpong(build_cluster(2, flavor=config["series"]),
                          config["size"], iterations=config["iterations"])
    return {"series": config["series"], "x": config["size"],
            "y": result.half_rtt_us}


def _fig8_aggregate(spec, outcomes) -> str:
    from ..analysis import render_ascii, series_from_points, to_csv

    curves = series_from_points(outcomes)
    return render_ascii(curves, "Figure 8. Latency GM vs FTGM",
                        "message length (bytes)", "half-RTT (us)") \
        + "\n\n" + to_csv(curves, "bytes")


register(Experiment(
    name="fig8",
    help="latency curves",
    build_spec=lambda params: _sweep_spec(
        "fig8", _FIG8_SIZES, "iterations", _get(params, "iterations", 25)),
    expand=_fig8_expand,
    run_one=_fig8_run_one,
    aggregate=_fig8_aggregate,
    render=_identity,
    options=(Option("iterations", "--iterations", int, 25,
                    "ping-pong iterations"),),
))


# -- fig45: duplicate / lost message scenarios ---------------------------------

_FIG45_CASES = (
    ("Fig 4 duplicate, naive GM", 4, "gm"),
    ("Fig 4 duplicate, FTGM", 4, "ftgm"),
    ("Fig 5 lost message, naive GM", 5, "gm"),
    ("Fig 5 lost message, FTGM", 5, "ftgm"),
)


def _fig45_spec(params: Dict[str, Any]) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="fig45", seed=0, runs=len(_FIG45_CASES),
        scenarios=tuple(ScenarioSpec(
            name=name, runs=1,
            cluster=ClusterSpec(n_nodes=2, flavor=flavor),
            fault=FaultSpec(kind="figure%d-crash" % figure))
            for name, figure, flavor in _FIG45_CASES))


def _fig45_expand(spec: ExperimentSpec) -> List[Dict[str, Any]]:
    return [{"name": name, "figure": figure, "flavor": flavor}
            for name, figure, flavor in _FIG45_CASES]


def _fig45_run_one(config: Dict[str, Any]) -> Dict[str, Any]:
    from ..faults.scenarios import run_figure4, run_figure5

    if config["figure"] == 4:
        bad = run_figure4(config["flavor"]).duplicate
    else:
        bad = run_figure5(config["flavor"]).lost
    return {"name": config["name"], "bad": bool(bad)}


def _fig45_aggregate(spec, outcomes) -> str:
    return "\n".join("%-32s %s" % (o["name"], "YES" if o["bad"] else "no")
                     for o in outcomes)


register(Experiment(
    name="fig45",
    help="duplicate/lost scenarios",
    build_spec=_fig45_spec,
    expand=_fig45_expand,
    run_one=_fig45_run_one,
    aggregate=_fig45_aggregate,
    render=_identity,
))


# -- perf: simulation-stack microbenchmarks ------------------------------------


def _perf_spec(params: Dict[str, Any]) -> ExperimentSpec:
    from .perfbench import BENCH_NAMES

    return ExperimentSpec(
        experiment="perf", seed=2003, runs=len(BENCH_NAMES),
        params=freeze_params({
            "campaign_runs": _get(params, "campaign_runs", 200),
            "campaign_workers": _get(params, "campaign_workers", 1),
            "quick": bool(_get(params, "quick", False)),
        }))


def _perf_expand(spec: ExperimentSpec) -> List[Dict[str, Any]]:
    from .perfbench import BENCH_NAMES

    return [{"bench": name,
             "quick": spec.param("quick", False),
             "campaign_runs": spec.param("campaign_runs", 200),
             "campaign_workers": spec.param("campaign_workers", 1)}
            for name in BENCH_NAMES]


def _perf_run_one(config: Dict[str, Any]) -> Dict[str, Any]:
    from .perfbench import run_bench

    return run_bench(config)


def _perf_aggregate(spec, outcomes) -> Dict[str, Any]:
    from .perfbench import BENCH_NAMES, environment_info

    results = dict(zip(BENCH_NAMES, outcomes))
    results.update(environment_info())
    return results


def _perf_render(results: Dict[str, Any]) -> str:
    from .perfbench import render_results

    return render_results(results)


def _perf_summary(results: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "kernel_timeouts_eps": results["kernel_timeouts"]["events_per_sec"],
        "kernel_wakeups_eps": results["kernel_wakeups"]["events_per_sec"],
        "lanai_instr_per_sec":
            results["lanai_interpreter"]["instr_per_sec"],
        "campaign_runs_per_sec": results["campaign"]["runs_per_sec"],
    }


register(Experiment(
    name="perf",
    help="simulation-stack microbenchmarks (timing, not paper data)",
    build_spec=_perf_spec,
    expand=_perf_expand,
    run_one=_perf_run_one,
    aggregate=_perf_aggregate,
    render=_perf_render,
    summarize=_perf_summary,
    options=(Option("campaign_runs", "--campaign-runs", int, 200,
                    "campaign benchmark size"),
             Option("campaign_workers", "--campaign-workers", int, 1,
                    "campaign benchmark pool size"),
             Option("quick", "--quick", bool, False,
                    "10x smaller sizes (CI smoke)")),
))
