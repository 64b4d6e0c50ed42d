"""The ``slo-chaos`` experiment: netfaults overlaid on live load.

One run: build a multi-switch cluster (FTGM or plain GM), start the
open-loop load plane (:mod:`repro.load.generator`), arm the netfaults
plane, land one fault scenario mid-profile — by default during the
plateau — and grade the whole run against a frozen
:class:`~repro.load.slo.SloSpec`.  The campaign sweeps every scenario
with fault tolerance **on** (``ftgm`` + path detectors) and **off**
(plain ``gm``), so the paper's Table 2/3 overhead story is retold as SLO
headroom: the baseline shows what fault tolerance costs under load, the
fault cells show what it buys.

Every run builds its own simulator from its own seed (the netfaults
pattern), so the campaign fans out through
:func:`repro.exp.runner.run_many` — serial or pool — and same-seed
campaigns render byte-identical verdicts.
Grading happens on the generator's own deterministic accounting;
telemetry only ever receives a read-only harvest afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster import build_cluster
from ..netfaults.campaign import NET_SCENARIOS, inject_scenario
from ..netfaults.detector import arm_detectors
from ..netfaults.plane import NetworkFaultPlane
from ..obs.harvest import harvest_cluster, harvest_load
from ..sim import SeededRng
from .generator import LoadConfig, build_schedule, run_load
from .slo import SloSpec
from .verdict import SloVerdict, grade_stages, observe_stages

__all__ = [
    "SLO_SCENARIOS",
    "SloChaosConfig",
    "SloChaosOutcome",
    "SloChaosCampaignResult",
    "boot_slo_chaos",
    "resume_slo_chaos",
    "run_slo_chaos",
]

#: The sweep: a fault-free control cell plus every netfaults scenario.
SLO_SCENARIOS = ["baseline"] + list(NET_SCENARIOS)


@dataclass
class SloChaosConfig:
    """Parameters of one SLO-graded chaos run."""

    run_id: int
    seed: int
    scenario: str                    # "baseline" or one of NET_SCENARIOS
    flavor: str                      # "gm" | "ftgm"
    n_nodes: int = 4
    topology: str = "ring"
    n_switches: int = 2
    clients: int = 8
    profile: str = "staged-ramp"
    peak_rate: float = 1_500.0
    duration_us: float = 400_000.0
    drain_us: float = 400_000.0
    fault_frac: float = 0.45         # fault lands this far into the profile
    flap_down_us: float = 12_000.0
    corrupt_rate: float = 0.25
    slo: SloSpec = field(default_factory=SloSpec)

    def load_config(self) -> LoadConfig:
        return LoadConfig(seed=self.seed, n_nodes=self.n_nodes,
                          clients=self.clients, profile=self.profile,
                          peak_rate=self.peak_rate,
                          duration_us=self.duration_us,
                          drain_us=self.drain_us)


@dataclass
class SloChaosOutcome:
    """One run's verdict plus the whole-run accounting behind it."""

    run_id: int
    scenario: str
    flavor: str
    fault_at: float                  # relative to load start; -1 = no fault
    offered: int
    accepted: int
    rejected: int
    completed: int
    lost: int
    duplicated: int
    sends_ok: int
    sends_errored: int
    churn_executed: int
    verdict: SloVerdict

    @property
    def cell(self) -> str:
        return "%s/%s" % (self.scenario, self.flavor)


def boot_slo_chaos(config: SloChaosConfig):
    """Build and boot the pre-fault prefix (seed-independent)."""
    return build_cluster(config.n_nodes, flavor=config.flavor,
                         seed=config.seed, topology=config.topology,
                         n_switches=config.n_switches)


def run_slo_chaos(config: SloChaosConfig) -> SloChaosOutcome:
    """Run one SLO-graded chaos cell from scratch."""
    return resume_slo_chaos(boot_slo_chaos(config), config)


def resume_slo_chaos(cluster, config: SloChaosConfig, pause_at=None):
    """Overlay fault + load on a booted cluster, grade against the SLO.

    ``pause_at`` parks the run at a simulated instant and returns a
    :class:`repro.ckpt.PausedRun` instead of an outcome (snapshot /
    time-travel support).
    """
    rng = SeededRng(config.seed, "slo-chaos/%d" % config.run_id)
    sim = cluster.sim
    load_config = config.load_config()
    schedule = build_schedule(load_config)

    fault_at = -1.0
    plane = None
    if config.scenario != "baseline":
        plane = NetworkFaultPlane(sim, cluster.fabric,
                                  rng.spawn("plane"),
                                  tracer=cluster.tracer)
        fault_at = config.fault_frac * schedule.profile.total_duration_us
        inject_scenario(plane, cluster, rng.spawn("target"),
                        sim.now + fault_at, config.scenario,
                        n_nodes=config.n_nodes,
                        flap_down_us=config.flap_down_us,
                        corrupt_rate=config.corrupt_rate)
    if config.flavor == "ftgm":
        # Path detectors drive reroute recovery; plain GM runs without
        # them — that asymmetry *is* the experiment.
        arm_detectors(cluster)

    def grade(result) -> SloChaosOutcome:
        observations = observe_stages(result)
        verdict = grade_stages(config.slo, observations)

        harvest_cluster(cluster,
                        fault_at=result.started_at + fault_at
                        if fault_at >= 0 else None)
        harvest_load(result, observations)

        return SloChaosOutcome(
            run_id=config.run_id,
            scenario=config.scenario,
            flavor=config.flavor,
            fault_at=fault_at,
            offered=sum(obs.offered for obs in observations),
            accepted=sum(obs.accepted for obs in observations),
            rejected=sum(obs.rejected for obs in observations),
            completed=sum(obs.completed for obs in observations),
            lost=sum(obs.lost for obs in observations),
            duplicated=sum(obs.duplicated for obs in observations),
            sends_ok=result.sends_ok,
            sends_errored=result.sends_errored,
            churn_executed=result.churn_executed,
            verdict=verdict,
        )

    if pause_at is not None:
        _partial, finish_load = run_load(cluster, load_config, schedule,
                                         pause_at=pause_at)
        from ..ckpt.pause import PausedRun
        extras = {"plane": plane} if plane is not None else None
        return PausedRun(cluster, config, extras,
                         lambda: grade(finish_load()))
    return grade(run_load(cluster, load_config, schedule))


# -- the campaign --------------------------------------------------------------


@dataclass
class SloChaosCampaignResult:
    """Aggregate of one slo-chaos campaign: the FT on/off verdict matrix."""

    seed: int
    outcomes: List[SloChaosOutcome]
    by_cell: Dict[str, List[SloChaosOutcome]] = field(init=False)

    def __post_init__(self) -> None:
        self.by_cell = {}
        for outcome in self.outcomes:
            self.by_cell.setdefault(outcome.cell, []).append(outcome)

    def scenarios(self) -> List[str]:
        seen = {outcome.scenario for outcome in self.outcomes}
        return [s for s in SLO_SCENARIOS if s in seen] + \
            sorted(s for s in seen if s not in SLO_SCENARIOS)

    def cell_verdict(self, scenario: str, flavor: str) -> Optional[str]:
        """"pass" only if every run of the cell passed; None if absent."""
        runs = self.by_cell.get("%s/%s" % (scenario, flavor))
        if not runs:
            return None
        return "pass" if all(r.verdict.passed for r in runs) else "fail"

    def render(self) -> str:
        slo_hashes = sorted({outcome.verdict.slo_hash
                             for outcome in self.outcomes})
        lines = [
            "SLO chaos campaign (seed=%d, %d runs, slo=%s)"
            % (self.seed, len(self.outcomes), ",".join(slo_hashes) or "-"),
            "%-18s %-6s %-8s %10s %10s %6s %6s  %s"
            % ("Scenario", "flavor", "verdict", "avail", "worst-p99",
               "lost", "dup", "breached stages"),
        ]
        for scenario in self.scenarios():
            for flavor in ("ftgm", "gm"):
                runs = self.by_cell.get("%s/%s" % (scenario, flavor))
                if not runs:
                    continue
                stages = [s for r in runs for s in r.verdict.stages]
                avail = min((s.availability for s in stages), default=1.0)
                p99s = [s.p99_us for s in stages if s.p99_us is not None]
                worst_p99 = max(p99s) if p99s else None
                breached = sorted({s.stage for r in runs
                                   for s in r.verdict.failed_stages()})
                lines.append("%-18s %-6s %-8s %10.4f %10s %6d %6d  %s" % (
                    scenario, flavor,
                    self.cell_verdict(scenario, flavor),
                    avail,
                    "%.1fms" % (worst_p99 / 1_000.0)
                    if worst_p99 is not None else "-",
                    sum(r.lost for r in runs),
                    sum(r.duplicated for r in runs),
                    ",".join(breached) if breached else "-"))
        lines.append("")
        lines.append("Verdict matrix (fault tolerance on vs off):")
        for scenario in self.scenarios():
            on = self.cell_verdict(scenario, "ftgm") or "-"
            off = self.cell_verdict(scenario, "gm") or "-"
            lines.append("  %-18s FT on: %-4s   FT off: %-4s"
                         % (scenario, on, off))
        return "\n".join(lines)
