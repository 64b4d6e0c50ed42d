"""Production-traffic load plane: open-loop generation + SLO verdicts.

The load plane is the subsystem that retells the paper's low-overhead
story the way a production operator would ask it: *does the cluster hold
its SLOs while the fault plane is tearing links out from under live
traffic?*  It has three parts:

* :mod:`repro.load.profiles` — the staged-load profile DSL (warmup →
  ramp → plateau → spike → cooldown), pure stage arithmetic;
* :mod:`repro.load.generator` — a deterministic open-loop client
  population driving GM ports: per-client seeded arrival streams, mixed
  message sizes, connection churn and fan-in hotspots;
* :mod:`repro.load.slo` / :mod:`repro.load.verdict` — the frozen
  :class:`SloSpec` (latency percentile bounds, availability floor, loss
  budgets) and the per-stage PASS/FAIL grading engine;
* :mod:`repro.load.chaos` — the ``slo-chaos`` experiment overlaying the
  netfaults plane on live load, fault tolerance on vs off.

Everything upstream of the simulator (schedules, specs, grading) is
pure data + seeded RNG, so ``slo-chaos`` result documents are
byte-identical at equal seeds across serial and pool execution,
telemetry on or off.
"""

from .chaos import (
    SloChaosCampaignResult,
    SloChaosConfig,
    SloChaosOutcome,
    run_slo_chaos,
)
from .generator import LoadConfig, LoadRunResult, Schedule, SendOp, build_schedule, run_load
from .profiles import PROFILE_NAMES, LoadProfile, Stage, make_profile
from .slo import SloSpec
from .verdict import SloVerdict, StageVerdict, grade_stages

__all__ = [
    "Stage",
    "LoadProfile",
    "PROFILE_NAMES",
    "make_profile",
    "SloSpec",
    "StageVerdict",
    "SloVerdict",
    "grade_stages",
    "LoadConfig",
    "SendOp",
    "Schedule",
    "LoadRunResult",
    "build_schedule",
    "run_load",
    "SloChaosConfig",
    "SloChaosOutcome",
    "SloChaosCampaignResult",
    "run_slo_chaos",
]
