"""The benchmark's workloads and the paper-level checks on their outcomes.

Every workload is a registered experiment driven through the public
engine only: ``get_experiment(name).build_spec`` builds the spec from the
benchmark seed, ``run_experiment(spec, workers=N)`` runs it.  Nothing
here selects an executor, a shard schedule or an environment knob, so a
change to the executors runs against unchanged benchmark code.

A *campaign* is one spec; a benchmark run repeats campaigns closed-loop
(the next starts when the previous one finishes).  Campaign ``k`` of
seed ``n`` uses spec seed ``n + k * runs``: the engine derives per-run
seeds as ``spec_seed + run_id``, so successive campaigns cover
consecutive, non-overlapping run seeds.

Pins (``pins.json``) hold paper-level outcome fields of campaign 0 at
seed 2003 only: Table 1 category counts; for each netfault and Clos
cell, its category counts and delivered/missing totals; each SLO cell's
verdict and per-stage offered/completed/lost counts.  Spec hashes, manifests, verdict lists
and whole-document hashes are never pinned.  Any other campaign is
checked only for every run having finished and been classified.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

PIN_SEED = 2003
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    params: Dict[str, Any] = field(hash=False)
    workers: int
    runs: int           # runs per campaign


# Why each workload exists, and why table1-swifi is runnable by name but
# not listed in BENCHMARK.json, is recorded in README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("table1-swifi", "table1", {"runs": 200}, workers=2, runs=200),
    Workload("netfaults-sweep", "netfaults", {"runs_per_scenario": 25},
             workers=1, runs=100),
    Workload("clos16-grid", "closfault", {}, workers=1, runs=8),
    Workload("slo-chaos", "slo-chaos", {}, workers=1, runs=10),
    Workload("clos256-rackloss", "closfault",
             {"nodes": 256, "radix": 8, "scenarios": ["rack-loss"],
              "scale": "small"}, workers=1, runs=1),
)}


def campaign_seed(workload: Workload, seed: int, index: int) -> int:
    return seed + index * workload.runs


def build_spec(workload: Workload, spec_seed: int):
    from repro.exp import get_experiment

    params = dict(workload.params, seed=spec_seed)
    spec = get_experiment(workload.experiment).build_spec(params)
    if spec.runs != workload.runs:
        raise ValueError("%s: spec has %d runs, workload declares %d"
                         % (workload.name, spec.runs, workload.runs))
    return spec


# -- paper-level outcome fields ------------------------------------------------


def _table1_fields(result) -> Dict[str, Any]:
    return {"counts": dict(result.summary["counts"])}


def _netfault_fields(result) -> Dict[str, Any]:
    cells: Dict[str, Any] = {}
    for o in result.outcomes:
        cell = cells.setdefault(o.scenario, {"categories": {},
                                             "delivered": 0, "missing": 0})
        cell["categories"][o.category] = \
            cell["categories"].get(o.category, 0) + 1
        cell["delivered"] += o.delivered_once
        cell["missing"] += o.missing
    return {"cells": cells}


def _slo_fields(result) -> Dict[str, Any]:
    return {"cells": {o.cell: {"verdict": o.verdict.verdict,
                               "stages": {s.stage: [s.offered, s.completed,
                                                    s.lost]
                                          for s in o.verdict.stages}}
                      for o in result.outcomes}}


def outcome_fields(workload: Workload, result) -> Dict[str, Any]:
    """The paper-level outcome of one campaign, as JSON-able data."""
    if workload.experiment == "table1":
        return _table1_fields(result)
    if workload.experiment == "slo-chaos":
        return _slo_fields(result)
    return _netfault_fields(result)


def _classified(workload: Workload, outcome) -> bool:
    if outcome is None:
        return False
    if workload.experiment == "table1":
        from repro.faults.outcomes import CATEGORY_ORDER
        return outcome.category in CATEGORY_ORDER
    if workload.experiment == "slo-chaos":
        return outcome.verdict.verdict in ("pass", "fail")
    from repro.netfaults.campaign import NET_CATEGORY_ORDER
    return outcome.category in NET_CATEGORY_ORDER


def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def _failed_against_pin(workload: Workload, got: Dict[str, Any],
                        pin: Dict[str, Any]) -> int:
    """Runs whose outcome differs from the pinned one."""
    if workload.experiment == "table1":
        return _misplaced(got["counts"], pin["counts"])
    failed = 0
    for cell in set(got["cells"]) | set(pin["cells"]):
        mine, pinned = got["cells"].get(cell), pin["cells"].get(cell)
        if mine == pinned:
            continue
        if mine is None or pinned is None or "categories" not in mine:
            failed += 1
        else:
            failed += max(1, _misplaced(mine["categories"],
                                        pinned["categories"]))
    return failed


def _misplaced(got: Dict[str, int], pin: Dict[str, int]) -> int:
    # Every run lands in one category, so the runs in excess of a
    # category's pinned count are the runs classified differently.
    return sum(max(0, count - pin.get(category, 0))
               for category, count in got.items())


def check_campaign(workload: Workload, result, spec_seed: int,
                   pins: Dict[str, Any]) -> Tuple[int, List[str]]:
    """(failed runs, problems) of one finished campaign."""
    problems: List[str] = []
    unclassified = sum(1 for outcome in result.outcomes
                       if not _classified(workload, outcome))
    if len(result.outcomes) != workload.runs:
        problems.append("%d outcomes for %d runs"
                        % (len(result.outcomes), workload.runs))
    if unclassified:
        problems.append("%d runs unclassified" % unclassified)
    failed = unclassified
    if spec_seed == PIN_SEED:
        got = outcome_fields(workload, result)
        pin = pins[workload.name]
        mismatched = _failed_against_pin(workload, got, pin)
        if mismatched:
            problems.append("outcome differs from the seed-%d pin: %s"
                            % (PIN_SEED, json.dumps(got, sort_keys=True)))
        failed = max(failed, mismatched)
    return min(failed, workload.runs), problems
