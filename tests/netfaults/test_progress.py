"""The progress rule: decided runs end early with unchanged outcomes.

A run ends once nothing application-visible has changed for
``progress_window_us``, no fault-plane action is armed and no reroute or
card recovery is in flight.  Setting the window at or beyond the observe
horizon turns the rule off, which is how these tests get the reference
behaviour.
"""

import dataclasses

import pytest

from repro.ckpt.snapshot import restore_snapshot, take_snapshot
from repro.exp.registry import get_experiment
from repro.netfaults import NetCategory
from repro.netfaults.clos import boot_closfault, resume_closfault

#: Fields that must not depend on where the run stopped.
OUTCOME_FIELDS = ("category", "delivered_once", "missing", "duplicates",
                  "reroutes", "reroutes_failed", "verdict_at",
                  "reroute_woken_at", "reroute_mapped_at",
                  "reroute_installed_at", "first_delivery_after_install")
#: The cells the rule decides: plain GM cannot reroute around them.
DECIDED_CELLS = ("spine-loss/gm", "cascade/gm")


def _rule_off(config):
    return dataclasses.replace(config,
                               progress_window_us=config.observe_horizon_us)


def _cells(experiment_name, params):
    experiment = get_experiment(experiment_name)
    spec = experiment.build_spec(params)
    return experiment, spec, {c.scenario: c for c in experiment.expand(spec)}


def _fields(outcome):
    return {name: getattr(outcome, name) for name in OUTCOME_FIELDS}


@pytest.mark.parametrize("seed", [2003, 2011])
def test_closfault_grid_matches_rule_off(seed):
    experiment, _spec, cells = _cells("closfault", {"seed": seed})
    for name, config in cells.items():
        outcome = experiment.run_one(config)
        if name in DECIDED_CELLS:
            assert outcome.category == NetCategory.DEADLOCKED
            assert outcome.decided_at > outcome.fault_at
            reference = experiment.run_one(_rule_off(config))
            assert reference.decided_at == -1.0
            assert _fields(outcome) == _fields(reference), name
        else:
            # Resolved on its own: the rule never fired, so the run is
            # the rule-off run event for event.
            assert outcome.decided_at == -1.0, name
            assert outcome.resolved, name


def test_netfaults_outcomes_equal_rule_off():
    experiment, _spec, cells = _cells("netfaults", {"runs_per_scenario": 1,
                                                    "seed": 2003})
    assert len(cells) == 4
    for config in cells.values():
        outcome = experiment.run_one(config)
        assert outcome.decided_at == -1.0
        assert outcome == experiment.run_one(_rule_off(config))


def _run_with_plane(config):
    """Run a closfault config; also return its fault-plane audit log."""
    cluster = boot_closfault(config)
    paused = resume_closfault(cluster, config, pause_at=cluster.sim.now)
    plane = paused.extras["plane"]
    return paused.finish(), plane.actions


class TestArmedActionsKeepTheRunAlive:
    def test_late_rack_repair_still_recovers(self):
        # The repair lands at 3x the window after a silent partition.
        _e, _s, cells = _cells("closfault", {"seed": 2003})
        config = dataclasses.replace(cells["rack-loss/gm"],
                                     rack_down_us=900_000.0)
        outcome, actions = _run_with_plane(config)
        assert [a.action for a in actions] == ["kill_switch",
                                               "revive_switch"]
        assert outcome.category == NetCategory.RETRANSMIT
        assert outcome.decided_at == -1.0

    def test_second_cut_beyond_the_window_lands(self):
        # Both the repair and the second cut are armed past the window:
        # the stalled GM stream stays quiet, but the run must wait.
        _e, _s, cells = _cells("closfault", {"seed": 2003})
        config = dataclasses.replace(cells["repair-flap/gm"],
                                     flap_revive_us=400_000.0,
                                     second_cut_us=450_000.0)
        outcome, actions = _run_with_plane(config)
        assert [a.action for a in actions] == ["cut_link", "restore_link",
                                               "cut_link"]
        second = actions[-1].at
        assert second == pytest.approx(outcome.fault_at + 450_000.0)
        assert outcome.decided_at == second + config.progress_window_us


def test_paused_in_the_quiet_window_restores_to_the_cold_outcome():
    experiment, spec, cells = _cells("closfault", {"seed": 2003})
    names = list(cells)
    config = cells["spine-loss/gm"]
    cold = experiment.run_one(config)
    assert cold.decided_at > 0
    # Inside the quiet window: after the last delivery, before the rule
    # decides.
    at = cold.decided_at - config.progress_window_us / 3
    snapshot = take_snapshot(spec, at, run_index=names.index(
        "spine-loss/gm"))
    assert snapshot.at_us == at
    progress = snapshot.capture["state"]["extras"]["progress"]
    assert progress == {"deadline": cold.decided_at, "quiet": True}
    assert restore_snapshot(snapshot).finish() == cold
