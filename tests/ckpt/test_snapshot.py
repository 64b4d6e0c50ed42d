"""Snapshot round-trips: take -> write -> restore -> re-take, same bytes.

The contract under test: a snapshot file is a pure function of (spec,
run index, pause instant) — no wall clock, no process identity — so
restoring it and snapshotting again reproduces the file byte for byte,
in this process, in a fresh interpreter, and under every execution mode
(telemetry on/off, lazy node parking).  A campaign spliced from a
snapshot (``--from-snapshot``) matches its cold-boot twin.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.ckpt.snapshot import (
    SnapshotMismatch,
    load_snapshot,
    restore_and_step,
    restore_snapshot,
    take_snapshot,
    write_snapshot,
)
from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment, run_many

SEEDS = [2003, 99]
AT_US = 4_000.0


def _netfaults_spec(seed):
    return get_experiment("netfaults").build_spec(
        {"runs_per_scenario": 1, "seed": seed})


def _roundtrip_bytes(spec, tmp_path, name, at=AT_US, run_index=2):
    first = tmp_path / ("%s-a.json" % name)
    second = tmp_path / ("%s-b.json" % name)
    snapshot = take_snapshot(spec, at, run_index=run_index)
    write_snapshot(snapshot, str(first))
    restored = restore_snapshot(str(first))      # verify=True hash check
    write_snapshot(take_snapshot(spec, at, run_index=run_index),
                   str(second))
    assert first.read_bytes() == second.read_bytes()
    return snapshot, restored


@pytest.mark.parametrize("seed", SEEDS)
class TestRoundTrip:
    def test_snapshot_restore_snapshot_is_byte_identical(self, seed,
                                                         tmp_path):
        spec = _netfaults_spec(seed)
        snapshot, restored = _roundtrip_bytes(spec, tmp_path,
                                              "nf%d" % seed)
        assert restored.now == snapshot.at_us

    def test_restored_run_finishes_like_a_cold_run(self, seed, tmp_path):
        experiment = get_experiment("netfaults")
        spec = _netfaults_spec(seed)
        snapshot = take_snapshot(spec, AT_US, run_index=2)
        outcome = restore_snapshot(snapshot).finish()
        cold = run_many([experiment.expand(spec)[2]], experiment.run_one,
                        workers=1)[0]
        assert outcome == cold


class TestExecutionModes:
    def test_telemetry_mode_round_trip(self, tmp_path):
        from repro.obs import runtime as obs_runtime

        spec = _netfaults_spec(SEEDS[0])
        plain = take_snapshot(spec, AT_US, run_index=2)
        try:
            obs_runtime.configure(metrics=True, tracing=False)
            obs_runtime.begin_run()
            telemetered = take_snapshot(spec, AT_US, run_index=2)
        finally:
            obs_runtime.reset()
            obs_runtime.configure(metrics=False, tracing=False)
        assert telemetered.state_hash == plain.state_hash

    def test_lazy_parked_nodes_settle_across_restore(self, tmp_path):
        # A 16-node fat-tree is at the lazy auto-threshold: idle MCPs
        # park off the wheel.  The parked latches are part of the hashed
        # state, and a restore must land every node in the same latch
        # state the snapshot recorded.
        spec = get_experiment("closfault").build_spec(
            {"scale": "small", "nodes": 16, "radix": 4})
        snapshot = take_snapshot(spec, AT_US, run_index=0)
        recorded = [node["mcp"]["parked"]
                    for node in snapshot.capture["state"]["nodes"]]
        assert any(recorded), "expected parked nodes on a lazy fabric"
        paused = restore_snapshot(snapshot)      # verify=True hash check
        live = [bool(getattr(node.driver.mcp, "_parked", False))
                for node in paused.cluster.nodes]
        assert live == recorded


class TestTimeTravel:
    def test_restore_and_step_advances_the_clock(self, tmp_path):
        spec = _netfaults_spec(SEEDS[0])
        path = tmp_path / "nf.json"
        write_snapshot(take_snapshot(spec, AT_US, run_index=2), str(path))
        paused = restore_and_step(str(path), step_us=500.0)
        assert paused.now == AT_US + 500.0
        outcome = paused.finish()
        assert outcome.run_id == 2

    def test_finish_is_one_shot(self):
        spec = _netfaults_spec(SEEDS[0])
        paused = restore_snapshot(take_snapshot(spec, AT_US, run_index=2))
        paused.finish()
        with pytest.raises(RuntimeError):
            paused.finish()


class TestMismatchRejection:
    def test_tampered_state_hash_is_refused(self, tmp_path):
        spec = _netfaults_spec(SEEDS[0])
        path = tmp_path / "nf.json"
        write_snapshot(take_snapshot(spec, AT_US, run_index=2), str(path))
        doc = json.loads(path.read_text())
        doc["capture"]["state_hash"] = "0" * 64
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotMismatch):
            restore_snapshot(str(path))

    def test_wrong_version_is_refused(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"snapshot": 999}))
        with pytest.raises(SnapshotMismatch):
            load_snapshot(str(path))

    def test_run_index_out_of_range_is_refused(self):
        spec = _netfaults_spec(SEEDS[0])
        with pytest.raises(SnapshotMismatch):
            take_snapshot(spec, AT_US, run_index=99)


class TestFromSnapshot:
    def test_from_snapshot_matches_cold_campaign(self, tmp_path):
        spec = _netfaults_spec(SEEDS[0])
        path = tmp_path / "nf.json"
        write_snapshot(take_snapshot(spec, AT_US, run_index=2), str(path))
        cold = run_experiment(spec)
        spliced = run_experiment(spec, from_snapshot=str(path))
        assert spliced.outcomes == cold.outcomes
        assert spliced.summary == cold.summary
        assert spliced.rendered == cold.rendered

    def test_wrong_spec_is_refused(self, tmp_path):
        path = tmp_path / "nf.json"
        write_snapshot(take_snapshot(_netfaults_spec(SEEDS[0]), AT_US,
                                     run_index=2), str(path))
        with pytest.raises(SnapshotMismatch):
            run_experiment(_netfaults_spec(SEEDS[1]),
                           from_snapshot=str(path))


class TestCrossProcess:
    def test_restore_in_a_fresh_spawn_process(self, tmp_path):
        # The cross-machine story in miniature: the snapshot leaves this
        # process as a file, and a brand-new interpreter must rebuild
        # the same simulated instant (restore_snapshot's verify leg) and
        # re-derive the identical state hash.
        spec = _netfaults_spec(SEEDS[0])
        path = tmp_path / "nf.json"
        snapshot = take_snapshot(spec, AT_US, run_index=2)
        write_snapshot(snapshot, str(path))
        script = (
            "from repro.ckpt.snapshot import restore_snapshot\n"
            "import sys\n"
            "paused = restore_snapshot(sys.argv[1])\n"
            "print(paused.capture()['state_hash'])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=dict(os.environ),
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == snapshot.state_hash


class TestInFlightWires:
    # Netfaults run 2 at seed 2003, paused at 2415 us: switch port sw1.p7
    # (an inter-switch uplink) has two packets still on its wire, one
    # clearing and one queued behind it.
    AT_BUSY_US = 2_415.0

    @staticmethod
    def _busy_switch_wires(snapshot):
        busy = []
        for link in snapshot.capture["state"]["fabric"]["links"]:
            senders = link["ends"].split("<->")
            for sender, wire in zip(senders, link["wires"]):
                if sender.startswith("sw") and len(wire["queue"]) >= 2:
                    busy.append((sender, wire))
        return busy

    def test_busy_switch_port_restores_and_finishes_cold(self):
        experiment = get_experiment("netfaults")
        spec = _netfaults_spec(SEEDS[0])
        snapshot = take_snapshot(spec, self.AT_BUSY_US, run_index=2)
        busy = self._busy_switch_wires(snapshot)
        assert [sender for sender, _ in busy] == ["sw1.p7"]
        wire = busy[0][1]
        clears = [entry["when"] for entry in wire["queue"]]
        assert self.AT_BUSY_US < clears[0] < clears[1] == wire["busy_until"]
        assert wire["armed"]
        paused = restore_snapshot(snapshot)      # verify=True hash check
        outcome = paused.finish()
        cold = run_many([experiment.expand(spec)[2]], experiment.run_one,
                        workers=1)[0]
        assert outcome == cold
