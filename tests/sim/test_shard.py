"""Sharded simulation: partitioner, scheduler, boundaries, identity.

The load-bearing invariant: at equal seeds a sharded run is
*byte-identical* to the serial run — outcomes, rendering, summaries.
The merged schedule guarantees it by construction (shared tie-break
counter, global-minimum pop); the windowed schedule guarantees it by the
conservative lookahead argument.  Both are exercised here, end to end,
across every executor the engine offers.
"""

import pytest

from repro.cluster import build_cluster, plan_shards
from repro.sim import (LookaheadError, ShardChannel, ShardedScheduler,
                       SimulationError, Simulator, shards_from_env)


class TestPlanShards:
    def test_contiguous_blocks_cover_all_nodes(self):
        plan = plan_shards(8, 4)
        assert plan.n_shards == 4
        assert plan.node_shard == (0, 0, 1, 1, 2, 2, 3, 3)

    def test_node_zero_lands_on_wheel_zero(self):
        for nodes, shards in ((2, 2), (4, 3), (16, 5)):
            assert plan_shards(nodes, shards).wheel_of(0) == 0

    def test_uneven_split_is_balanced(self):
        plan = plan_shards(5, 2)
        sizes = [plan.node_shard.count(s) for s in range(2)]
        assert sorted(sizes) == [2, 3]

    def test_shards_clamped_to_node_count(self):
        plan = plan_shards(2, 8)
        assert plan.n_shards == 2
        assert plan.node_shard == (0, 1)

    def test_fabric_gets_dedicated_wheel(self):
        plan = plan_shards(4, 4)
        assert plan.fabric_shard == 4
        assert plan.n_wheels == 5
        assert plan.fabric_shard not in plan.node_shard

    def test_single_shard_collapses_to_one_wheel(self):
        plan = plan_shards(4, 1)
        assert plan.n_wheels == 1
        assert plan.fabric_shard == 0

    def test_colocated_fabric(self):
        plan = plan_shards(4, 2, colocate_fabric=True)
        assert plan.fabric_shard == 0
        assert plan.n_wheels == 2


class TestShardsFromEnv:
    def test_default_is_serial_merged(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        monkeypatch.delenv("REPRO_SHARD_SCHEDULE", raising=False)
        assert shards_from_env() == (1, "merged")

    def test_env_roundtrip(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        monkeypatch.setenv("REPRO_SHARD_SCHEDULE", "windowed")
        assert shards_from_env() == (4, "windowed")

    def test_bad_count_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "lots")
        with pytest.raises(ValueError, match="REPRO_SHARDS"):
            shards_from_env()

    def test_bad_schedule_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        monkeypatch.setenv("REPRO_SHARD_SCHEDULE", "optimistic")
        with pytest.raises(ValueError, match="schedule"):
            shards_from_env()

    def test_nonpositive_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "0")
        assert shards_from_env()[0] == 1


def _ticker(sim, log, name, delays):
    for delay in delays:
        yield sim.timeout(delay)
        log.append((sim.now, name))


class TestMergedSchedule:
    """The simulated-shards mode: serial order, bit for bit."""

    def _serial_log(self, plan):
        sim = Simulator()
        log = []
        for name, delays in plan:
            sim.spawn(_ticker(sim, log, name, delays))
        sim.run()
        return log

    def _sharded_log(self, plan, n_wheels):
        sched = ShardedScheduler(n_wheels)
        log = []
        for index, (name, delays) in enumerate(plan):
            wheel = sched.wheels[index % n_wheels]
            wheel.spawn(_ticker(wheel, log, name, delays))
        sched.run()
        return log

    def test_interleaving_matches_serial(self):
        plan = [("a", [1.0, 2.0, 0.5]), ("b", [0.5, 0.5, 3.0]),
                ("c", [2.0, 0.25, 0.25])]
        assert self._sharded_log(plan, 3) == self._serial_log(plan)

    def test_same_instant_ties_break_identically(self):
        # Every process fires at the same instants; only the shared
        # sequence counter orders them — across wheels it must reproduce
        # the serial spawn-order tie-break.
        plan = [(name, [1.0, 1.0, 1.0]) for name in "abcd"]
        assert self._sharded_log(plan, 2) == self._serial_log(plan)

    def test_step_pops_global_minimum(self):
        sched = ShardedScheduler(2)
        log = []
        sched.wheels[0].spawn(_ticker(sched.wheels[0], log, "slow", [5.0]))
        sched.wheels[1].spawn(_ticker(sched.wheels[1], log, "fast", [1.0]))
        sched.run(until=0.0)  # drain the spawn bootstraps
        sched.step()
        assert log == [(1.0, "fast")]
        assert sched.now == 1.0

    def test_step_empty_schedule_raises(self):
        with pytest.raises(IndexError):
            ShardedScheduler(2).step()

    def test_run_backwards_rejected(self):
        sched = ShardedScheduler(2)
        sched.run(until=10.0)
        with pytest.raises(ValueError, match="backwards"):
            sched.run(until=5.0)

    def test_run_until_advances_every_wheel(self):
        sched = ShardedScheduler(3)
        sched.run(until=42.0)
        assert sched.now == 42.0
        assert all(w.now == 42.0 for w in sched.wheels)

    def test_facade_spawns_on_wheel_zero(self):
        sched = ShardedScheduler(2)
        log = []
        sched.spawn(_ticker(sched.wheels[0], log, "x", [1.0]))
        sched.run()
        assert log == [(1.0, "x")]


class _DeliverySpy:
    def __init__(self):
        self.pushed = []

    def push(self, when, packet, duplicate, on_accept):
        self.pushed.append((when, packet))


class TestShardChannel:
    def test_zero_lookahead_rejected(self):
        sched = ShardedScheduler(2)
        with pytest.raises(LookaheadError):
            ShardChannel(sched, sched.wheels[0], sched.wheels[1],
                         0.0, _DeliverySpy())

    def test_lookahead_is_min_over_channels(self):
        sched = ShardedScheduler(2, schedule="windowed")
        ShardChannel(sched, sched.wheels[0], sched.wheels[1],
                     0.4, _DeliverySpy())
        ShardChannel(sched, sched.wheels[1], sched.wheels[0],
                     0.2, _DeliverySpy())
        assert sched.lookahead == 0.2

    def test_merged_posts_pass_straight_through(self):
        sched = ShardedScheduler(2)  # merged => _direct
        spy = _DeliverySpy()
        channel = ShardChannel(sched, sched.wheels[0], sched.wheels[1],
                               0.4, spy)
        channel.post(1.5, "pkt", False, None)
        assert spy.pushed == [(1.5, "pkt")]
        assert not channel.buffer
        assert channel.handoffs == 1

    def test_windowed_posts_buffer_until_flush(self):
        sched = ShardedScheduler(2, schedule="windowed")
        spy = _DeliverySpy()
        channel = ShardChannel(sched, sched.wheels[0], sched.wheels[1],
                               0.4, spy)
        channel.post(1.5, "early", False, None)
        channel.post(2.5, "late", False, None)
        assert spy.pushed == []
        assert channel.peek() == 1.5
        released = channel.flush(2.0)  # strictly-exclusive bound
        assert released == 1
        assert spy.pushed == [(1.5, "early")]
        assert channel.flush(None) == 1
        assert [p for _, p in spy.pushed] == ["early", "late"]
        assert channel.batches == 2

    def test_flush_into_receivers_past_is_fatal(self):
        sched = ShardedScheduler(2, schedule="windowed")
        channel = ShardChannel(sched, sched.wheels[0], sched.wheels[1],
                               0.4, _DeliverySpy())
        sched.wheels[1]._now = 5.0
        channel.post(1.0, "stale", False, None)
        with pytest.raises(SimulationError, match="causality"):
            channel.flush(None)


class _FakeEndpoint:
    """Minimal Link endpoint pinned to a wheel."""

    def __init__(self, name, wheel):
        self.name = name
        self.wheel = wheel
        self.received = []

    def deliver_packet(self, packet):
        self.received.append(packet)
        return True


class TestCrossShardLink:
    def test_zero_latency_cross_shard_link_rejected(self):
        # The lookahead-deadlock regression: a zero-latency cable across
        # shards has an empty grant window and must fail at cable time.
        from repro.net.link import Link

        sched = ShardedScheduler(2)
        a = _FakeEndpoint("a", sched.wheels[0])
        b = _FakeEndpoint("b", sched.wheels[1])
        with pytest.raises(LookaheadError):
            Link(sched.wheels[0], a, b, latency=0.0)

    def test_zero_latency_same_wheel_link_allowed(self):
        from repro.net.link import Link

        sched = ShardedScheduler(2)
        a = _FakeEndpoint("a", sched.wheels[0])
        b = _FakeEndpoint("b", sched.wheels[0])
        Link(sched.wheels[0], a, b, latency=0.0)  # no boundary, no window

    def test_cross_shard_delivery_lands_on_receiver_wheel(self):
        from repro.net.link import Link

        sched = ShardedScheduler(2)
        a = _FakeEndpoint("a", sched.wheels[0])
        b = _FakeEndpoint("b", sched.wheels[1])
        link = Link(sched.wheels[0], a, b, latency=0.4)
        link.transmit(a, _FakePacket(64))
        sched.run()
        assert len(b.received) == 1
        stats = sched.boundary_stats()
        assert stats["handoffs"] == 1
        assert stats["lookahead_us"] == 0.4


class _FakePacket:
    def __init__(self, size):
        self.wire_size = size

    def describe(self):
        return "fake"


class TestEarliestLive:
    def test_sees_other_wheels(self):
        sched = ShardedScheduler(2)
        log = []
        sched.wheels[1].spawn(_ticker(sched.wheels[1], log, "x", [7.0]))
        sched.run(until=0.0)
        # Wheel 0 is empty, but the global horizon must see wheel 1.
        assert sched.wheels[0].earliest_live() == 7.0
        assert sched.earliest_live() == 7.0

    def test_mid_window_uses_floor(self):
        sched = ShardedScheduler(2, schedule="windowed")
        sched._window_floor = 3.0
        assert sched.wheels[0].earliest_live() == 3.0
        sched._window_floor = None

    def test_empty_schedule_is_unbounded(self):
        sched = ShardedScheduler(2)
        assert sched.earliest_live() == float("inf")


class TestClusterPartitioning:
    def test_sharded_cluster_places_nodes_and_fabric(self):
        cluster = build_cluster(4, shards=2)
        sched = cluster.sim
        assert isinstance(sched, ShardedScheduler)
        plan = cluster.shard_plan
        assert plan.n_shards == 2 and plan.n_wheels == 3
        for node in cluster.nodes:
            wheel = sched.wheels[plan.wheel_of(node.node_id)]
            assert node.host.sim is wheel
            assert node.nic.sim is wheel
        assert cluster.fabric_sim is sched.wheels[plan.fabric_shard]

    def test_serial_cluster_keeps_plain_simulator(self):
        cluster = build_cluster(2)
        assert isinstance(cluster.sim, Simulator)
        assert not isinstance(cluster.sim, ShardedScheduler)

    def test_env_selects_sharding(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        cluster = build_cluster(2)
        assert isinstance(cluster.sim, ShardedScheduler)


def _netfaults_doc(seed, **kwargs):
    from repro.exp.registry import get_experiment
    from repro.exp.runner import run_experiment

    experiment = get_experiment("netfaults")
    spec = experiment.build_spec({"runs_per_scenario": 1, "seed": seed})
    doc = run_experiment(spec, **kwargs).to_doc()
    doc.pop("manifest", None)  # wall time differs by construction
    return doc


class TestShardedIdentity:
    """Sharded runs are byte-identical to serial, per the acceptance bar."""

    @pytest.mark.parametrize("seed", [2003, 7])
    def test_merged_matches_serial(self, seed):
        serial = _netfaults_doc(seed)
        sharded = _netfaults_doc(seed, shards=4)
        assert sharded == serial

    def test_windowed_matches_serial(self):
        serial = _netfaults_doc(2003)
        windowed = _netfaults_doc(2003, shards=4,
                                  shard_schedule="windowed")
        assert windowed == serial

    def test_identity_survives_fork_server(self):
        serial = _netfaults_doc(2003)
        forked = _netfaults_doc(2003, shards=2, workers=2)
        assert forked == serial

    def test_identity_survives_spawn_pool(self):
        serial = _netfaults_doc(2003)
        pooled = _netfaults_doc(2003, shards=2, workers=2,
                                forkserver=False)
        assert pooled == serial

    def test_unknown_schedule_rejected_up_front(self):
        with pytest.raises(ValueError, match="schedule"):
            _netfaults_doc(2003, shards=2, shard_schedule="optimistic")
