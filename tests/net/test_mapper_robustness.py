"""Mapper robustness: lost CONFIG retries and post-fault re-mapping."""

from repro.cluster import build_cluster
from repro.net import Mapper, PacketType
from repro.netfaults import NetworkFaultPlane
from repro.sim import SeededRng


def _run_mapper(cluster, **kwargs):
    mapper = Mapper(cluster[0].mcp.mapper_agent, **kwargs)
    done = []

    def runner():
        found = yield from mapper.run()
        done.append(found)

    cluster.sim.spawn(runner(), name="test-mapper")
    deadline = cluster.sim.now + 10_000_000.0
    while not done and cluster.sim.peek() <= deadline:
        cluster.sim.step()
    assert done, "mapper did not finish"
    return mapper, done[0]


class TestConfigRetry:
    def test_dropped_config_is_retried(self):
        cluster = build_cluster(2, boot=False, seed=5)
        link = cluster.fabric.nic_ports[1].link
        dropped = {"n": 0}

        def drop_first_config(pkt):
            if pkt.ptype == PacketType.MAPPER_CONFIG and dropped["n"] == 0:
                dropped["n"] += 1
                return True
            return False

        link.fault_filter = drop_first_config
        mapper, found = _run_mapper(cluster, expected_nodes=2)
        assert dropped["n"] == 1
        assert mapper.config_retries >= 1
        assert mapper.unreached == []
        assert sorted(found) == [0, 1]
        assert 0 in cluster[1].mcp.routing_table

    def test_persistently_dead_node_nonstrict(self):
        """strict=False records the unreachable node and keeps going."""
        cluster = build_cluster(3, boot=False, seed=5)

        def drop_all_configs(pkt):
            return pkt.ptype == PacketType.MAPPER_CONFIG

        cluster.fabric.nic_ports[2].link.fault_filter = drop_all_configs
        mapper, found = _run_mapper(cluster, strict=False)
        assert 2 in mapper.unreached
        assert 2 not in found
        assert sorted(found) == [0, 1]


class TestRemapAfterSeveredLink:
    def test_rerun_converges_on_surviving_uplink(self):
        cluster = build_cluster(4, flavor="gm", topology="ring", seed=3)
        plane = NetworkFaultPlane(cluster.sim, cluster.fabric,
                                  SeededRng(0, "test"))
        uplinks = cluster.fabric.inter_switch_links()
        route = cluster[0].mcp.routing_table[2]
        on_path = [link for link in plane.links_on_route(0, route)
                   if link in uplinks]
        assert len(on_path) == 1
        victim = on_path[0]
        survivor = next(l2 for l2 in uplinks if l2 is not victim)

        victim.cut()
        mapper, found = _run_mapper(cluster, strict=False)
        assert sorted(found) == [0, 1, 2, 3]
        assert mapper.unreached == []
        # The fresh route 0 -> 2 avoids the severed uplink.
        new_route = cluster[0].mcp.routing_table[2]
        new_links = plane.links_on_route(0, new_route)
        assert victim not in new_links
        assert survivor in new_links
        assert mapper.phase_times["discovered"] \
            <= mapper.phase_times["distributed"]


class TestMalformedMapperPackets:
    """A bit-flipped header can decode as a MAPPER_* type whose
    ``control`` is absent or the wrong shape: the agent drops it."""

    def _agent(self):
        from repro.net import MapperAgent
        from repro.sim import Simulator

        sent, installed = [], []
        agent = MapperAgent(Simulator(), 1, sent.append, installed.append)
        return agent, sent, installed

    def test_malformed_packets_are_dropped_and_counted(self):
        from repro.net import Packet

        agent, sent, installed = self._agent()
        bad = [
            Packet(ptype=PacketType.MAPPER_CONFIG, src_node=0, dest_node=1),
            Packet(ptype=PacketType.MAPPER_CONFIG, src_node=0, dest_node=1,
                   control={"routes": None}),
            Packet(ptype=PacketType.MAPPER_CONFIG, src_node=0, dest_node=1,
                   control={"routes": {"x": [1]}}),
            Packet(ptype=PacketType.MAPPER_REPLY, src_node=0, dest_node=1,
                   control={"node_id": 0}),
            Packet(ptype=PacketType.MAPPER_DONE, src_node=0, dest_node=1,
                   control=[0]),
            Packet(ptype=PacketType.MAPPER_PORTINFO, src_node=-1,
                   dest_node=1),
        ]
        for packet in bad:
            assert agent.handle(packet) is True
        assert agent.corrupted == len(bad)
        assert sent == [] and installed == []
        assert len(agent.replies) == len(agent.dones) == 0
        assert agent.configs_installed == 0

    def test_well_formed_config_still_installs(self):
        from repro.net import Packet

        agent, sent, installed = self._agent()
        packet = Packet(ptype=PacketType.MAPPER_CONFIG, src_node=0,
                        dest_node=1, control={"routes": {"0": [3]}})
        assert agent.handle(packet) is True
        assert installed == [{0: [3]}]
        assert agent.corrupted == 0
        assert [p.ptype for p in sent] == [PacketType.MAPPER_DONE]


class TestMalformedMapperPacketRuns:
    """Table 1 runs whose SWIFI flip yields a MAPPER_CONFIG header with
    no control used to abort the whole campaign with a TypeError."""

    def test_runs_classify_instead_of_raising(self):
        from repro.exp import get_experiment
        from repro.faults.outcomes import CATEGORY_ORDER

        experiment = get_experiment("table1")
        configs = experiment.expand(
            experiment.build_spec({"runs": 2400, "seed": 100000}))
        for index in (217, 1348, 1856):
            outcome = experiment.run_one(configs[index])
            assert outcome.category in CATEGORY_ORDER
