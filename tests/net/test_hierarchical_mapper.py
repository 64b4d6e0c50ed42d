"""The two-phase hierarchical mapper on Clos/fat-tree fabrics."""

from repro.cluster import build_cluster
from repro.net import make_mapper
from repro.net.mapper import HierarchicalMapper, Mapper
from repro.netfaults import NetworkFaultPlane
from repro.sim import SeededRng


def _rerun_mapper(cluster, **kwargs):
    mapper = make_mapper(cluster[0].mcp.mapper_agent, hierarchical=True,
                         expected_nodes=len(cluster), **kwargs)
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


def _full_tables(cluster):
    n = len(cluster)
    for node in cluster.nodes:
        others = set(node.mcp.routing_table) - {node.node_id}
        assert len(others) == n - 1, \
            "node %d mapped %d of %d peers" % (
                node.node_id, len(others), n - 1)


class TestMakeMapper:
    def test_hierarchical_flag_selects_class(self):
        cluster = build_cluster(4, boot=False)
        agent = cluster[0].mcp.mapper_agent
        assert isinstance(make_mapper(agent), Mapper)
        assert isinstance(make_mapper(agent, hierarchical=True),
                          HierarchicalMapper)
        assert not isinstance(make_mapper(agent), HierarchicalMapper)


class TestFullMap:
    def test_fat_tree_16_maps_every_node(self):
        cluster = build_cluster(16, flavor="gm", seed=7,
                                topology="fat-tree", radix=4)
        _full_tables(cluster)

    def test_clos_12_maps_every_node(self):
        cluster = build_cluster(12, flavor="gm", seed=7, topology="clos",
                                n_switches=2, radix=8)
        _full_tables(cluster)

    def test_routes_are_symmetric_in_length(self):
        cluster = build_cluster(16, flavor="gm", seed=7,
                                topology="fat-tree", radix=4)
        for src in (0, 5, 11):
            for dst in (3, 8, 15):
                if src == dst:
                    continue
                there = cluster[src].mcp.routing_table[dst]
                back = cluster[dst].mcp.routing_table[src]
                assert len(there) == len(back)


class TestEcmp:
    def _first_hops(self, cluster, sources, dst):
        return {cluster[src].mcp.routing_table[dst][0]
                for src in sources if src != dst}

    def test_cross_pod_traffic_spreads_over_uplinks(self):
        cluster = build_cluster(16, flavor="gm", seed=7,
                                topology="fat-tree", radix=4)
        # All four hosts of pod 0 talk to host 12 (pod 3): with two
        # equal-cost uplinks per edge the flows must not all share one.
        hops = self._first_hops(cluster, range(4), 12)
        assert len(hops) > 1

    def test_route_choice_is_deterministic(self):
        a = build_cluster(16, flavor="gm", seed=7,
                          topology="fat-tree", radix=4)
        b = build_cluster(16, flavor="gm", seed=7,
                          topology="fat-tree", radix=4)
        for node_a, node_b in zip(a.nodes, b.nodes):
            assert node_a.mcp.routing_table == node_b.mcp.routing_table


class TestRemapAfterSwitchLoss:
    def test_rerun_avoids_dead_agg_switch(self):
        cluster = build_cluster(16, flavor="gm", seed=7,
                                topology="fat-tree", radix=4)
        plane = NetworkFaultPlane(cluster.sim, cluster.fabric,
                                  SeededRng(0, "test"))
        # Kill the aggregation switch the current 0 -> 12 route uses.
        route = cluster[0].mcp.routing_table[12]
        port = cluster.fabric.nic_ports[0]
        end = port.link.other(port)
        victims = []
        for byte in route[:-1]:
            victims.append(end.switch)
            out = end.switch.ports[byte]
            end = out.link.other(out)
        agg = next(s for s in victims if s.tier == "agg")
        plane.kill_switch(agg)
        cluster.sim.run(until=cluster.sim.now + 1.0)

        mapper, found = _rerun_mapper(cluster, strict=False)
        assert sorted(found) == list(range(16))
        new_route = cluster[0].mcp.routing_table[12]
        end = port.link.other(port)
        for byte in new_route[:-1]:
            assert end.switch is not agg
            out = end.switch.ports[byte]
            end = out.link.other(out)


class TestScoutWaves:
    def test_waves_cover_every_leaf_once(self):
        cluster = build_cluster(16, flavor="gm", seed=7, boot=False,
                                topology="fat-tree", radix=4)
        mapper = make_mapper(cluster[0].mcp.mapper_agent,
                             hierarchical=True, expected_nodes=16)
        mapper.adjacency = {}
        leaves = list(range(8))
        mapper.host_attach = {n: (n // 2, n % 2) for n in range(16)}
        waves = mapper._leaf_waves(leaves)
        flat = [leaf for wave in waves for leaf in wave]
        assert sorted(flat) == leaves

    def test_wave_reply_budget_respects_ring(self):
        from repro.hw.nic import RECV_RING_SLOTS

        cluster = build_cluster(4, flavor="gm", seed=7, boot=False,
                                topology="fat-tree", radix=4)
        mapper = make_mapper(cluster[0].mcp.mapper_agent,
                             hierarchical=True, expected_nodes=4)
        # 64 leaves with 4 hosts each: every wave's expected reply count
        # must stay within half the receive ring.
        leaves = list(range(64))
        mapper.host_attach = {n: (n // 4, n % 4) for n in range(256)}
        for wave in mapper._leaf_waves(leaves):
            replies = sum(4 for _ in wave)
            assert replies <= max(4, RECV_RING_SLOTS // 2)
