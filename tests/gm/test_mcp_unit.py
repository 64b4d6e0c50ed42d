"""Unit tests for MCP internals: L_timer, doorbells, requests, events."""


from repro.cluster import build_cluster
from repro.gm import constants as C
from repro.gm.events import EventType
from repro.net.packet import Packet, PacketType
from repro.payload import Payload


def run_until(cluster, predicate, limit=10_000_000.0):
    sim = cluster.sim
    deadline = sim.now + limit
    while not predicate() and sim.peek() <= deadline:
        sim.step()
    return predicate()


class TestLTimer:
    def test_l_timer_invoked_periodically(self):
        cluster = build_cluster(2, flavor="gm")
        mcp = cluster[0].mcp
        sim = cluster.sim
        # The idle MCP parks; sample_stats counts its ticks all the same.
        base = mcp.sample_stats(sim.now)["l_timer_invocations"]
        sim.run(until=sim.now + 10 * C.L_TIMER_INTERVAL_US)
        assert mcp.sample_stats(sim.now)["l_timer_invocations"] >= base + 8

    def test_idle_gap_tracks_interval(self):
        cluster = build_cluster(2, flavor="gm")
        cluster.sim.run(until=cluster.sim.now + 20 * C.L_TIMER_INTERVAL_US)
        gap = cluster[0].mcp.l_timer_max_gap
        assert C.L_TIMER_INTERVAL_US * 0.9 <= gap \
            <= C.L_TIMER_INTERVAL_US * 1.5

    def test_gap_stretches_under_load(self):
        """The effect behind the paper's 800us measurement: serialized
        event handling delays L_timer."""
        cluster = build_cluster(2, flavor="gm")
        sim = cluster.sim
        done = {}

        def blast():
            port = yield from cluster[0].driver.open_port(1)
            payload = Payload.phantom(32_768, tag=9)
            for _ in range(40):
                while port.send_tokens == 0:
                    yield from port.receive(timeout=200.0)
                yield from port.send(payload, 1, 2)
                yield from port.receive(timeout=50.0)
            done["ok"] = True

        def sink():
            port = yield from cluster[1].driver.open_port(2)
            for _ in range(16):
                yield from port.provide_receive_buffer(32_768)
            while True:
                yield from port.receive_message()
                yield from port.provide_receive_buffer(32_768)

        cluster[1].host.spawn(sink(), "sink")
        cluster[0].host.spawn(blast(), "blast")
        run_until(cluster, lambda: "ok" in done)
        assert cluster[0].mcp.l_timer_max_gap > C.L_TIMER_INTERVAL_US
        # ...but bounded well below the watchdog interval.
        assert cluster[0].mcp.l_timer_max_gap < C.WATCHDOG_INTERVAL_US

    def test_dead_mcp_stops_l_timer(self):
        cluster = build_cluster(2, flavor="gm")
        sim = cluster.sim
        sim.run(until=sim.now + 1_000.0)
        mcp = cluster[0].mcp
        mcp.die("test")
        count = mcp.l_timer_invocations
        sim.run(until=sim.now + 5_000.0)
        assert mcp.l_timer_invocations == count


class TestHostRequests:
    def test_open_served_within_one_l_timer_period(self):
        cluster = build_cluster(2, flavor="gm")
        opened = {}

        def opener():
            t0 = cluster.sim.now
            yield from cluster[0].driver.open_port(3)
            opened["took"] = cluster.sim.now - t0

        cluster[0].host.spawn(opener(), "o")
        run_until(cluster, lambda: "took" in opened)
        assert opened["took"] <= C.L_TIMER_INTERVAL_US + 50.0

    def test_unknown_request_kind_is_ignored(self):
        cluster = build_cluster(2, flavor="gm", trace=True)
        cluster[0].mcp.host_request(("frobnicate", 1, 2))
        cluster.sim.run(until=cluster.sim.now + 2 * C.L_TIMER_INTERVAL_US)
        assert cluster.tracer.filter(kind="bad_host_request")

    def test_restore_rx_sets_stream_expectation(self):
        cluster = build_cluster(2, flavor="ftgm")
        mcp = cluster[0].mcp
        mcp.host_request(("restore_rx", (1, 4), 41))
        cluster.sim.run(until=cluster.sim.now + 2 * C.L_TIMER_INTERVAL_US)
        stream = mcp.rx_streams[(1, 4)]
        assert stream.expected_seq == 42
        assert stream.last_acked == 41


class TestSendFailures:
    def test_no_route_posts_send_error(self):
        cluster = build_cluster(2, flavor="gm")
        events = {}

        def app():
            port = yield from cluster[0].driver.open_port(1)
            yield from port.send(Payload.from_bytes(b"x"), 6, 1)
            event = yield from port.receive()
            events["event"] = event

        cluster[0].host.spawn(app(), "a")
        run_until(cluster, lambda: "event" in events)
        assert events["event"].etype == EventType.SEND_ERROR
        assert "no-route" in events["event"].error

    def test_self_send_loops_back_without_touching_wire(self):
        """GM supports sending to your own node: the packet loops back
        through the receive ring, never crossing the switch."""
        cluster = build_cluster(2, flavor="gm")
        outcome = {}
        wire_before = cluster.fabric.links[0].packets_carried

        def app():
            port = yield from cluster[0].driver.open_port(1)
            yield from port.provide_receive_buffer(64)
            yield from port.send(Payload.from_bytes(b"dear me"), 0, 1)
            event = yield from port.receive_message()
            outcome["data"] = event.payload.data
            outcome["sender"] = event.sender_node

        cluster[0].host.spawn(app(), "a")
        run_until(cluster, lambda: "data" in outcome)
        assert outcome["data"] == b"dear me"
        assert outcome["sender"] == 0
        assert cluster.fabric.links[0].packets_carried == wire_before


class TestHeartbeat:
    def test_healthy_mcp_answers_heartbeat(self):
        cluster = build_cluster(2, flavor="gm")
        sim = cluster.sim
        replies = []
        cluster[0].mcp.heartbeat_listener = replies.append
        route = cluster[0].mcp.routing_table[1]
        probe = Packet(ptype=PacketType.HEARTBEAT, src_node=0,
                       dest_node=1, route=list(route), seq=17).seal()
        cluster[0].mcp._transmit(probe)
        sim.run(until=sim.now + 1_000.0)
        assert replies and replies[0].seq == 17
        assert replies[0].src_node == 1

    def test_hung_mcp_stays_silent(self):
        cluster = build_cluster(2, flavor="gm")
        sim = cluster.sim
        replies = []
        cluster[0].mcp.heartbeat_listener = replies.append
        cluster[1].mcp.die("quiet")
        route = cluster[0].mcp.routing_table[1]
        probe = Packet(ptype=PacketType.HEARTBEAT, src_node=0,
                       dest_node=1, route=list(route), seq=1).seal()
        cluster[0].mcp._transmit(probe)
        sim.run(until=sim.now + 5_000.0)
        assert replies == []


class TestStats:
    def test_busy_time_accumulates(self):
        cluster = build_cluster(2, flavor="gm")
        done = {}

        def app():
            port = yield from cluster[0].driver.open_port(1)
            rport = yield from cluster[1].driver.open_port(2)
            yield from rport.provide_receive_buffer(64)
            yield from port.send_and_wait(Payload.from_bytes(b"x"), 1, 2)
            done["ok"] = True

        cluster[0].host.spawn(app(), "a")
        run_until(cluster, lambda: "ok" in done)
        assert cluster[0].mcp.send_busy_time > 0
        assert cluster[1].mcp.recv_busy_time > 0
        assert cluster[0].mcp.busy_time >= cluster[0].mcp.send_busy_time
