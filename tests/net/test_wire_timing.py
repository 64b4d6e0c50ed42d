"""Closed-form wires: timing, FIFO order and the clear-instant checks.

A link direction is a FIFO wire of capacity one: a packet ready at
``ready`` clears at ``max(ready, busy_until) + wire_size / 250`` and
arrives one wire latency (0.4 us) later.  These tests pin that
arithmetic, the order packets leave in, and what happens at the clear
instant (``up`` check, fault filter) against a link between two plain
recording endpoints, then against a real switch.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.ckpt.snapshot import _pause_run
from repro.exp.registry import get_experiment
from repro.net import Fabric, Link, Packet, PacketType
from repro.net.link import LINK_BANDWIDTH, LINK_LATENCY
from repro.net.switch import SWITCH_LATENCY
from repro.payload import Payload
from repro.sim import Simulator, Tracer


class _Endpoint:
    """A link end that accepts everything and records arrival instants."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.link = None
        self.arrivals = []

    def deliver_packet(self, packet):
        self.arrivals.append((self.sim.now, packet))
        return True


def _packet(nbytes, route=()):
    return Packet(ptype=PacketType.DATA, src_node=0, dest_node=1,
                  route=list(route),
                  payload=Payload.phantom(nbytes, tag=0)).seal()


def _pair(tracer=None):
    sim = Simulator()
    a, b = _Endpoint(sim, "a"), _Endpoint(sim, "b")
    link = Link(sim, a, b, tracer=tracer)
    a.link = b.link = link
    return sim, a, b, link


def _at(sim, when, action):
    sim.timeout_at(when).callbacks.append(lambda _event: action())


class TestClosedForm:
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=50.0,
                                        allow_nan=False),
                              st.integers(min_value=0, max_value=4096)),
                    min_size=1, max_size=25))
    def test_clear_arrival_and_order(self, draws):
        sim, a, b, link = _pair()
        sends = sorted(draws, key=lambda draw: draw[0])
        clears = []
        packets = []
        for when, nbytes in sends:
            packet = _packet(nbytes)
            packets.append(packet)
            _at(sim, when, lambda p=packet: clears.append(
                link.transmit(a, p)))
        sim.run()

        busy = 0.0
        expected = []
        for (when, _), packet in zip(sends, packets):
            busy = max(when, busy) + packet.wire_size / LINK_BANDWIDTH
            expected.append(busy)
        assert clears == expected
        assert [packet for _, packet in b.arrivals] == packets   # FIFO
        assert [t for t, _ in b.arrivals] == [
            clear + LINK_LATENCY for clear in expected]
        assert link.packets_carried == len(packets)
        assert a.arrivals == []

    def test_directions_are_independent(self):
        sim, a, b, link = _pair()
        forward = link.transmit(a, _packet(1000))
        backward = link.transmit(b, _packet(1000))
        assert forward == backward == _packet(1000).wire_size / LINK_BANDWIDTH

    def test_delay_is_applied_before_contention(self):
        # A packet ready at now + delay waits only for the part of the
        # busy period that outlasts the delay.
        sim, a, b, link = _pair()
        first = link.transmit(a, _packet(0))            # header + CRC only
        assert 0.0 < first < SWITCH_LATENCY
        second = link.transmit(a, _packet(500), delay=SWITCH_LATENCY)
        assert second == SWITCH_LATENCY + _packet(500).wire_size / 250.0
        third = link.transmit(a, _packet(500), delay=SWITCH_LATENCY)
        assert third == second + _packet(500).wire_size / 250.0


class TestClearInstant:
    def test_cut_between_post_and_clear_drops(self):
        tracer = Tracer(enabled=True)
        sim, a, b, link = _pair(tracer)
        clear = link.transmit(a, _packet(1000))
        _at(sim, clear / 2, link.cut)
        sim.run()
        assert b.arrivals == []
        assert link.packets_carried == 0
        drops = tracer.filter(kind="link_down_drop")
        assert [record.time for record in drops] == [clear]

    def test_cut_after_clear_still_delivers(self):
        tracer = Tracer(enabled=True)
        sim, a, b, link = _pair(tracer)
        packet = _packet(1000)
        clear = link.transmit(a, packet)
        _at(sim, clear + LINK_LATENCY / 2, link.cut)
        sim.run()
        assert b.arrivals == [(clear + LINK_LATENCY, packet)]
        assert not link.up
        assert tracer.filter(kind="link_down_drop") == []

    def test_fault_filter_runs_at_clear_in_fifo_order(self):
        sim, a, b, link = _pair()
        calls = []

        def verdict(packet):
            calls.append((sim.now, packet))
            return packet is packets[1]          # drop the middle one

        link.fault_filter = verdict
        packets = [_packet(n) for n in (100, 200, 300)]
        clears = [link.transmit(a, packet) for packet in packets]
        sim.run()
        assert calls == list(zip(clears, packets))
        assert [p for _, p in b.arrivals] == [packets[0], packets[2]]
        assert link.packets_dropped == 1

    def test_on_accept_fires_on_arrival(self):
        sim, a, b, link = _pair()
        accepted = []
        clear = link.transmit(a, _packet(64),
                              on_accept=lambda: accepted.append(sim.now))
        sim.run()
        assert accepted == [clear + LINK_LATENCY]


class TestSwitchLatency:
    def test_two_inputs_contend_for_one_output(self):
        # Packets from nodes 0 and 1 reach switch port 2 at the same
        # instant; both become ready 0.15 us later and leave in turn.
        sim = Simulator()
        fabric = Fabric(sim)
        ends = [_Endpoint(sim, "e%d" % i) for i in range(3)]
        switch = fabric.add_switch(4)
        links = [fabric.connect(end, switch.port(i))
                 for i, end in enumerate(ends)]
        packets = [_packet(1000, route=[2]), _packet(1000, route=[2])]
        clears = [links[i].transmit(ends[i], packets[i]) for i in (0, 1)]
        assert clears[0] == clears[1]
        sim.run()
        arrive = clears[0] + LINK_LATENCY
        wire = packets[0].wire_size / LINK_BANDWIDTH   # route byte consumed
        expected = [arrive + SWITCH_LATENCY + wire,
                    arrive + SWITCH_LATENCY + 2 * wire]
        assert [t for t, _ in ends[2].arrivals] == [
            clear + LINK_LATENCY for clear in expected]
        assert [p for _, p in ends[2].arrivals] == packets
        assert switch.forwarded == 2


class TestHopCounts:
    # Wire hops (``link.packets_carried`` summed over the fabric, the
    # ``net.hops`` benchmark metric) of two closfault runs on the
    # registered 16-node fat-tree at seed 2003: run 0 is rack-loss/ftgm
    # (recovered by retransmit), run 2 spine-loss/ftgm (recovered by a
    # reroute, mapper floods included).  Pinned from the process-per-hop
    # link; closed-form wires must carry exactly the same packets.
    HOPS = {0: 1782, 2: 4509}

    def test_closfault_hops_unchanged(self):
        experiment = get_experiment("closfault")
        spec = experiment.build_spec({})
        for run_index, hops in self.HOPS.items():
            paused = _pause_run(spec, run_index, 1_000.0)
            paused.finish()
            carried = sum(link.packets_carried
                          for link in paused.cluster.fabric.links)
            assert carried == hops, run_index
