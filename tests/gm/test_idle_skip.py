"""The idle model: idle MCPs park, and parking is exact.

An MCP whose L_timer tick finds nothing to do leaves the event wheel;
the next touch replays the missed ticks on the exact tick chain.  The
exactness tests run a scenario twice — once with the idle model, once
on the live-ticking reference (``Mcp._live_ticks``: every tick resumes
the dispatch generator, nothing parks) — and demand identical
deliveries and bitwise-identical MCP bookkeeping, on a 2-node star and
a 16-node fat-tree, for plain GM and FTGM.  ``TestIdleSkip`` pins the
long quiet span: far fewer heap events, the same bookkeeping.
"""

import pytest

from repro.cluster import build_cluster
from repro.gm import constants as C
from repro.gm.mcp import Mcp
from repro.payload import Payload

IDLE_US = 20_000.0
QUIET_US = 500_000.0

SHAPES = {
    # name: (build_cluster kwargs, sender, receiver)
    "star2": (dict(n_nodes=2), 0, 1),
    "fat16": (dict(n_nodes=16, topology="fat-tree", radix=4), 0, 9),
}


def _cluster(flavor, shape):
    kwargs, _src, _dst = SHAPES[shape]
    return build_cluster(flavor=flavor, seed=9, **kwargs)


def _reference(monkeypatch, scenario, *args):
    """Run ``scenario`` on the live-ticking reference path."""
    with monkeypatch.context() as patch:
        patch.setattr(Mcp, "_live_ticks", True)
        return scenario(*args)


def _parked(cluster):
    return [node.node_id for node in cluster.nodes
            if node.driver.mcp._parked]


def _snapshot(cluster):
    """Every per-MCP counter the idle model must reproduce, settled."""
    out = {}
    for node in cluster.nodes:
        mcp = node.driver.mcp
        mcp.settle_idle()
        entry = {
            "invocations": mcp.l_timer_invocations,
            "busy": mcp.busy_time,
            "last": mcp.l_timer_last,
            "max_gap": mcp.l_timer_max_gap,
            "stats": dict(mcp.stats),
        }
        if hasattr(mcp, "watchdog_arms"):
            entry["watchdog_arms"] = mcp.watchdog_arms
        out[node.node_id] = entry
    return out


# -- scenarios ------------------------------------------------------------------


def _traffic_after_idle(flavor, shape):
    """Idle, one message, idle again."""
    cluster = _cluster(flavor, shape)
    _kwargs, src, dst = SHAPES[shape]
    sim = cluster.sim
    sim.run(until=sim.now + IDLE_US)
    got = {}

    def traffic():
        sport = yield from cluster[src].driver.open_port(2)
        dport = yield from cluster[dst].driver.open_port(2)
        data = b"identical?" * 5
        yield from dport.provide_receive_buffer(len(data))
        yield from sport.send_and_wait(Payload(len(data), data=data), dst, 2)
        event = yield from dport.receive_message(timeout=30_000.0)
        got["fp"] = event.payload.fingerprint if event else None

    cluster[src].host.spawn(traffic(), "traffic")
    sim.run(until=sim.now + 50_000.0)
    sim.run(until=sim.now + IDLE_US)
    recoveries = sum(len(ftd.recoveries) for ftd in cluster.ftds())
    return {"fp": got.get("fp"), "now": sim.now, "recoveries": recoveries,
            "books": _snapshot(cluster)}


def _unheard_send(shape):
    """A GM send nobody can receive: the sender parks between rounds.

    The receiver opens its port but never posts a buffer, so every data
    packet is dropped for lack of a token and never ACKed; the sender's
    retransmit deadline stays armed while its MCP sits idle.
    """
    cluster = _cluster("gm", shape)
    _kwargs, src, dst = SHAPES[shape]
    sim = cluster.sim
    mcp = cluster[src].driver.mcp

    def traffic():
        sport = yield from cluster[src].driver.open_port(2)
        yield from cluster[dst].driver.open_port(2)
        yield from sport.send(Payload.from_bytes(b"unheard"), dst, 2)

    cluster[src].host.spawn(traffic(), "traffic")
    wakes = []   # (wake instant, the deadline armed while parked)
    end = sim.now + 30_000.0
    while sim.peek() <= end:
        was_parked = mcp._parked
        deadline = min((s.deadline for s in mcp.tx_streams.values()
                        if s.deadline is not None), default=None)
        sim.step()
        if was_parked and not mcp._parked and deadline is not None:
            wakes.append((sim.now, deadline))
    sim.run(until=end)
    return {"wakes": wakes, "books": _snapshot(cluster)}


def _touch_mid_window(flavor, target=None):
    """Wake a parked node inside one of its skipped tick windows.

    The model run picks ``target`` 0.75 us into the third window still
    ahead on the parked chain; the reference run touches at the same
    absolute instant.
    """
    cluster = _cluster(flavor, "star2")
    sim = cluster.sim
    sim.run(until=sim.now + IDLE_US)
    mcp = cluster[0].driver.mcp
    window = None
    if target is None:
        assert mcp._parked, "idle node should have parked"
        window = mcp._park_next_tick
        ahead = 0
        while ahead < 3:
            window = (window + 1.5) + C.L_TIMER_INTERVAL_US
            ahead += window > sim.now
        target = window + 0.75
    seen = {}

    def touch(_event):
        # A harmless host request: an alarm for a port nobody opened.
        mcp.host_request(("alarm", target + 5_000.0, 7, None))
        seen["fuse_end"] = mcp._fuse_end
        seen["isr"] = mcp.nic.status.isr

    sim.timeout_at(target).callbacks.append(touch)
    sim.run(until=target + 20_000.0)
    return {"target": target, "window": window, "seen": seen,
            "books": _snapshot(cluster)}


def _short_watchdog():
    """FTGM with IT1 shorter than a tick: it expires between ticks.

    Each expiry is an FTD false alarm on a healthy card (the low end
    of ablation A2's sweep).
    """
    cluster = _cluster("ftgm", "star2")
    sim = cluster.sim
    for node in cluster.nodes:
        # Reconfigure a live card, as the FTD does before it probes.
        node.driver.mcp.settle_idle()
        node.driver.mcp.watchdog_interval_us = 300.0
    sim.run(until=sim.now + IDLE_US)
    return {"false_alarms": [ftd.false_alarms for ftd in cluster.ftds()],
            "books": _snapshot(cluster)}


def _quiet_span(_flavor=None):
    """Two messages half a simulated second apart, counting heap events.

    The second send is scheduled in-sim (a host process sleeping on a
    timeout), so the quiet span holds only idle ticks.
    """
    cluster = build_cluster(2, flavor="gm")
    sim = cluster.sim
    done = {}

    def receiver(port):
        for tag in ("first", "second"):
            yield from port.provide_receive_buffer(1024)
            event = yield from port.receive_message()
            done[tag] = event.payload.data

    def sender(port):
        yield from port.send_and_wait(Payload.from_bytes(b"warm"), 1, 2)
        yield sim.timeout(QUIET_US)
        yield from port.send_and_wait(Payload.from_bytes(b"wake"), 1, 2)
        done["sent"] = sim.now

    def opener():
        sport = yield from cluster[0].driver.open_port(1)
        rport = yield from cluster[1].driver.open_port(2)
        cluster[1].host.spawn(receiver(rport), "receiver")
        cluster[0].host.spawn(sender(sport), "sender")

    cluster[0].host.spawn(opener(), "opener")
    steps = 0
    while not ("second" in done and "sent" in done):
        assert sim.peek() != float("inf"), "deadlocked before completion"
        sim.step()
        steps += 1
    return {"steps": steps, "now": sim.now, "books": _snapshot(cluster),
            "payloads": (done["first"], done["second"])}


# -- tests ------------------------------------------------------------------------


class TestParking:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("flavor", ["gm", "ftgm"])
    def test_idle_fabric_parks_every_node(self, flavor, shape):
        cluster = _cluster(flavor, shape)
        cluster.sim.run(until=cluster.sim.now + IDLE_US)
        assert len(_parked(cluster)) == len(cluster.nodes)

    def test_reference_never_parks(self, monkeypatch):
        def idle():
            cluster = _cluster("ftgm", "fat16")
            cluster.sim.run(until=cluster.sim.now + IDLE_US)
            return _parked(cluster)
        assert _reference(monkeypatch, idle) == []

    def test_first_message_wakes_both_ends(self):
        cluster = _cluster("gm", "fat16")
        sim = cluster.sim
        sim.run(until=sim.now + IDLE_US)
        assert 0 in _parked(cluster) and 9 in _parked(cluster)
        got = {}

        def traffic():
            sport = yield from cluster[0].driver.open_port(2)
            dport = yield from cluster[9].driver.open_port(2)
            data = b"doorbell" * 8
            yield from dport.provide_receive_buffer(len(data))
            yield from sport.send_and_wait(Payload(len(data), data=data),
                                           9, 2)
            event = yield from dport.receive_message(timeout=30_000.0)
            got["fp"] = event.payload.fingerprint if event else None

        cluster[0].host.spawn(traffic(), "traffic")
        sim.run(until=sim.now + 50_000.0)
        assert got.get("fp") is not None
        # Idle again: the woken endpoints re-park.
        sim.run(until=sim.now + IDLE_US)
        assert 0 in _parked(cluster) and 9 in _parked(cluster)

    def test_parked_ticks_are_accounted(self):
        cluster = _cluster("ftgm", "fat16")
        cluster.sim.run(until=cluster.sim.now + IDLE_US)
        for node in cluster.nodes:
            node.driver.mcp.settle_idle()
        assert sum(node.driver.mcp.ticks_absorbed
                   for node in cluster.nodes) > 0


class TestIdleSkip:
    """Half a second of quiet between two messages on a 2-node star."""

    def test_bookkeeping_bitwise_equals_live_ticking(self, monkeypatch):
        live = _reference(monkeypatch, _quiet_span)
        parked = _quiet_span()
        assert parked["payloads"] == live["payloads"] == (b"warm", b"wake")
        assert parked["now"] == live["now"]
        assert parked["books"] == live["books"]

    def test_idle_span_processes_far_fewer_events(self, monkeypatch):
        live = _reference(monkeypatch, _quiet_span)
        parked = _quiet_span()
        # ~1245 ticks go by per MCP across the quiet half-second; live
        # ticking pays heap events for each, a parked node none.
        assert parked["steps"] < live["steps"] / 3

    def test_tick_cadence_is_preserved_through_the_fold(self):
        parked = _quiet_span()
        for entry in parked["books"].values():
            # Every skipped tick was billed on replay: ~401.5 us apart
            # across the whole run, 1.5 us of housekeeping charge each.
            assert entry["invocations"] > QUIET_US / 402.0
            assert entry["busy"] >= 1.5 * entry["invocations"]


class TestExactness:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("flavor", ["gm", "ftgm"])
    def test_traffic_after_idle_matches_reference(self, monkeypatch,
                                                  flavor, shape):
        live = _reference(monkeypatch, _traffic_after_idle, flavor, shape)
        parked = _traffic_after_idle(flavor, shape)
        assert parked["fp"] is not None
        assert parked["recoveries"] == 0, \
            "parking must not trip the watchdog/FTD"
        assert parked == live

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_gm_parks_with_armed_deadline_and_wakes_on_it(self, monkeypatch,
                                                          shape):
        live = _reference(monkeypatch, _unheard_send, shape)
        parked = _unheard_send(shape)
        assert parked["wakes"], \
            "sender never parked with its retransmit deadline armed"
        for woke, deadline in parked["wakes"]:
            assert woke == deadline
        assert live["wakes"] == []
        assert parked["books"] == live["books"]
        sender = SHAPES[shape][1]
        assert parked["books"][sender]["stats"]["retransmit_rounds"] \
            >= len(parked["wakes"])

    @pytest.mark.parametrize("flavor", ["gm", "ftgm"])
    def test_mid_window_wake_matches_reference(self, monkeypatch, flavor):
        parked = _touch_mid_window(flavor)
        # The touch landed inside a skipped window: the replay applied
        # its front half and deferred the tail to the window end.
        assert parked["window"] < parked["target"] < parked["window"] + 1.5
        assert parked["seen"]["fuse_end"] == parked["window"] + 1.5
        live = _reference(monkeypatch, _touch_mid_window, flavor,
                          parked["target"])
        assert parked["seen"]["isr"] == live["seen"]["isr"]
        assert parked["books"] == live["books"]


    def test_short_watchdog_keeps_ticking(self, monkeypatch):
        live = _reference(monkeypatch, _short_watchdog)
        parked = _short_watchdog()
        assert min(parked["false_alarms"]) > 0
        assert parked == live


class TestFtdAgainstParkedCard:
    def test_false_alarm_on_parked_card_is_not_a_reset(self):
        # The FTD writes its magic word straight into SRAM; a parked
        # MCP must be brought live so its next L_timer clears it.
        cluster = _cluster("ftgm", "fat16")
        sim = cluster.sim
        sim.run(until=sim.now + IDLE_US)
        assert 3 in _parked(cluster)
        ftd = cluster[3].driver.ftd
        ftd.notify()
        limit = sim.now + 1_000_000.0
        while ftd.false_alarms == 0 and not ftd.recoveries \
                and sim.peek() <= limit:
            sim.step()
        assert ftd.false_alarms == 1
        assert cluster[3].nic.resets == 0
        assert cluster[3].driver.mcp.running
