"""Full-duplex Myrinet links.

A link connects two endpoints (a NIC's packet interface or a switch
port).  Each direction is an independent serialized wire at Myrinet's
2 Gb/s (250 bytes/µs) plus a small fixed propagation/SERDES latency.

A FIFO wire of capacity one has a closed form, so no process carries a
packet across it: a packet ready to leave at ``ready`` clears the wire
at ``max(ready, busy_until) + wire_size / bandwidth``, and the direction
just advances ``busy_until``.  That serialization is where link-level
contention and therefore backpressure-at-the-edge come from.  Packets
still on the wire ride a per-direction :class:`_Wire` queue behind one
armed timer; at each clear instant the link applies its ``up`` check
and fault filter.

Delivery is decoupled from transmission: once a packet clears the wire,
its arrival rides a per-direction :class:`_DeliveryQueue` — the same
one-timer-per-deque shape, so back-to-back deliveries on a hot link
coalesce.  The same queue is the shard-boundary channel of the sharded
simulator: when the two endpoints live on different event wheels the
arrival crosses through a :class:`repro.sim.ShardChannel` instead of
being armed directly.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..sim import Simulator, Tracer

__all__ = ["Link", "LINK_BANDWIDTH", "LINK_LATENCY"]

LINK_BANDWIDTH = 250.0  # bytes/us == 2 Gb/s
LINK_LATENCY = 0.4      # us per traversal (cable + SERDES)


def _endpoint_sim(endpoint, default: Simulator) -> Simulator:
    """The event wheel an endpoint's events must run on.

    Serial simulation has one wheel, so this is the link's own sim; the
    sharded builder gives NIC ports and switch ports a ``wheel``
    attribute naming their shard's wheel.
    """
    wheel = getattr(endpoint, "wheel", None)
    return wheel if wheel is not None else default


class _Timeline:
    """A FIFO of ``(when, ...)`` entries behind one armed absolute timer.

    Entries are appended in nondecreasing ``when`` order, so a deque
    plus a single re-armed timer replaces one heap entry per packet, and
    same-instant entries drain in one firing.  Subclasses say what
    happens to an entry when its instant comes (:meth:`_complete`).
    """

    __slots__ = ("link", "sim", "queue", "armed")

    def __init__(self, link: "Link", sim: Simulator):
        self.link = link
        self.sim = sim
        self.queue: deque = deque()
        self.armed = None

    def _arm(self, when: float) -> None:
        timer = self.sim.timeout_at(when)
        timer.callbacks.append(self._fire)
        self.armed = timer

    def _fire(self, _event) -> None:
        self.armed = None
        queue = self.queue
        now = self.sim._now
        complete = self._complete
        while queue and queue[0][0] <= now:
            complete(queue.popleft())
        if queue:
            self._arm(queue[0][0])

    def _complete(self, entry: tuple) -> None:
        raise NotImplementedError


class _Wire(_Timeline):
    """Packets still on the wire in one link direction (sender's wheel)."""

    __slots__ = ("bandwidth", "busy_until", "bytes_moved", "land")

    def __init__(self, link: "Link", sim: Simulator, bandwidth: float):
        super().__init__(link, sim)
        self.bandwidth = bandwidth
        self.busy_until = 0.0
        self.bytes_moved = 0    # put on the wire, still-clearing ones too
        # Where a cleared packet goes: the receiver's delivery queue, or
        # the ShardChannel toward it (rebound by Link._bind_shards).
        self.land = None

    def post(self, packet, on_accept, delay: float) -> float:
        """Queue ``packet``, ready ``delay`` from now; returns its clear."""
        ready = self.sim._now + delay
        busy = self.busy_until
        nbytes = packet.wire_size
        clear = (ready if ready > busy else busy) + nbytes / self.bandwidth
        self.busy_until = clear
        self.bytes_moved += nbytes
        self.queue.append((clear, packet, on_accept))
        if self.armed is None:
            self._arm(clear)
        return clear

    def _complete(self, entry: tuple) -> None:
        """The clear instant: ``up`` check, fault filter, then arrival."""
        link = self.link
        packet = entry[1]
        if not link.up:
            link.tracer.emit(self.sim.now, "link", "link_down_drop",
                             packet=packet.describe())
            return
        duplicate = None
        if link.fault_filter is not None:
            verdict = link.fault_filter(packet)
            if verdict == "corrupt":
                # Wire bit-rot: the packet arrives but its CRC is stale.
                packet.corrupt_payload(bit=1)
                link.packets_corrupted += 1
            elif verdict == "duplicate":
                # A retransmission artefact / reflection: the far end sees
                # the packet twice.  Clone before delivery because switches
                # consume the route list in place.
                duplicate = packet.clone_for_retransmit()
                duplicate.ingress_ports = list(packet.ingress_ports)
            elif verdict:
                link.packets_dropped += 1
                link.tracer.emit(self.sim.now, "link", "fault_drop",
                                 packet=packet.describe())
                return
        self.land(entry[0] + link.latency, packet, duplicate, entry[2])

    def ckpt_state(self) -> dict:
        """Snapshot contract: serialization horizon and packets on the wire."""
        return {
            "busy_until": self.busy_until,
            "bytes_moved": self.bytes_moved,
            "armed": self.armed is not None,
            "queue": [
                {
                    "when": when,
                    "packet": packet.ckpt_state(),
                    "on_accept": on_accept is not None,
                }
                for when, packet, on_accept in self.queue
            ],
        }


class _DeliveryQueue(_Timeline):
    """In-flight arrivals of one link direction (receiver's wheel)."""

    __slots__ = ("receiver",)

    def __init__(self, link: "Link", receiver, sim: Simulator):
        super().__init__(link, sim)
        self.receiver = receiver

    def push(self, when: float, packet, duplicate, on_accept) -> None:
        self.queue.append((when, packet, duplicate, on_accept))
        if self.armed is None:
            self._arm(when)

    def _complete(self, entry: tuple) -> None:
        """Complete one arrival."""
        link = self.link
        receiver = self.receiver
        link.packets_carried += 1
        accepted = receiver.deliver_packet(entry[1])
        duplicate = entry[2]
        if duplicate is not None:
            link.packets_duplicated += 1
            link.tracer.emit(self.sim.now, "link", "fault_duplicate",
                             packet=duplicate.describe())
            receiver.deliver_packet(duplicate)
        on_accept = entry[3]
        if accepted and on_accept is not None:
            on_accept()

    def ckpt_state(self) -> dict:
        """Snapshot contract: in-flight arrivals of this direction."""
        return {
            "armed": self.armed is not None,
            "queue": [
                {
                    "when": when,
                    "packet": packet.ckpt_state(),
                    "duplicate": duplicate.ckpt_state()
                    if duplicate is not None else None,
                    "on_accept": on_accept is not None,
                }
                for when, packet, duplicate, on_accept in self.queue
            ],
        }


class Link:
    """Two endpoints, one wire per direction.

    Endpoints must expose ``deliver_packet(packet) -> bool`` (and, for
    tracing, a ``name`` attribute).  Use :meth:`transmit` from the
    endpoint that is transmitting.
    """

    def __init__(self, sim: Simulator, end_a, end_b,
                 bandwidth: float = LINK_BANDWIDTH,
                 latency: float = LINK_LATENCY,
                 tracer: Optional[Tracer] = None):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.end_a = end_a
        self.end_b = end_b
        self.latency = latency
        sim_a = _endpoint_sim(end_a, sim)
        sim_b = _endpoint_sim(end_b, sim)
        # Each wire runs on its sender's wheel; arrivals land on the
        # *receiver's* wheel.
        self._wires = {
            id(end_a): _Wire(self, sim_a, bandwidth),  # direction: a -> b
            id(end_b): _Wire(self, sim_b, bandwidth),  # direction: b -> a
        }
        self._delivery = {
            id(end_a): _DeliveryQueue(self, end_b, sim_b),
            id(end_b): _DeliveryQueue(self, end_a, sim_a),
        }
        for key, wire in self._wires.items():
            wire.land = self._delivery[key].push
        # Cross-shard directions route through ShardChannels; filled in
        # by _bind_shards() when the endpoint wheels differ.
        self._channels = {}
        if sim_a is not sim_b:
            self._bind_shards(sim_a, sim_b)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.up = True
        self.packets_carried = 0
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.packets_corrupted = 0
        self.cuts = 0
        # Test/experiment hook: drop (True), corrupt ("corrupt") or
        # duplicate ("duplicate") packets.
        self.fault_filter = None  # callable(packet) -> False|True|"corrupt"|"duplicate"

    def _bind_shards(self, sim_a: Simulator, sim_b: Simulator) -> None:
        from ..sim import LookaheadError, ShardChannel
        scheduler = getattr(sim_a, "scheduler", None)
        if scheduler is None or getattr(sim_b, "scheduler", None) is not scheduler:
            raise ValueError(
                "link %s spans two unrelated simulators"
                % self.describe_ends())
        if self.latency <= 0.0:
            raise LookaheadError(
                "link %s crosses shards with zero wire latency; the "
                "conservative protocol needs positive lookahead — give the "
                "link latency or co-locate both endpoints on one shard"
                % self.describe_ends())
        self._channels = {
            id(self.end_a): ShardChannel(scheduler, sim_a, sim_b,
                                         self.latency,
                                         self._delivery[id(self.end_a)]),
            id(self.end_b): ShardChannel(scheduler, sim_b, sim_a,
                                         self.latency,
                                         self._delivery[id(self.end_b)]),
        }
        for key, channel in self._channels.items():
            self._wires[key].land = channel.post

    def other(self, endpoint):
        if endpoint is self.end_a:
            return self.end_b
        if endpoint is self.end_b:
            return self.end_a
        raise ValueError("%r is not attached to this link" % (endpoint,))

    def transmit(self, sender, packet, on_accept=None,
                 delay: float = 0.0) -> float:
        """Put ``packet`` on the wire from ``sender``; returns its clear.

        The packet is ready ``delay`` from now (a switch's cut-through
        latency; 0 for a NIC), then waits its turn on the directional
        wire.  At the clear instant it is dropped if the link is down or
        the fault filter drops it — either way the sender's protocol
        layer must recover, which is exactly GM's job.  Otherwise it
        arrives one wire latency later on the receiver's wheel, and
        ``on_accept`` is called then if the far end accepted it.
        """
        return self._wires[id(sender)].post(packet, on_accept, delay)

    def cut(self) -> None:
        """Take the link down.

        A packet still on the wire (not yet at its clear instant) is
        dropped when it clears, with a ``link_down_drop`` trace; a packet
        that has already cleared the wire is past the cut and is still
        delivered.
        """
        if self.up:
            self.cuts += 1
            self.tracer.emit(self.sim.now, "link", "link_cut",
                             ends="%s<->%s" % (getattr(self.end_a, "name", "?"),
                                               getattr(self.end_b, "name", "?")))
        self.up = False

    def restore(self) -> None:
        if not self.up:
            self.tracer.emit(self.sim.now, "link", "link_restore",
                             ends="%s<->%s" % (getattr(self.end_a, "name", "?"),
                                               getattr(self.end_b, "name", "?")))
        self.up = True

    def describe_ends(self) -> str:
        """Stable human-readable identity, e.g. 'nic0.port<->sw0.p0'."""
        return "%s<->%s" % (getattr(self.end_a, "name", "?"),
                            getattr(self.end_b, "name", "?"))

    def ckpt_state(self) -> dict:
        """Snapshot contract: direction wires, in-flight queues, faults."""
        ka, kb = id(self.end_a), id(self.end_b)
        return {
            "ends": self.describe_ends(),
            "up": self.up,
            "latency": self.latency,
            "carried": self.packets_carried,
            "dropped": self.packets_dropped,
            "duplicated": self.packets_duplicated,
            "corrupted": self.packets_corrupted,
            "cuts": self.cuts,
            "fault_filter": self.fault_filter is not None,
            "wires": [self._wires[ka].ckpt_state(),
                      self._wires[kb].ckpt_state()],
            "delivery": [self._delivery[ka].ckpt_state(),
                         self._delivery[kb].ckpt_state()],
            "channels": [self._channels[k].ckpt_state()
                         for k in (ka, kb) if k in self._channels],
        }
