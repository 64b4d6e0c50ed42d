"""Wormhole crossbar switches with source routing.

A Myrinet switch reads the leading route byte of an incoming packet,
strips it, and cuts the packet through to that output port; contention
for an output is resolved by blocking (backpressure), which we model by
queueing on the output link's directional wire.  The M3M-SW8 used in the
paper is an 8-port crossbar.

Simplifications (documented in DESIGN.md):

* routing is at packet granularity (virtual cut-through) rather than
  flit-level wormhole — identical semantics for the paper's experiments,
  which never create multi-hop blocking chains;
* route bytes are absolute output-port numbers, not Myrinet's signed
  deltas;
* switches stamp the ingress port into mapper packets so scout replies
  can be source-routed back (GM's mapper achieves this with incremental
  map construction).
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import Simulator, Tracer
from .packet import Packet, PacketType

__all__ = ["Switch", "SwitchPort", "SWITCH_LATENCY"]

SWITCH_LATENCY = 0.15  # us of cut-through routing delay per hop

_MAPPER_TYPES = (PacketType.MAPPER_SCOUT, PacketType.MAPPER_REPLY,
                 PacketType.MAPPER_CONFIG, PacketType.MAPPER_DONE,
                 PacketType.MAPPER_QUERY, PacketType.MAPPER_PORTINFO)


class SwitchPort:
    """One port of a switch; the endpoint object links attach to."""

    def __init__(self, switch: "Switch", index: int):
        self.switch = switch
        self.index = index
        self.link = None  # set when cabled
        self.name = "%s.p%d" % (switch.name, index)

    def deliver_packet(self, packet: Packet) -> bool:
        return self.switch._arrived(self.index, packet)

    def __repr__(self) -> str:
        return "<%s>" % self.name


class Switch:
    """An N-port source-routing crossbar."""

    def __init__(self, sim: Simulator, switch_id: int, nports: int = 8,
                 tracer: Optional[Tracer] = None):
        if nports < 2:
            raise ValueError("a switch needs at least 2 ports")
        self.sim = sim
        self.switch_id = switch_id
        self.name = "sw%d" % switch_id
        self.nports = nports
        self.ports: List[SwitchPort] = [SwitchPort(self, i)
                                        for i in range(nports)]
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.forwarded = 0
        self.absorbed = 0       # packets whose route ended here
        self.misrouted = 0      # invalid or uncabled output port
        self.dead_ports: set = set()   # killed ports (netfault injection)
        self.dead_port_drops = 0
        self.queries_answered = 0
        self.tier: Optional[str] = None  # set by Clos/fat-tree generators

    def port(self, index: int) -> SwitchPort:
        return self.ports[index]

    # -- fault injection hooks ------------------------------------------------

    def kill_port(self, index: int) -> None:
        """Disable a port: traffic in or out of it is silently dropped.

        Models a failed switch port / line card without touching the
        cable object — the attached link stays 'up' but nothing crosses
        the crossbar through this port any more.
        """
        if not 0 <= index < self.nports:
            raise ValueError("switch %s has no port %d" % (self.name, index))
        self.dead_ports.add(index)
        self.tracer.emit(self.sim.now, self.name, "switch_port_kill",
                         port=index)

    def revive_port(self, index: int) -> None:
        self.dead_ports.discard(index)
        self.tracer.emit(self.sim.now, self.name, "switch_port_revive",
                         port=index)

    def _arrived(self, in_port: int, packet: Packet) -> bool:
        if in_port in self.dead_ports:
            self.dead_port_drops += 1
            self.tracer.emit(self.sim.now, self.name, "switch_dead_port_drop",
                             port=in_port, packet=packet.describe())
            return False
        if packet.ptype == PacketType.MAPPER_SCOUT and packet.flood \
                and not packet.route:
            # A directed scout routes its prefix first (popping bytes
            # below) and floods only once the route is exhausted — the
            # hierarchical mapper's per-leaf discovery.
            return self._flood(in_port, packet)
        if not packet.route:
            if packet.ptype == PacketType.MAPPER_QUERY:
                return self._answer_query(in_port, packet)
            # Route exhausted inside the fabric: the packet dies here.
            # (Mapper scouts probing a switch-terminated route do this.)
            self.absorbed += 1
            self.tracer.emit(self.sim.now, self.name, "switch_absorb",
                             packet=packet.describe())
            return False
        out_index = packet.route.pop(0)
        if packet.ptype in _MAPPER_TYPES:
            packet.ingress_ports.append(in_port)
        if out_index in self.dead_ports:
            self.dead_port_drops += 1
            self.tracer.emit(self.sim.now, self.name, "switch_dead_port_drop",
                             port=out_index, packet=packet.describe())
            return False
        if not 0 <= out_index < self.nports \
                or self.ports[out_index].link is None \
                or out_index == in_port:
            self.misrouted += 1
            self.tracer.emit(self.sim.now, self.name, "switch_misroute",
                             out_port=out_index, packet=packet.describe())
            return False
        out_port = self.ports[out_index]
        out_port.link.transmit(out_port, packet, self._count_forward,
                               SWITCH_LATENCY)
        return True

    def port_info(self) -> dict:
        """What management firmware can see of this switch's ports.

        For every cabled port: what hangs off the far end (a host NIC's
        node id, or a peer switch and its port), whether the cable is up
        and whether the local port is dead.  The hierarchical mapper
        builds its switch graph from these answers — the same mild
        idealization as replication-in-switch (DESIGN.md): real Myrinet
        management gets this from per-hop probe packets.
        """
        ports = {}
        for port in self.ports:
            if port.link is None:
                continue
            far = port.link.other(port)
            entry = {
                "up": port.link.up,
                "dead": port.index in self.dead_ports,
            }
            if isinstance(far, SwitchPort):
                entry["kind"] = "switch"
                entry["switch"] = far.switch.switch_id
                entry["port"] = far.index
            else:
                entry["kind"] = "host"
                entry["node"] = far.nic.node_id
            ports[port.index] = entry
        return {"switch": self.switch_id, "nports": self.nports,
                "ports": ports}

    def _answer_query(self, in_port: int, packet: Packet) -> bool:
        """Answer a mapper port-census query out the port it came in on.

        The reply is source-routed back over the reversed ingress stamps
        the query accumulated, exactly like a host's scout reply.
        """
        self.queries_answered += 1
        reply = Packet(PacketType.MAPPER_PORTINFO,
                       src_node=-1 - self.switch_id,
                       dest_node=packet.src_node,
                       route=list(reversed(packet.ingress_ports)),
                       control=self.port_info())
        self.tracer.emit(self.sim.now, self.name, "switch_query_answered",
                         to=packet.src_node)
        port = self.ports[in_port]
        port.link.transmit(port, reply, self._count_forward, SWITCH_LATENCY)
        return True

    def _count_forward(self) -> None:
        # ``forwarded`` counts far-end acceptances; with delivery decoupled
        # from transmission the link reports acceptance through this
        # callback.
        self.forwarded += 1

    def _flood(self, in_port: int, packet: Packet) -> bool:
        """Replicate a mapper scout out every cabled port except ingress.

        Real GM maps with waves of scout packets; replication-in-switch
        is our idealization of one wave (see DESIGN.md).  TTL bounds the
        flood on cyclic topologies.
        """
        if packet.ttl <= 0:
            self.absorbed += 1
            return False
        sent_any = False
        for out_port in self.ports:
            if out_port.index == in_port or out_port.link is None \
                    or out_port.index in self.dead_ports:
                continue
            copy = packet.clone_flood_copy(in_port, out_port.index)
            out_port.link.transmit(out_port, copy, self._count_forward,
                                   SWITCH_LATENCY)
            sent_any = True
        return sent_any

    def ckpt_state(self) -> dict:
        """Snapshot contract: crossbar counters and injected port faults."""
        return {
            "name": self.name,
            "tier": self.tier,
            "nports": self.nports,
            "forwarded": self.forwarded,
            "absorbed": self.absorbed,
            "misrouted": self.misrouted,
            "dead_ports": sorted(self.dead_ports),
            "dead_port_drops": self.dead_port_drops,
            "queries_answered": self.queries_answered,
        }
