"""Topology construction: cables, switches and NIC attachment points.

A :class:`Fabric` owns the switches and links of one Myrinet network.
NICs attach through a :class:`NicPort` adapter that implements the link
endpoint protocol and hands arrivals to the NIC's receive ring.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..hw.nic import Nic
from ..sim import Simulator, Tracer
from .link import Link
from .switch import Switch, SwitchPort

__all__ = ["Fabric", "NicPort", "clos_dimensions", "fat_tree_dimensions"]


def clos_dimensions(n_nodes: int, n_spines: int = 2,
                    nports: int = 8) -> tuple:
    """Leaf-spine sizing shared by the generator and the fault campaigns.

    Returns ``(hosts_per_leaf, n_leaves)``: node ``i`` lives on leaf
    ``i // hosts_per_leaf`` at port ``i % hosts_per_leaf``.
    """
    if not 1 <= n_spines <= nports - 1:
        raise ValueError("clos needs 1 <= n_spines < nports, got %d/%d"
                         % (n_spines, nports))
    hosts_per_leaf = nports - n_spines
    n_leaves = max(2, -(-n_nodes // hosts_per_leaf))
    return hosts_per_leaf, n_leaves


def fat_tree_dimensions(n_nodes: int, nports: int = 8) -> tuple:
    """3-tier fat-tree sizing shared by the generator and the fault campaigns.

    A radix-``k`` fat-tree pod is ``k/2`` edge switches over ``k/2``
    hosts each; we build only as many pods as the host count needs (the
    ``(k/2)**2`` core switches always exist, so cross-pod multi-path is
    present even when the fabric is partially populated).  Returns
    ``(hosts_per_edge, n_pods)``: node ``i`` lives on edge switch
    ``i // hosts_per_edge`` at port ``i % hosts_per_edge``.
    """
    if nports < 4 or nports % 2:
        raise ValueError("fat-tree radix must be even and >= 4, got %d"
                         % nports)
    half = nports // 2
    hosts_per_pod = half * half
    n_pods = max(1, -(-n_nodes // hosts_per_pod))
    return half, n_pods


class NicPort:
    """Endpoint adapter binding a NIC's packet interface to a link."""

    def __init__(self, nic: Nic):
        self.nic = nic
        self.link: Optional[Link] = None
        self.name = "%s.port" % nic.name

    def deliver_packet(self, packet) -> bool:
        return self.nic.deliver_packet(packet)

    def transmit(self, packet, on_accept=None) -> float:
        """Put ``packet`` on this NIC's wire; returns its clear instant."""
        if self.link is None:
            raise RuntimeError("%s is not cabled" % self.name)
        return self.link.transmit(self, packet, on_accept)


class Fabric:
    """The set of switches, links and NIC attachments of one network."""

    def __init__(self, sim: Simulator, tracer: Optional[Tracer] = None):
        self.sim = sim
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.switches: List[Switch] = []
        self.links: List[Link] = []
        self.nic_ports: Dict[int, NicPort] = {}

    def add_switch(self, nports: int = 8) -> Switch:
        switch = Switch(self.sim, len(self.switches), nports, self.tracer)
        self.switches.append(switch)
        return switch

    def attach_nic(self, nic: Nic) -> NicPort:
        """Create the NIC's fabric attachment point (its one link port)."""
        if nic.node_id in self.nic_ports:
            raise ValueError("node %d already attached" % nic.node_id)
        port = NicPort(nic)
        self.nic_ports[nic.node_id] = port
        # Give the NIC a handle for its packet interface sends.
        nic.link = port
        return port

    def connect(self, end_a, end_b, **link_kwargs) -> Link:
        """Cable two endpoints (NicPort or SwitchPort) together."""
        for end in (end_a, end_b):
            if getattr(end, "link", None) is not None:
                raise ValueError("%s is already cabled" % end.name)
        link = Link(self.sim, end_a, end_b, tracer=self.tracer, **link_kwargs)
        end_a.link = link
        end_b.link = link
        self.links.append(link)
        return link

    def sample_counters(self) -> Dict[str, int]:
        """Fabric-wide counter totals for the continuous sampler.

        Pure reads over live per-element counters — safe to call at any
        simulated instant, any number of times.
        """
        return {
            "link.packets_carried":
                sum(link.packets_carried for link in self.links),
            "link.packets_corrupted":
                sum(link.packets_corrupted for link in self.links),
            "switch.forwarded":
                sum(switch.forwarded for switch in self.switches),
        }

    # -- convenience topologies ---------------------------------------------------

    def star(self, nics: List[Nic], nports: Optional[int] = None) -> Switch:
        """The paper's topology: every NIC cabled to one central switch.

        NIC for node ``i`` is cabled to switch port ``i``.
        """
        nports = nports or max(8, len(nics))
        switch = self.add_switch(nports)
        for index, nic in enumerate(nics):
            self.connect(self.attach_nic(nic), switch.port(index))
        return switch

    def _spread(self, nics: List[Nic], switches: List[Switch],
                slots: int) -> None:
        """Cable NICs over ``switches`` in balanced contiguous blocks.

        With ``per = ceil(len(nics) / len(switches))``, node ``i`` goes
        to switch ``i // per`` at port ``i % per`` — a deterministic
        placement every topology helper shares, and one that uses every
        switch (so even small clusters exercise inter-switch links).
        """
        per = (len(nics) + len(switches) - 1) // len(switches)
        if per > slots:
            raise ValueError(
                "%d NICs do not fit %d switches with %d NIC ports each"
                % (len(nics), len(switches), slots))
        for index, nic in enumerate(nics):
            switch = switches[index // per]
            self.connect(self.attach_nic(nic), switch.port(index % per))

    def ring(self, nics: List[Nic], n_switches: int = 2,
             nports: int = 8) -> List[Switch]:
        """A ring of M3M-SW8-like switches with NICs spread across them.

        Each switch reserves its two highest ports as uplinks: port
        ``nports-1`` cables to the *next* switch's port ``nports-2``
        (indices mod ``n_switches``).  A two-switch ring therefore has
        two independent inter-switch links — the smallest fabric with
        path redundancy, which is what the netfault reroute experiments
        need.  Returns the switches in ring order.
        """
        if n_switches < 2:
            raise ValueError("a ring needs at least 2 switches")
        slots = nports - 2  # uplinks occupy the top two ports
        switches = [self.add_switch(nports) for _ in range(n_switches)]
        self._spread(nics, switches, slots)
        for i, switch in enumerate(switches):
            nxt = switches[(i + 1) % n_switches]
            self.connect(switch.port(nports - 1), nxt.port(nports - 2))
        return switches

    def tree(self, nics: List[Nic], n_leaves: int = 2,
             nports: int = 8) -> List[Switch]:
        """A two-level tree: one root switch over ``n_leaves`` leaves.

        Leaf ``j`` uplinks from its port ``nports-1`` to root port ``j``;
        NICs are spread over the leaves' low ports.  No redundancy — a
        severed uplink genuinely partitions that leaf's nodes, the
        negative case for reroute recovery.  Returns ``[root, *leaves]``.
        """
        if n_leaves < 2:
            raise ValueError("a tree needs at least 2 leaf switches")
        if n_leaves > nports:
            raise ValueError("root switch has only %d ports" % nports)
        slots = nports - 1  # one uplink per leaf
        root = self.add_switch(nports)
        leaves = [self.add_switch(nports) for _ in range(n_leaves)]
        self._spread(nics, leaves, slots)
        for j, leaf in enumerate(leaves):
            self.connect(leaf.port(nports - 1), root.port(j))
        return [root] + leaves

    def clos(self, nics: List[Nic], n_spines: int = 2,
             nports: int = 8) -> List[Switch]:
        """A two-tier leaf-spine Clos fabric.

        Each leaf reserves its top ``n_spines`` ports as uplinks: port
        ``nports-1-s`` cables to spine ``s`` (at the spine's port for
        this leaf), so every leaf pair has ``n_spines`` equal-cost
        two-hop paths — the ECMP redundancy the hierarchical mapper
        spreads routes over.  NICs pack leaves in contiguous blocks
        (node ``i`` on leaf ``i // hosts_per_leaf``).  Returns
        ``[*leaves, *spines]``.
        """
        hosts_per_leaf, n_leaves = clos_dimensions(len(nics), n_spines,
                                                   nports)
        leaves = []
        for _ in range(n_leaves):
            leaf = self.add_switch(nports)
            leaf.tier = "leaf"
            leaves.append(leaf)
        spines = []
        for _ in range(n_spines):
            spine = self.add_switch(max(2, n_leaves))
            spine.tier = "spine"
            spines.append(spine)
        for index, nic in enumerate(nics):
            leaf = leaves[index // hosts_per_leaf]
            self.connect(self.attach_nic(nic),
                         leaf.port(index % hosts_per_leaf))
        for leaf_index, leaf in enumerate(leaves):
            for s, spine in enumerate(spines):
                self.connect(leaf.port(nports - 1 - s),
                             spine.port(leaf_index))
        return leaves + spines

    def fat_tree(self, nics: List[Nic], nports: int = 8) -> List[Switch]:
        """A 3-tier radix-``k`` fat-tree (k = ``nports``).

        Pods of ``k/2`` edge and ``k/2`` aggregation switches, with
        ``(k/2)**2`` cores on top; only as many pods are built as the
        host count needs.  Wiring follows the classic k-ary scheme:

        * edge ``e`` of a pod: hosts on ports ``0..k/2-1``; uplink port
          ``k/2+j`` to the pod's agg ``j`` (at agg port ``e``);
        * agg ``j`` of pod ``p``: uplink port ``k/2+c`` to core
          ``j*(k/2)+c`` (at core port ``p``).

        Cross-pod host pairs therefore have ``(k/2)**2`` equal-cost
        five-hop paths and the edge-level min-cut is ``k/2``.  Returns
        ``[*edges, *aggs, *cores]`` (ids in that order).
        """
        half, n_pods = fat_tree_dimensions(len(nics), nports)
        n_edges = n_pods * half
        edges = []
        for _ in range(n_edges):
            edge = self.add_switch(nports)
            edge.tier = "edge"
            edges.append(edge)
        aggs = []
        for _ in range(n_pods * half):
            agg = self.add_switch(nports)
            agg.tier = "agg"
            aggs.append(agg)
        cores = []
        for _ in range(half * half):
            core = self.add_switch(max(2, n_pods))
            core.tier = "core"
            cores.append(core)
        for index, nic in enumerate(nics):
            self.connect(self.attach_nic(nic),
                         edges[index // half].port(index % half))
        for edge_index, edge in enumerate(edges):
            pod = edge_index // half
            e = edge_index % half
            for j in range(half):
                self.connect(edge.port(half + j),
                             aggs[pod * half + j].port(e))
        for agg_index, agg in enumerate(aggs):
            pod = agg_index // half
            j = agg_index % half
            for c in range(half):
                self.connect(agg.port(half + c),
                             cores[j * half + c].port(pod))
        return edges + aggs + cores

    def inter_switch_links(self) -> List[Link]:
        """Links whose both ends are switch ports (fault-plane targets)."""
        return [link for link in self.links
                if isinstance(link.end_a, SwitchPort)
                and isinstance(link.end_b, SwitchPort)]
