"""Correlated-fault campaigns on Clos/fat-tree fabrics (``closfault``).

The flat netfault campaign (:mod:`repro.netfaults.campaign`) cuts one
link of a two-switch ring; multi-tier fabrics fail differently — whole
switches die, several equal-cost paths vanish at once, repairs land
while recovery from the previous fault is still in flight.  This module
drives those *compound* scenarios over the shared netfault machinery
(same workload, same outcome classification, same Table-3-style
recovery breakdown) on fat-tree/Clos clusters, as an ``ftgm`` × ``gm``
flavor grid so each row shows what the fault-tolerance machinery buys:

* ``rack-loss`` — the destination's edge (leaf) switch dies whole and
  comes back ``rack_down_us`` later: a genuine partition no reroute can
  bridge, recovered by Go-Back-N retransmission after the repair;
* ``spine-loss`` — the mid-route spine/core switch dies, killing every
  path through it at once; the hierarchical mapper reroutes over the
  surviving equal-cost paths (the positive ECMP-recovery case);
* ``cascade`` — staged severing of the uplinks on the watched route,
  each cut landing while the reroute from the previous one may still be
  converging;
* ``repair-flap`` — an uplink is cut, repaired mid-recovery, and a
  second uplink cut right after: repair-during-repair.

Scenario victims are drawn from :meth:`NetworkFaultPlane.scenario_rng`
children, so adding a scenario to a campaign never perturbs another's
draws and same-seed campaigns render byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..cluster import build_cluster
from ..net.fabric import clos_dimensions, fat_tree_dimensions
from ..net.switch import SwitchPort
from ..sim import SeededRng
from .campaign import (
    NetFaultCampaignResult,
    NetFaultConfig,
    NetFaultOutcome,
    resume_netfault,
)

__all__ = [
    "CLOS_SCENARIOS",
    "ClosFaultConfig",
    "ClosFaultCampaignResult",
    "cross_fabric_pairs",
    "inject_closfault",
    "boot_closfault",
    "resume_closfault",
    "run_closfault_injection",
]

CLOS_SCENARIOS = ["rack-loss", "spine-loss", "cascade", "repair-flap"]

#: Hop budget for detector escalation scouts: 5 hops reaches any host
#: of a 3-tier fat-tree (edge-agg-core-agg-edge); the mapper default (8)
#: would flood every equal-cost path three tiers deep.
DETECTOR_SCOUT_TTL = 5


@dataclass
class ClosFaultConfig(NetFaultConfig):
    """One closfault run: a compound scenario on a multi-tier fabric.

    ``scenario`` holds the campaign cell name (``"rack-loss/ftgm"``);
    the fault kind in front of the slash selects the injection.
    """

    flavor: str = "ftgm"
    # The default 6-message/2ms-gap stream spans ~12 ms; the inherited
    # (2, 14) ms window could land a fault after the last delivery,
    # testing nothing.  Keep every compound fault mid-stream.
    fault_window_us: Tuple[float, float] = (2_000.0, 9_000.0)
    rack_down_us: float = 30_000.0     # rack-loss repair delay
    cascade_stagger_us: float = 3_000.0
    flap_revive_us: float = 8_000.0    # repair-flap: cut -> repair gap
    second_cut_us: float = 16_000.0    # repair-flap: second cut offset

    @property
    def kind(self) -> str:
        return self.scenario.split("/")[0]


def cross_fabric_pairs(n_nodes: int, topology: str = "fat-tree",
                       radix: int = 8, n_spines: int = 2,
                       n_pairs: int = 2) -> List[Tuple[int, int]]:
    """Deterministic (src, dst) pairs crossing the fabric's top tier.

    Each dst sits one pod (fat-tree) or one rack (Clos) over from its
    src at the same rack offset, so every flow traverses the
    spine/core stage — the stage the compound scenarios attack.  All
    endpoints are distinct (the campaign's sender/receiver processes
    claim fixed port ids per node).
    """
    if topology == "fat-tree":
        half, _pods = fat_tree_dimensions(n_nodes, radix)
        span = half * half
        rack = half
    elif topology == "clos":
        rack, _leaves = clos_dimensions(n_nodes, n_spines, radix)
        span = rack
    else:
        raise ValueError("closfault needs a clos or fat-tree fabric, "
                         "got %r" % (topology,))
    # Partially-populated fabrics may not fill one pod; fall back to the
    # widest stride that still crosses a switch boundary.
    if span >= n_nodes:
        span = rack if rack < n_nodes else n_nodes // 2
    if span < 1:
        raise ValueError("cluster of %d nodes too small for cross-rack "
                         "pairs" % n_nodes)
    pairs: List[Tuple[int, int]] = []
    used: set = set()
    src = 0
    while len(pairs) < n_pairs:
        if src >= n_nodes:
            raise ValueError(
                "%d nodes cannot host %d disjoint cross-fabric pairs"
                % (n_nodes, n_pairs))
        dst = (src + span) % n_nodes
        if src in used or dst in used or src == dst:
            src += 1
            continue
        pairs.append((src, dst))
        used.update((src, dst))
        src += 1
    return pairs


# -- route inspection ----------------------------------------------------------


def _switches_on_route(fabric, cluster, src: int, dst: int) -> List:
    """The switches a packet from ``src`` to ``dst`` traverses, in hop
    order (walks the installed source route without sending anything)."""
    route = cluster[src].mcp.routing_table.get(dst)
    if not route:
        return []
    port = fabric.nic_ports[src]
    end = port.link.other(port)
    switches = []
    for byte in route:
        if not isinstance(end, SwitchPort):
            break
        switches.append(end.switch)
        out = end.switch.ports[byte]
        if out.link is None:
            break
        end = out.link.other(out)
    return switches


def _edge_of(fabric, node_id: int):
    """The leaf/edge switch a host hangs off."""
    port = fabric.nic_ports[node_id]
    return port.link.other(port).switch


# -- the compound injections ---------------------------------------------------


def inject_closfault(config: ClosFaultConfig, plane, cluster,
                     rng: SeededRng, fault_at: float) -> None:
    """Arm one compound scenario against the first workload pair."""
    kind = config.kind
    src, dst = config.pairs[0]
    srng = plane.scenario_rng(kind)
    route = cluster[src].mcp.routing_table.get(dst) or []
    uplinks = set(plane.fabric.inter_switch_links())
    on_path = [link for link in plane.links_on_route(src, route)
               if link in uplinks]
    switches = _switches_on_route(plane.fabric, cluster, src, dst)

    if kind == "rack-loss":
        edge = _edge_of(plane.fabric, dst)
        plane.kill_switch(edge, at=fault_at)
        plane.revive_switch(edge, at=fault_at + config.rack_down_us)
    elif kind == "spine-loss":
        # The mid-route switch is the top-tier one (leaf-spine-leaf on
        # a Clos, edge-agg-core-agg-edge on a fat-tree).
        if not switches:
            raise ValueError("no route %d -> %d to attack" % (src, dst))
        plane.kill_switch(switches[len(switches) // 2], at=fault_at)
    elif kind == "cascade":
        if not on_path:
            raise ValueError("route %d -> %d has no uplinks" % (src, dst))
        plane.cascade_cut(on_path[:2], at=fault_at,
                          stagger_us=config.cascade_stagger_us)
    elif kind == "repair-flap":
        if not on_path:
            raise ValueError("route %d -> %d has no uplinks" % (src, dst))
        first = on_path[0]
        plane.cut_link(first, at=fault_at)
        plane.restore_link(first, at=fault_at + config.flap_revive_us)
        others = [link for link in on_path[1:]] or [first]
        second = others[srng.randrange(len(others))]
        plane.cut_link(second, at=fault_at + config.second_cut_us)
    else:
        raise ValueError("unknown closfault scenario %r" % (kind,))


# -- boot / resume ------------------------------------------------------------


def boot_closfault(config: ClosFaultConfig):
    return build_cluster(config.n_nodes, flavor=config.flavor,
                         seed=config.seed, topology=config.topology,
                         n_switches=config.n_switches,
                         radix=config.radix or None)


def resume_closfault(cluster, config: ClosFaultConfig, pause_at=None):
    """Inject a compound scenario and classify, on a booted cluster.

    Detectors are armed only on workload-active nodes (with the 3-tier
    scout TTL): on a hundreds-of-nodes fabric the other nodes stay
    parked — a sweeping detector per idle node would keep every MCP
    awake for nothing.  ``pause_at`` passes straight through to
    :func:`repro.netfaults.campaign.resume_netfault`.
    """
    active = sorted({node for pair in (config.pairs or ())
                     for node in pair})
    return resume_netfault(
        cluster, config,
        inject_fn=inject_closfault,
        detector_nodes=active or None,
        detector_kwargs={"scout_ttl": DETECTOR_SCOUT_TTL},
        pause_at=pause_at)


def run_closfault_injection(config: ClosFaultConfig) -> NetFaultOutcome:
    return resume_closfault(boot_closfault(config), config)


# -- campaign aggregate --------------------------------------------------------


class ClosFaultCampaignResult(NetFaultCampaignResult):
    """Netfault aggregate with the closfault cell ordering."""

    TITLE = "Closfault campaign"

    def scenarios(self) -> List[str]:
        order = ["%s/%s" % (kind, flavor) for kind in CLOS_SCENARIOS
                 for flavor in ("ftgm", "gm")]
        present = [cell for cell in order if cell in self.counts]
        extras = sorted(cell for cell in self.counts
                        if cell not in present)
        return present + extras
