"""One-call construction of a simulated Myrinet cluster.

Builds the paper's testbed shape — N hosts, each with a LANai9 NIC,
star-cabled to one 8-port switch — loads GM or FTGM on every node, and
runs the mapper so routes exist.  Everything the benchmarks and examples
need starts from here.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from .hw.host import Host
from .hw.nic import Nic
from .net.fabric import Fabric
from .net.mapper import make_mapper
from .sim import SeededRng, Simulator, Tracer

__all__ = ["Node", "MyrinetCluster", "build_cluster",
           "build_cluster_from_spec"]


class Node:
    """One cluster node: host machine + NIC + driver (+ open ports)."""

    def __init__(self, node_id: int, host: Host, nic: Nic, driver):
        self.node_id = node_id
        self.host = host
        self.nic = nic
        self.driver = driver

    @property
    def mcp(self):
        return self.driver.mcp

    def __repr__(self) -> str:
        return "Node(%d)" % self.node_id


class MyrinetCluster:
    """A booted cluster, ready for traffic."""

    def __init__(self, sim: Simulator, nodes: List[Node], fabric: Fabric,
                 switch, tracer: Tracer, rng: SeededRng, flavor: str,
                 topology: str = "star"):
        self.sim = sim
        self.nodes = nodes
        self.fabric = fabric
        self.switch = switch            # first switch (back-compat handle)
        self.switches = fabric.switches
        self.tracer = tracer
        self.rng = rng
        self.flavor = flavor
        self.topology = topology
        # Continuous-telemetry plane: wired by build_cluster only when
        # the sampling / flight-recorder intents are set; None otherwise.
        self.sampler = None
        self.flight = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, index: int) -> Node:
        return self.nodes[index]

    def map_network(self, mapper_node: int = 0) -> Generator:
        """Process: run the GM mapper from ``mapper_node``.

        Clos/fat-tree fabrics use the hierarchical two-phase mapper
        (switch-graph census, then per-leaf discovery); everything else
        keeps the paper's flat flood.
        """
        mapper = make_mapper(
            self.nodes[mapper_node].mcp.mapper_agent,
            hierarchical=self.topology in ("clos", "fat-tree"),
            expected_nodes=len(self.nodes))
        found = yield from mapper.run()
        return found

    def boot(self) -> None:
        """Run the mapper to completion (advances simulated time)."""
        done = []

        def _boot():
            found = yield from self.map_network()
            done.append(found)

        self.sim.spawn(_boot(), name="cluster-boot")
        limit = self.sim.now + 10_000_000.0
        while not done and self.sim.peek() <= limit:
            self.sim.step()
        if not done:
            raise RuntimeError("cluster mapping did not complete")

    def ftds(self) -> List:
        """The fault-tolerance daemons (FTGM clusters only)."""
        return [node.driver.ftd for node in self.nodes
                if getattr(node.driver, "ftd", None) is not None]


def _driver_class(flavor):
    if not isinstance(flavor, str):
        return flavor  # a driver class (ablation variants pass one)
    if flavor == "gm":
        from .gm.driver import GmDriver
        return GmDriver
    if flavor == "ftgm":
        from .ftgm.driver import FtgmDriver
        return FtgmDriver
    raise ValueError("unknown flavor %r (use 'gm' or 'ftgm')" % flavor)


#: Clusters at or above this size default to lazy node parking (see
#: ``repro.gm.mcp``): idle MCPs quiesce off the event wheel entirely.
#: Below it the historical always-ticking execution is kept, so every
#: pre-existing (small) experiment stays byte-identical.  REPRO_LAZY=1/0
#: forces the mode either way.
LAZY_AUTO_THRESHOLD = 16


def build_cluster(n_nodes: int = 2, flavor: str = "gm", seed: int = 0,
                  trace: bool = False,
                  interpreted_nodes: Optional[List[int]] = None,
                  boot: bool = True,
                  start_ftd: bool = True,
                  topology: str = "star",
                  n_switches: Optional[int] = None,
                  radix: Optional[int] = None,
                  lazy: Optional[bool] = None) -> MyrinetCluster:
    """Build (and by default boot) an N-node Myrinet cluster.

    ``interpreted_nodes`` lists node ids whose MCP runs ``send_chunk`` on
    the LANai interpreter (the fault-injection target); all other nodes
    use the fast native model.

    ``topology`` selects the fabric shape:

    * ``"star"`` (default) — the paper's testbed: one switch, every NIC
      on it.  Byte-identical to the historical single-switch bring-up.
    * ``"ring"`` — ``n_switches`` (default 2) M3M-SW8-like switches in a
      ring; NICs spread across them in contiguous blocks.  A 2-switch
      ring has two independent uplinks, so a severed uplink leaves an
      alternate path — the redundant fabric the netfault reroute
      experiments need.
    * ``"tree"`` — a root switch over ``n_switches`` (default 2) leaf
      switches.  No redundancy: a severed uplink genuinely partitions
      that leaf.
    * ``"clos"`` — a two-tier leaf-spine Clos: ``n_switches`` (default
      2) spines over as many ``radix``-port leaves as the node count
      needs; every leaf pair has ``n_switches`` equal-cost paths.
    * ``"fat-tree"`` — a 3-tier radix-``radix`` (default 8) fat-tree
      with only the pods the node count needs; cross-pod pairs have
      ``(radix/2)**2`` equal-cost paths.

    ``radix`` is the per-switch port count of the Clos/fat-tree
    generators (ignored by the small topologies).  Clos/fat-tree
    clusters boot through the hierarchical mapper and, at
    ``LAZY_AUTO_THRESHOLD`` nodes or more, default to lazy node parking
    (``lazy``/``REPRO_LAZY`` override).
    """
    if n_nodes < 2:
        raise ValueError("a cluster needs at least 2 nodes")
    if topology not in ("star", "ring", "tree", "clos", "fat-tree"):
        raise ValueError("unknown topology %r (use star, ring, tree, "
                         "clos or fat-tree)" % (topology,))
    sim = Simulator()
    from .obs import runtime as obs_runtime
    if trace:
        tracer = Tracer(enabled=True)
    elif obs_runtime.tracing():
        # Engine-requested trace capture (--trace): record everything
        # except the idle-tick heartbeat, which would swamp the trace
        # with ~2k records per simulated millisecond.
        from .obs.spans import forced_trace_kinds
        tracer = Tracer(enabled=True, kinds=forced_trace_kinds())
    else:
        tracer = Tracer(enabled=False)
    flight = None
    if obs_runtime.flight_on():
        from .obs.flightrec import FlightRecorder
        flight = FlightRecorder()
        flight.attach(tracer)
        obs_runtime.note_flight(flight)
    rng = SeededRng(seed, "cluster")
    driver_cls = _driver_class(flavor)
    interpreted = set(interpreted_nodes or [])

    fabric = Fabric(sim, tracer)
    nodes: List[Node] = []
    nics: List[Nic] = []
    for node_id in range(n_nodes):
        host = Host(sim, "host%d" % node_id, tracer)
        nic = Nic(sim, host, node_id, tracer=tracer)
        nics.append(nic)
        driver = driver_cls(sim, host, nic, tracer,
                            interpreted=node_id in interpreted)
        nodes.append(Node(node_id, host, nic, driver))
    if topology == "star":
        switch = fabric.star(nics)
    elif topology == "ring":
        switches = fabric.ring(nics, n_switches=n_switches or 2)
        switch = switches[0]
    elif topology == "tree":
        switches = fabric.tree(nics, n_leaves=n_switches or 2)
        switch = switches[0]
    elif topology == "clos":
        switches = fabric.clos(nics, n_spines=n_switches or 2,
                               nports=radix or 8)
        switch = switches[0]
    else:  # fat-tree
        switches = fabric.fat_tree(nics, nports=radix or 8)
        switch = switches[0]

    hierarchical = topology in ("clos", "fat-tree")
    if lazy is None:
        lazy = n_nodes >= LAZY_AUTO_THRESHOLD
    for node in nodes:
        node.driver.hierarchical_mapper = hierarchical
        node.driver.lazy_nodes = lazy
        node.driver.load_mcp()
        if start_ftd and hasattr(node.driver, "start_ftd"):
            node.driver.start_ftd()

    cluster = MyrinetCluster(sim, nodes, fabric, switch, tracer, rng, flavor,
                             topology=topology)
    cluster.flight = flight
    every = obs_runtime.sample_every()
    if every is not None:
        from .obs.timeseries import TimeSeriesSampler
        cluster.sampler = TimeSeriesSampler(cluster, every, flight=flight)
    if boot:
        cluster.boot()
    return cluster


def build_cluster_from_spec(spec, seed: int = 0,
                            **overrides) -> MyrinetCluster:
    """Build a cluster from a :class:`repro.exp.spec.ClusterSpec`.

    The experiment engine describes clusters declaratively; this is the
    bridge from that description to :func:`build_cluster`.  ``overrides``
    pass through (``trace=``, ``boot=``, ...).
    """
    return build_cluster(
        n_nodes=spec.n_nodes,
        flavor=spec.flavor,
        seed=seed,
        topology=spec.topology,
        n_switches=spec.n_switches or None,
        radix=getattr(spec, "radix", 0) or None,
        interpreted_nodes=list(spec.interpreted_nodes) or None,
        **overrides)
