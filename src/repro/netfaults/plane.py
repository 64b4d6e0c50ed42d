"""The network fault plane: links and switches as fault targets.

The paper scopes fault tolerance to NIC-processor hangs and leaves link
and switch failures to "Myrinet's CRC and remapping machinery"; this
module is the injection side of exercising that machinery.  A
:class:`NetworkFaultPlane` wraps one :class:`~repro.net.fabric.Fabric`
and can — immediately or at a scheduled simulated time — sever or flap a
link, kill a switch port, or install CRC-level packet corruption, drops
and duplications on a link.

Determinism: every stochastic decision draws from a per-component child
of the plane's :class:`~repro.sim.SeededRng` (keyed by the component's
stable index in the fabric), so adding a corruptor to one link never
perturbs another link's stream and same-seed runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from ..net.fabric import Fabric
from ..net.link import Link
from ..net.switch import Switch, SwitchPort
from ..sim import SeededRng, Simulator, Tracer

__all__ = ["NetworkFaultPlane", "FaultAction"]

# Placeholder arming time for branch execution: far beyond any
# experiment horizon, so an un-adopted placeholder can never fire.
_FAR_FUTURE = 1e15


@dataclass
class FaultAction:
    """Audit record of one fault-plane action (deterministic order)."""

    at: float
    action: str
    target: str


class _ArmSlot:
    """One branch placeholder: a parked waiter awaiting adoption."""

    __slots__ = ("fn", "name", "process", "timeout")

    def __init__(self, fn, name: str):
        self.fn = fn
        self.name = name
        self.process = None
        self.timeout = None


class NetworkFaultPlane:
    """Injects link/switch faults into one fabric."""

    def __init__(self, sim: Simulator, fabric: Fabric, rng: SeededRng,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.fabric = fabric
        self.rng = rng
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.actions: List[FaultAction] = []
        # Progress-rule inputs: actions armed but not yet fired, and the
        # instant the last one fired (an application-visible change).
        self.armed = 0
        self.fired_at = float("-inf")
        # Branch-execution support (see repro.ckpt.branch): in capture
        # mode _schedule records (at, fn, name) instead of arming;
        # branch slots are placeholder waiters a forked child later
        # adopts by rewriting their wheel entries to true fire times.
        self._capture: Optional[list] = None
        self._branch_slots: Optional[List[_ArmSlot]] = None

    # -- component addressing -------------------------------------------------

    def link_index(self, link: Link) -> int:
        return self.fabric.links.index(link)

    def link_rng(self, link: Link) -> SeededRng:
        """The deterministic per-link child stream."""
        return self.rng.spawn("link%d" % self.link_index(link))

    def scenario_rng(self, name: str) -> SeededRng:
        """A deterministic child stream for one compound scenario.

        Compound scenarios (rack loss, cascades) draw victims and
        stagger times from their own named child, so adding a scenario
        to a campaign never perturbs the draws of another.
        """
        return self.rng.spawn("scenario/%s" % name)

    def links_on_route(self, src_node: int,
                       route: Sequence[int]) -> List[Link]:
        """The links a source-routed packet from ``src_node`` traverses.

        Walks the fabric the way the switches would (route bytes are
        absolute output ports) without sending anything.  Lets an
        experiment target the link actually carrying a flow instead of
        guessing — e.g. ``inter_switch_links()`` ∩ ``links_on_route()``
        finds the in-use uplink.
        """
        port = self.fabric.nic_ports[src_node]
        links = [port.link]
        end = port.link.other(port)
        for byte in route:
            if not isinstance(end, SwitchPort):
                break
            out = end.switch.ports[byte]
            if out.link is None:
                break
            links.append(out.link)
            end = out.link.other(out)
        return links

    def _record(self, action: str, target: str) -> None:
        self.actions.append(FaultAction(self.sim.now, action, target))
        self.tracer.emit(self.sim.now, "netfaults", action, target=target)

    def _schedule(self, at: float, fn, name: str) -> None:
        """Run ``fn()`` at absolute simulated time ``at``."""
        if self._capture is not None:
            self._capture.append((at, fn, name))
            return
        delay = at - self.sim.now
        if delay <= 0:
            self._fire(fn)
            return

        def waiter() -> Generator:
            yield self.sim.timeout(delay)
            self.armed -= 1
            self._fire(fn)

        self.armed += 1
        self.sim.spawn(waiter(), name="netfaults.%s" % name)

    def _fire(self, fn) -> None:
        self.fired_at = self.sim.now
        fn()

    # -- branch execution (repro.ckpt.branch) ---------------------------------

    def begin_capture(self) -> None:
        """Record scheduled actions instead of arming them.

        Used twice by branch execution: in the parent to learn the shape
        of a run's fault schedule (how many arms, what names) without
        touching the wheel, and in the child to collect the true
        ``(at, fn, name)`` tuples that :meth:`adopt_captured` grafts
        onto the parent's placeholders.
        """
        if self._capture is not None:
            raise RuntimeError("fault-plane capture already active")
        self._capture = []

    def drain_capture(self) -> list:
        captured, self._capture = self._capture, None
        if captured is None:
            raise RuntimeError("fault-plane capture was not active")
        return captured

    def arm_branch_slots(self, captured: Sequence) -> None:
        """Arm one far-future placeholder waiter per captured action.

        Each placeholder consumes exactly the seq/ids a cold run's
        ``_schedule`` arm would — one process spawn (whose bootstrap
        resume takes a heap entry) plus one timeout allocated at first
        resume — so the parent's event wheel stays entry-for-entry
        congruent with a cold boot.  A forked child later calls
        :meth:`adopt_captured` to rewrite the placeholders to its own
        fault schedule; in the parent they sit parked at ``_FAR_FUTURE``
        and never fire.
        """
        if self._branch_slots is not None:
            raise RuntimeError("branch slots already armed")
        sim = self.sim
        slots: List[_ArmSlot] = []
        for at, fn, name in captured:
            if at <= sim.now:
                raise RuntimeError(
                    "cannot branch-arm a fault action in the past "
                    "(at=%r, now=%r)" % (at, sim.now))
            slot = _ArmSlot(fn, name)

            def waiter(slot: _ArmSlot = slot) -> Generator:
                slot.timeout = self.sim.timeout(_FAR_FUTURE - self.sim.now)
                yield slot.timeout
                self.armed -= 1
                self._fire(slot.fn)

            self.armed += 1
            slot.process = sim.spawn(waiter(),
                                     name="netfaults.%s" % name)
            slots.append(slot)
        self._branch_slots = slots

    def adopt_captured(self, captured: Sequence) -> None:
        """Graft a child's true fault schedule onto the placeholders.

        For placeholder *k* and captured action *k*: swap in the real
        callback, rename the waiter process, and rewrite the
        placeholder timeout's wheel entry from ``(_FAR_FUTURE, seq)``
        to ``(at_k, seq)``.  ``Timeout`` objects store no time of their
        own — the fire time lives only in the heap tuple — so rewriting
        the tuple and re-heapifying is sufficient and exact: pop order
        is decided by the globally unique ``(when, seq)`` key, and the
        seq values are the very ones a cold run's arms would have drawn.
        """
        import heapq
        slots = self._branch_slots
        if slots is None:
            raise RuntimeError("no branch slots armed")
        if len(captured) != len(slots):
            raise RuntimeError(
                "branch schedule shape mismatch: %d placeholder(s) armed "
                "but child captured %d action(s) — fault-action counts "
                "must be seed-independent within a branch group"
                % (len(slots), len(captured)))
        rewrites = {}
        for slot, (at, fn, name) in zip(slots, captured):
            if slot.timeout is None:
                raise RuntimeError(
                    "placeholder %r not yet armed (run the simulator past "
                    "the arm point before adopting)" % (slot.name,))
            slot.fn = fn
            slot.name = name
            slot.process.name = "netfaults.%s" % name
            rewrites[id(slot.timeout)] = at
        queue = self.sim._queue
        changed = 0
        for i, entry in enumerate(queue):
            at = rewrites.get(id(entry[2]))
            if at is not None:
                queue[i] = (at, entry[1], entry[2])
                changed += 1
        if changed != len(rewrites):
            raise RuntimeError(
                "only %d of %d placeholder timeouts found on the wheel"
                % (changed, len(rewrites)))
        heapq.heapify(queue)
        self._branch_slots = None

    def ckpt_state(self) -> dict:
        """Snapshot contract: the audit log and branch bookkeeping."""
        return {
            "actions": [[a.at, a.action, a.target] for a in self.actions],
            "branch_slots": (len(self._branch_slots)
                             if self._branch_slots is not None else 0),
            "capturing": self._capture is not None,
        }

    # -- link faults ----------------------------------------------------------

    def cut_link(self, link: Link, at: Optional[float] = None) -> None:
        """Sever a link (now, or at simulated time ``at``)."""
        def act() -> None:
            link.cut()
            self._record("cut_link", link.describe_ends())
        self._schedule(at if at is not None else self.sim.now, act, "cut")

    def restore_link(self, link: Link, at: Optional[float] = None) -> None:
        def act() -> None:
            link.restore()
            self._record("restore_link", link.describe_ends())
        self._schedule(at if at is not None else self.sim.now, act,
                       "restore")

    def flap_link(self, link: Link, at: float, down_for: float) -> None:
        """Sever a link at ``at`` and restore it ``down_for`` later."""
        self.cut_link(link, at=at)
        self.restore_link(link, at=at + down_for)

    # -- switch faults --------------------------------------------------------

    def kill_switch_port(self, switch: Switch, port: int,
                         at: Optional[float] = None) -> None:
        """Kill a switch port (traffic through it silently dropped)."""
        def act() -> None:
            switch.kill_port(port)
            self._record("kill_switch_port", "%s.p%d" % (switch.name, port))
        self._schedule(at if at is not None else self.sim.now, act, "kill")

    def revive_switch_port(self, switch: Switch, port: int,
                           at: Optional[float] = None) -> None:
        def act() -> None:
            switch.revive_port(port)
            self._record("revive_switch_port",
                         "%s.p%d" % (switch.name, port))
        self._schedule(at if at is not None else self.sim.now, act,
                       "revive")

    # -- compound faults ------------------------------------------------------

    def kill_switch(self, switch: Switch,
                    at: Optional[float] = None) -> None:
        """Kill every cabled port of a switch at once (rack/spine loss).

        Models a whole switch dying — power, backplane — in one
        instant: everything behind a leaf partitions simultaneously and
        every equal-cost path through a spine vanishes at once.
        """
        def act() -> None:
            for port in switch.ports:
                if port.link is not None:
                    switch.kill_port(port.index)
            self._record("kill_switch", switch.name)
        self._schedule(at if at is not None else self.sim.now, act,
                       "kill-sw")

    def revive_switch(self, switch: Switch,
                      at: Optional[float] = None) -> None:
        def act() -> None:
            for port in list(switch.dead_ports):
                switch.revive_port(port)
            self._record("revive_switch", switch.name)
        self._schedule(at if at is not None else self.sim.now, act,
                       "revive-sw")

    def cascade_cut(self, links: Sequence[Link], at: float,
                    stagger_us: float = 0.0) -> None:
        """Sever several links in sequence, ``stagger_us`` apart.

        ``stagger_us = 0`` is a correlated simultaneous failure; a
        positive stagger models a spreading fault (each cut lands while
        recovery from the previous one may still be in flight).
        """
        for index, link in enumerate(links):
            self.cut_link(link, at=at + index * stagger_us)

    # -- packet-level faults --------------------------------------------------

    def corrupt_on_link(self, link: Link, rate: float,
                        modes: Sequence[str] = ("corrupt", "drop",
                                                "duplicate"),
                        at: Optional[float] = None,
                        until: Optional[float] = None) -> None:
        """Install a stochastic packet mangler on ``link``.

        Each packet crossing the link (either direction) is hit with
        probability ``rate``; the failure mode is drawn uniformly from
        ``modes`` ('corrupt' flips a payload bit without fixing the CRC,
        'drop' loses the packet, 'duplicate' delivers it twice).  The
        per-link RNG child makes the decision sequence deterministic.
        Active from ``at`` (default now) until ``until`` (default
        forever); :meth:`clear_link_faults` removes it early.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        bad = [m for m in modes if m not in ("corrupt", "drop", "duplicate")]
        if bad:
            raise ValueError("unknown corruption mode(s): %r" % (bad,))
        link_rng = self.link_rng(link)

        def fault_filter(packet):
            if link_rng.random() >= rate:
                return False
            mode = modes[link_rng.randrange(len(modes))]
            return True if mode == "drop" else mode

        def install() -> None:
            link.fault_filter = fault_filter
            self._record("corrupt_on_link",
                         "%s rate=%.3f" % (link.describe_ends(), rate))

        self._schedule(at if at is not None else self.sim.now, install,
                       "corrupt")
        if until is not None:
            def remove() -> None:
                if link.fault_filter is fault_filter:
                    link.fault_filter = None
                    self._record("clear_link_faults", link.describe_ends())
            self._schedule(until, remove, "uncorrupt")

    def clear_link_faults(self, link: Link) -> None:
        link.fault_filter = None
        self._record("clear_link_faults", link.describe_ends())
