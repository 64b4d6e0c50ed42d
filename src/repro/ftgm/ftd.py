"""The Fault Tolerance Daemon (FTD), §4.3 of the paper.

The FATAL interrupt handler cannot sleep or allocate, so recovery runs
in a daemon process the driver wakes: confirm the hang with a magic-word
probe, reset the card, clear the SRAM, reload the MCP, restore the page
hash table pointer and the routing tables, and post ``FAULT_DETECTED``
into every open port's receive queue — then rewind and stand guard for
the next fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from ..gm import constants as C
from ..gm.events import EventType, GmEvent
from ..lanai.firmware import MAGIC_WORD_ADDR
from ..sim import Simulator, Store, Tracer

__all__ = ["FaultToleranceDaemon", "RecoveryRecord", "RerouteRecord",
           "MAGIC_WORD"]

MAGIC_WORD = 0xFEEDFACE


@dataclass
class RecoveryRecord:
    """Timeline of one recovery, for Table 3 / Figure 9."""

    interrupt_at: float
    woken_at: float = 0.0
    confirmed_at: float = 0.0
    reset_at: float = 0.0
    reloaded_at: float = 0.0
    tables_restored_at: float = 0.0
    events_posted_at: float = 0.0
    ports_notified: int = 0
    false_alarm: bool = False

    @property
    def ftd_time(self) -> float:
        return self.events_posted_at - self.woken_at

    def segments(self) -> List:
        return [
            ("daemon wakeup", self.interrupt_at, self.woken_at),
            ("hang confirmation", self.woken_at, self.confirmed_at),
            ("card reset + SRAM clear", self.confirmed_at, self.reset_at),
            ("MCP reload", self.reset_at, self.reloaded_at),
            ("table restore", self.reloaded_at, self.tables_restored_at),
            ("FAULT_DETECTED posting", self.tables_restored_at,
             self.events_posted_at),
        ]


@dataclass
class RerouteRecord:
    """Timeline of one path-fault reroute (the Table 3 analogue for the
    netfault recovery path — no card reset, no MCP reload)."""

    verdict_at: float            # detector delivered the path-dead verdict
    dest_node: int               # the peer whose path died
    woken_at: float = 0.0
    mapped_at: float = 0.0       # scout flood settled (discovery done)
    installed_at: float = 0.0    # every surviving interface CONFIG-acked
    events_posted_at: float = 0.0  # local install + ROUTE_CHANGED queued
    nodes_reached: int = 0
    nodes_lost: int = 0
    failed: bool = False         # discovery found nobody (no reroute)

    @property
    def reroute_time(self) -> float:
        return self.events_posted_at - self.woken_at

    def segments(self) -> List:
        return [
            ("daemon wakeup", self.verdict_at, self.woken_at),
            ("mapper discovery", self.woken_at, self.mapped_at),
            ("table distribution", self.mapped_at, self.installed_at),
            ("ROUTE_CHANGED posting", self.installed_at,
             self.events_posted_at),
        ]


class FaultToleranceDaemon:
    """One per node; "run anytime before fault recovery is to be
    achieved"."""

    # Ignore repeat path-fault verdicts arriving hot on the heels of a
    # completed reroute: the detector re-suspects on stale stall clocks
    # for a sweep or two until traffic flows again.
    MIN_REROUTE_GAP_US = 50_000.0

    def __init__(self, sim: Simulator, driver,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.driver = driver
        self.host = driver.host
        self.nic = driver.nic
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.name = "ftd%d" % self.nic.node_id
        self._wakeups: Store = Store(sim)
        self.recoveries: List[RecoveryRecord] = []
        self.reroutes: List[RerouteRecord] = []
        self.false_alarms = 0
        self.running = False
        self.rerouting = False
        # busy: woken and not yet done with a reroute or card recovery;
        # settled_at: when the last one completed.
        self.busy = False
        self.settled_at = float("-inf")
        self._last_reroute_at = float("-inf")
        self._proc = None

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._proc = self.host.spawn(self._run(), self.name)

    def ckpt_state(self) -> dict:
        """Snapshot contract: daemon latches and recovery history sizes."""
        return {
            "running": self.running,
            "rerouting": self.rerouting,
            "false_alarms": self.false_alarms,
            "recoveries": len(self.recoveries),
            "reroutes": len(self.reroutes),
            "last_reroute_at": self._last_reroute_at,
            "wakeups": self._wakeups.ckpt_state(),
        }

    def notify(self) -> None:
        """Called from the driver's FATAL interrupt handler."""
        self._wakeups.put(self.sim.now)

    def notify_path_fault(self, dest_node: int) -> None:
        """Called by the path detector on a path-dead verdict.

        The card is healthy — it must NOT be reset; the daemon re-runs
        the mapper instead and installs fresh routes everywhere.
        """
        if self.rerouting:
            return
        if self.sim.now - self._last_reroute_at < self.MIN_REROUTE_GAP_US:
            return
        self._wakeups.put(("path", dest_node, self.sim.now))

    # -- the daemon loop -----------------------------------------------------------

    def _run(self) -> Generator:
        while True:
            item = yield self._wakeups.get()
            self.busy = True
            yield self.sim.timeout(C.FTD_WAKEUP_US)
            if isinstance(item, tuple) and item[0] == "path":
                _tag, dest_node, verdict_at = item
                yield from self._reroute(dest_node, verdict_at)
                self._settle()
                # Collapse queued duplicate path verdicts; keep genuine
                # FATAL wakeups (plain floats) for the next iteration.
                leftover = [x for x in self._wakeups.drain()
                            if not (isinstance(x, tuple)
                                    and x[0] == "path")]
                for x in leftover:
                    self._wakeups.put(x)
                continue
            interrupt_at = item
            record = RecoveryRecord(interrupt_at=interrupt_at,
                                    woken_at=self.sim.now)
            self.tracer.emit(self.sim.now, self.name, "ftd_woken")
            yield from self._recover(record)
            self.recoveries.append(record)
            self._settle()
            # Collapse duplicate wakeups raised before we disabled
            # interrupts (the ISR edge may fire more than once).
            while len(self._wakeups):
                self._wakeups.try_get()

    @property
    def in_flight(self) -> bool:
        """A reroute or card recovery is queued or running."""
        return self.busy or len(self._wakeups) > 0

    def _settle(self) -> None:
        self.busy = False
        self.settled_at = self.sim.now

    # -- the reroute path (netfaults) ---------------------------------------------

    def _reroute(self, dest_node: int, verdict_at: float) -> Generator:
        """Path-dead recovery: mapper re-run + fresh tables, card alive.

        Best-effort (``strict=False``): interfaces that the new fabric
        can no longer reach are skipped, not fatal.  The local install
        at the end of the round makes the live MCP announce
        ROUTE_CHANGED to every open port (see Mcp._install_routes), so
        the library layer replays shadow-tokened sends over new routes.
        """
        from ..net.mapper import MappingFailed, make_mapper
        self.rerouting = True
        record = RerouteRecord(verdict_at=verdict_at, dest_node=dest_node,
                               woken_at=self.sim.now)
        self.tracer.emit(self.sim.now, self.name, "ftd_reroute_start",
                         dest=dest_node)
        # Multi-tier fabrics re-map hierarchically (a flat flood on a
        # fat-tree visits every equal-cost path); the builder stamps the
        # flag on the driver at cluster construction.
        mapper = make_mapper(
            self.driver.mcp.mapper_agent,
            hierarchical=getattr(self.driver, "hierarchical_mapper", False),
            strict=False, abort_on_empty=True)
        try:
            found = yield from mapper.run()
        except MappingFailed as exc:
            record.failed = True
            found = []
            self.tracer.emit(self.sim.now, self.name, "ftd_reroute_failed",
                             reason=str(exc))
        record.mapped_at = mapper.phase_times.get("discovered", self.sim.now)
        record.installed_at = mapper.phase_times.get("distributed",
                                                     self.sim.now)
        record.nodes_reached = len(found)
        record.nodes_lost = len(mapper.unreached)
        record.events_posted_at = self.sim.now
        self.reroutes.append(record)
        self.rerouting = False
        self._last_reroute_at = self.sim.now
        self.tracer.emit(self.sim.now, self.name, "ftd_reroute_done",
                         reached=record.nodes_reached,
                         lost=record.nodes_lost,
                         failed=record.failed)

    def _recover(self, record: RecoveryRecord) -> Generator:
        # 1. Confirm the hang: write a magic word the healthy L_timer()
        #    would clear; if it survives the settle window, the LANai is
        #    gone.  A parked MCP never ticks, so bring it live first or
        #    a healthy idle card would be reset.
        if self.driver.mcp is not None:
            self.driver.mcp.settle_idle()
        self.nic.sram.write_word(MAGIC_WORD_ADDR, MAGIC_WORD)
        yield self.sim.timeout(C.MAGIC_WORD_SETTLE_US)
        if self.nic.sram.read_word(MAGIC_WORD_ADDR) != MAGIC_WORD:
            record.false_alarm = True
            record.confirmed_at = self.sim.now
            record.events_posted_at = self.sim.now
            self.false_alarms += 1
            self.tracer.emit(self.sim.now, self.name, "ftd_false_alarm")
            # The interface is alive: re-enable the FATAL interrupt the
            # driver masked (L_timer keeps re-arming IT1 itself) and
            # stand down.
            from ..hw.registers import IsrBits
            self.nic.status.enable_interrupt(IsrBits.IT1_EXPIRED)
            return
        record.confirmed_at = self.sim.now
        self.tracer.emit(self.sim.now, self.name, "ftd_hang_confirmed")

        # 2. Disable interrupts, unmap I/O, reset the card; "it is
        #    assumed that the fault causing the upset is transient and
        #    that a card reset will cause all the components on the card
        #    to reset to a non-faulty state."
        self.nic.status.disable_interrupt(0xFFFFFFFF)
        if self.driver.mcp is not None:
            self.driver.mcp.stop("ftd-reset")
        self.nic.reset()
        # 3. Clear the SRAM (this is what erases the flipped bit) and
        #    charge the reset/clear portion of the recovery budget.
        self.nic.sram.clear()
        yield self.sim.timeout(C.FTD_RESET_CLEAR_US)
        record.reset_at = self.sim.now
        self.tracer.emit(self.sim.now, self.name, "ftd_card_reset")

        # 4. Reload the MCP ("~500000us being spent in reloading the
        #    MCP"), restart the DMA engine, re-enable interrupts — the
        #    driver's load path does all three.
        yield self.sim.timeout(C.MCP_RELOAD_US)
        self.driver.load_mcp()
        record.reloaded_at = self.sim.now
        self.tracer.emit(self.sim.now, self.name, "ftd_mcp_reloaded")

        # 5. Hand the reloaded MCP the page-hash-table location (host
        #    memory survives, so a pointer suffices) and restore the
        #    mapping/routing tables from the driver's copies.
        self.driver.mcp.install_routes_from_host(self.driver.host_routes)
        yield self.sim.timeout(C.FTD_TABLE_RESTORE_US)
        record.tables_restored_at = self.sim.now
        self.tracer.emit(self.sim.now, self.name, "ftd_tables_restored")

        # 6. Post FAULT_DETECTED into every open port's receive queue,
        #    re-bind their event sinks to the fresh MCP.
        for port_id, port in sorted(self.driver.ports.items()):
            port.mcp = self.driver.mcp
            self.driver.mcp.event_sinks[port_id] = port._event_sink
            port._event_sink(GmEvent(EventType.FAULT_DETECTED, port_id))
            record.ports_notified += 1
        yield self.sim.timeout(C.FTD_EVENT_POST_US)
        record.events_posted_at = self.sim.now
        self.tracer.emit(self.sim.now, self.name, "ftd_recovery_done",
                         ports=record.ports_notified)
