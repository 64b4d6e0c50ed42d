"""The GM host device driver.

The driver runs in the host OS: it loads the MCP into LANai SRAM, maps
I/O, services interrupts, opens and closes ports, and keeps host-side
copies of what the mapper installed (the FTD reads those copies during
recovery).  Plain GM's driver has no watchdog handling — that arrives
with the FTGM subclass.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..errors import GmError
from ..hw.host import Host
from ..hw.nic import Nic
from ..sim import Simulator, Tracer
from . import constants as C
from .library import Port
from .mcp import Mcp

__all__ = ["GmDriver"]


class GmDriver:
    """One host's GM driver instance, bound to one NIC."""

    mcp_class = Mcp
    port_class = Port

    def __init__(self, sim: Simulator, host: Host, nic: Nic,
                 tracer: Optional[Tracer] = None, interpreted: bool = False):
        self.sim = sim
        self.host = host
        self.nic = nic
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.trace_source = "driver%d" % nic.node_id
        self.interpreted = interpreted
        self.mcp: Optional[Mcp] = None
        self.ports: Dict[int, Port] = {}
        self.host_routes: Dict[int, List[int]] = {}  # host copy of routes
        host.register_irq_handler(Nic.IRQ_LINE, self._irq_handler)

    # -- MCP lifecycle ------------------------------------------------------------

    def load_mcp(self) -> Mcp:
        """Load and start the control program (driver-load time path)."""
        if self.mcp is not None and self.mcp.running:
            raise GmError("MCP already loaded and running")
        mcp = self.mcp_class(self.sim, self.nic, self.nic.node_id,
                             self.tracer, interpreted=self.interpreted)
        mcp.on_routes_installed = self._routes_installed
        self.mcp = mcp
        mcp.start()
        self._after_mcp_start(mcp)
        return mcp

    def _after_mcp_start(self, mcp: Mcp) -> None:
        """FTGM hook: enable the watchdog IMR bit, arm IT1."""

    def _routes_installed(self, table: Dict[int, List[int]]) -> None:
        """The mapper configured this interface; keep the host copy."""
        self.host_routes = dict(table)
        self.tracer.emit(self.sim.now, self.trace_source,
                         "host_routes_saved", count=len(table))

    def _irq_handler(self, cause) -> None:
        """Plain GM has nothing to do for spare-timer interrupts."""

    # -- ports -----------------------------------------------------------------------

    def open_port(self, port_id: Optional[int] = None) -> Generator:
        """Process: open a port (request serviced by the MCP's L_timer)."""
        if self.mcp is None or not self.mcp.running:
            raise GmError("no MCP loaded")
        if port_id is None:
            port_id = self._free_port_id()
        elif port_id in self.ports:
            raise GmError("port %d already open" % port_id)
        if not 0 <= port_id < C.NUM_PORTS:
            raise GmError("port id out of range (GM allows %d ports)"
                          % C.NUM_PORTS)
        done = self.sim.event()
        self.mcp.host_request(("open", port_id, done))
        yield done
        port = self.port_class(self.sim, self.host, self, self.mcp, port_id)
        self.ports[port_id] = port
        self.mcp.event_sinks[port_id] = port._event_sink
        return port

    def ckpt_state(self) -> dict:
        """Snapshot contract: host-side driver state (MCP captured apart)."""
        return {
            "trace_source": self.trace_source,
            "interpreted": self.interpreted,
            "ports": sorted(self.ports),
            "host_routes": {str(dest): list(route) for dest, route
                            in sorted(self.host_routes.items())},
        }

    def _free_port_id(self) -> int:
        for candidate in range(C.NUM_PORTS):
            if candidate not in self.ports:
                return candidate
        raise GmError("all %d ports are open" % C.NUM_PORTS)

    def _port_closed(self, port: Port) -> None:
        self.ports.pop(port.port_id, None)
        self.host.page_hash_table.remove_port(port.port_id)
