"""Shared-resource primitives built on the simulation kernel.

Three primitives cover everything this project models:

* :class:`Resource` — a counted semaphore with FIFO queueing.  The host
  CPU is a Resource, and every Pipe holds one.
* :class:`Store` — an unbounded (or bounded) FIFO of items with blocking
  ``get``.  Event queues, receive rings and daemon mailboxes are Stores.
* :class:`Pipe` — a byte-rate-limited conduit: each transfer holds the pipe
  for ``bytes / bandwidth + setup`` time.  The PCI bus (which the DMA
  engine drives) uses it to turn sizes into simulated time with natural
  serialization.  Links do not: a capacity-one FIFO wire has a closed
  form (:mod:`repro.net.link`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional, Tuple

from ..obs.metrics import BusyTracker
from .core import Event, Simulator

__all__ = ["Resource", "Store", "Pipe"]


class Resource:
    """A counted, FIFO-fair semaphore.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(cost)
        finally:
            resource.release()
    """

    __slots__ = ("sim", "capacity", "in_use", "_waiters", "_busy")

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        # Utilization book-keeping (shared with repro.obs).
        self._busy = BusyTracker()

    @property
    def busy_time(self) -> float:
        """Accumulated busy time over *closed* busy intervals."""
        return self._busy.busy_time

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        ev = self.sim.event()
        if self.in_use < self.capacity:
            self._grant(ev)
        else:
            self._waiters.append(ev)
        return ev

    def _grant(self, ev: Event) -> None:
        if self.in_use == 0:
            self._busy.engage(self.sim.now)
        self.in_use += 1
        ev.succeed(self)

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release() without matching request()")
        self.in_use -= 1
        if self.in_use == 0:
            self._busy.release(self.sim.now)
        while self._waiters and self.in_use < self.capacity:
            self._grant(self._waiters.popleft())

    def ckpt_state(self) -> dict:
        """Snapshot contract: occupancy, queue depth, busy accounting."""
        return {
            "capacity": self.capacity,
            "in_use": self.in_use,
            "waiters": len(self._waiters),
            "busy": self._busy.ckpt_state(),
        }

    def acquire(self, hold: float) -> Generator:
        """Process helper: acquire, hold for ``hold`` time units, release."""
        req = self.request()
        yield req
        try:
            yield self.sim.timeout(hold)
        finally:
            self.release()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the resource was busy."""
        busy = self._busy.total(self.sim.now)
        span = elapsed if elapsed is not None else self.sim.now
        return busy / span if span > 0 else 0.0


class Store:
    """FIFO item store with blocking ``get`` and optional capacity.

    ``put`` on a full bounded store raises (our hardware queues never
    silently block the producer; the producer models its own back-off).
    """

    __slots__ = ("sim", "capacity", "items", "_getters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return
        if self.full:
            raise OverflowError("store is full (capacity=%r)" % self.capacity)
        self.items.append(item)

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: (True, item) or (False, None)."""
        if self.items:
            return True, self.items.popleft()
        return False, None

    def get(self) -> Event:
        """Return an event yielding the next item (blocks until one exists)."""
        ev = self.sim.event()
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def cancel(self, ev: Event) -> None:
        """Withdraw a pending ``get`` (e.g. after losing a timeout race).

        A no-op if the event already received an item or was never a
        getter of this store.
        """
        try:
            self._getters.remove(ev)
        except ValueError:
            pass

    def drain(self) -> List[Any]:
        """Remove and return all queued items (does not wake getters)."""
        items = list(self.items)
        self.items.clear()
        return items

    def ckpt_state(self) -> dict:
        """Snapshot contract: queued items in order, blocked-getter depth.

        Items go through :func:`repro.ckpt.capture.stable_value` — model
        objects supply their own contract, containers recurse, and
        anything without a contract collapses to its type name (never a
        default ``repr``, whose embedded address would poison the hash).
        """
        from ..ckpt.capture import stable_value

        return {
            "capacity": self.capacity,
            "items": [stable_value(item) for item in self.items],
            "getters": len(self._getters),
        }


class Pipe:
    """A serialized, rate-limited conduit.

    ``transfer(nbytes)`` is a process-helper that waits for exclusive use of
    the pipe, then holds it for ``setup + nbytes / bandwidth``.  Concurrent
    transfers queue FIFO, which is exactly how a shared bus behaves at this
    level of abstraction.

    ``bandwidth`` is in bytes per time unit (MB/s if time is µs and sizes
    are bytes, since 1 MB/s == 1 byte/µs).
    """

    __slots__ = ("sim", "bandwidth", "setup", "_res", "bytes_moved")

    def __init__(self, sim: Simulator, bandwidth: float, setup: float = 0.0,
                 capacity: int = 1):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth
        self.setup = setup
        self._res = Resource(sim, capacity)
        self.bytes_moved = 0

    def transfer_time(self, nbytes: int) -> float:
        return self.setup + nbytes / self.bandwidth

    def transfer(self, nbytes: int) -> Generator:
        """Process helper: move ``nbytes`` through the pipe."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        req = self._res.request()
        yield req
        try:
            yield self.sim.timeout(self.transfer_time(nbytes))
            self.bytes_moved += nbytes
        finally:
            self._res.release()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        return self._res.utilization(elapsed)

    def ckpt_state(self) -> dict:
        """Snapshot contract: rate parameters, moved bytes, inner resource."""
        return {
            "bandwidth": self.bandwidth,
            "setup": self.setup,
            "bytes_moved": self.bytes_moved,
            "resource": self._res.ckpt_state(),
        }
