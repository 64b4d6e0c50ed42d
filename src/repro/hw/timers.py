"""LANai interval timers.

The LANai chip has three 32-bit interval timers decremented every 0.5 µs.
GM's MCP uses IT0 to drive its housekeeping routine ``L_timer()``; the
paper's watchdog appropriates a spare timer (IT1) that ``L_timer()``
re-arms on every invocation, so a firmware hang lets IT1 expire and—with
the corresponding IMR bit enabled—interrupt the host.

Crucially, the timers are *hardware*: they keep counting even when the
LANai processor is hung.  We model each timer as a scheduled expiry event
guarded by a generation counter so that re-arming cancels the previous
expiry.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator

__all__ = ["IntervalTimer", "TIMER_TICK_US"]

TIMER_TICK_US = 0.5  # the LANai decrements interval timers every 1/2 us


class IntervalTimer:
    """One 32-bit down-counter with expiry callback.

    ``set_count(n)`` arms the timer for ``n`` ticks (n * 0.5 µs);
    ``set_us(t)`` is the convenience equivalent in microseconds.  On
    expiry the timer calls ``on_expire(self)`` — wired by the NIC to set
    the matching ISR bit — and stays idle until re-armed (the MCP is
    responsible for re-arming, which is exactly the behaviour the
    watchdog exploits).
    """

    MAX_COUNT = 0xFFFFFFFF

    def __init__(self, sim: Simulator, index: int):
        self.sim = sim
        self.index = index
        self.on_expire = None  # type: Optional[callable]
        self._armed = False
        self._deadline = None  # type: Optional[float]
        # Identity of the pending expiry timeout: re-arming replaces it,
        # which cancels the stale expiry without a per-arm closure (the
        # MCP re-arms IT0 every L_timer, so this path is hot).
        self._pending = None
        self._fire_cb = self._fire

    @property
    def armed(self) -> bool:
        return self._armed

    @property
    def deadline(self) -> Optional[float]:
        """Absolute simulation time of the pending expiry, if armed."""
        return self._deadline if self._armed else None

    def set_count(self, ticks: int) -> None:
        """Arm (or re-arm) the timer for ``ticks`` half-microsecond ticks."""
        if not 0 < ticks <= self.MAX_COUNT:
            raise ValueError("timer count out of range: %r" % (ticks,))
        self.set_us(ticks * TIMER_TICK_US)

    def set_us(self, interval_us: float) -> None:
        """Arm (or re-arm) the timer to expire ``interval_us`` from now."""
        if interval_us <= 0:
            raise ValueError("timer interval must be positive")
        self._armed = True
        self._deadline = self.sim.now + interval_us
        timeout = self.sim.timeout(interval_us)
        self._pending = timeout
        timeout.callbacks.append(self._fire_cb)

    def set_deadline(self, when: float) -> None:
        """Arm to expire at an absolute simulation time.

        Unparking an idle MCP uses this to land the expiry on the
        bitwise-exact float the periodic re-arm chain would have
        produced (``set_us`` recomputes ``now + interval``, which is not
        guaranteed to reproduce an accumulated deadline).
        """
        self._armed = True
        self._deadline = when
        timeout = self.sim.timeout_at(when)
        self._pending = timeout
        timeout.callbacks.append(self._fire_cb)

    def _fire(self, event) -> None:
        if event is not self._pending or not self._armed:
            return  # re-armed or stopped since scheduling
        self._armed = False
        self._deadline = None
        self._pending = None
        if self.on_expire is not None:
            self.on_expire(self)

    def stop(self) -> None:
        """Disarm without firing (used on card reset)."""
        self._armed = False
        self._deadline = None
        self._pending = None

    def ckpt_state(self) -> dict:
        """Snapshot contract: armed flag and the absolute deadline."""
        return {"index": self.index, "armed": self._armed,
                "deadline": self._deadline}
