"""Discrete-event simulation kernel.

Everything in this reproduction — hosts, LANai processors, DMA engines,
links, switches, daemons — runs on this kernel.  It is a small, hand-rolled
cousin of SimPy: time is a float (we use microseconds throughout the
project), processes are Python generators that ``yield`` events, and the
simulator advances a heap of scheduled events.

The kernel is deliberately deterministic: events scheduled for the same
instant fire in insertion order, and all randomness in the project flows
through :mod:`repro.sim.rng` seeded generators, so every experiment is
exactly reproducible from its seed.

The hot path is allocation-lean: events carry ``__slots__``, scheduling
state is a per-event flag (no ``id()`` bookkeeping, which could report a
stale *triggered* after the interpreter reuses an id), and same-instant
process resumptions ride tiny :class:`_Resume` records through the heap
instead of throwaway :class:`Event` objects.  Resumptions share the one
sequence counter with real events, so firing order is identical to the
event-per-resume formulation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "Simulator",
    "SimulationError",
]

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-triggering events, etc.)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``;
    processes modelling crash-able entities catch this to unwind.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules its callbacks to run at the current
    simulation time.  Yielding a pending event from a process suspends the
    process until the event triggers; the event's value becomes the value
    of the ``yield`` expression (or, for a failed event, its exception is
    raised inside the process).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_defused",
                 "_scheduled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._defused = False
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self.callbacks is None or self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._exc is None

    @property
    def value(self) -> Any:
        if self._exc is not None:
            return self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.callbacks is None or self._scheduled:
            raise SimulationError("event already triggered")
        self._value = value
        self._scheduled = True
        sim = self.sim
        _heappush(sim._queue, (sim._now, next(sim._seq), self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        A failed event re-raises ``exc`` inside every waiting process.  If
        nobody is waiting, the failure escapes :meth:`Simulator.run` unless
        :meth:`defuse` was called.
        """
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self.callbacks is None or self._scheduled:
            raise SimulationError("event already triggered")
        self._exc = exc
        self.sim._schedule(self, 0.0)
        return self

    def defuse(self) -> "Event":
        """Mark a failure as handled even if no process observes it."""
        self._defused = True
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        exc = self._exc
        if exc is None:
            for callback in callbacks:
                callback(self)
            return
        handled = self._defused or bool(callbacks)
        for callback in callbacks:
            callback(self)
        if not handled:
            raise exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return "<%s %s at t=%s>" % (type(self).__name__, state, self.sim.now)


class Timeout(Event):
    """An event that triggers a fixed delay after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError("negative delay: %r" % (delay,))
        # Timeouts are the hottest allocation in the project; the base
        # __init__ and _schedule are inlined to drop two call frames.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._defused = False
        self._scheduled = True
        _heappush(sim._queue, (sim._now + delay, next(sim._seq), self))


class _Resume:
    """A same-instant process resumption, heap-scheduled like an event.

    Replaces the throwaway bootstrap/rerun/interrupt ``Event`` objects:
    no callback list, no trigger bookkeeping — just the generator step.
    It carries ``_value``/``_exc`` under the same names an :class:`Event`
    uses, so :meth:`Process._resume` accepts either without a wrapper.
    """

    __slots__ = ("process", "_value", "_exc")

    def __init__(self, process: "Process", value: Any,
                 exc: Optional[BaseException]):
        self.process = process
        self._value = value
        self._exc = exc


class Process(Event):
    """A generator-based process; also an event that fires on completion.

    The wrapped generator yields :class:`Event` instances.  When the
    generator returns, the process event succeeds with the return value;
    when it raises, the process event fails with the exception.
    """

    __slots__ = ("_gen", "_send", "_throw", "name", "_waiting_on",
                 "_injected", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError("Process requires a generator, got %r" % (gen,))
        self._gen = gen
        self._send = gen.send
        self._throw = gen.throw
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._injected: Optional[BaseException] = None
        # One bound method for the lifetime of the process (appending
        # ``self._resume`` would allocate a fresh bound method per wait).
        self._resume_cb = self._resume
        # Bootstrap: step the generator at the current instant.
        sim._schedule_resume(self, None, None)

    @property
    def is_alive(self) -> bool:
        return self.callbacks is not None

    def interrupt(self, cause: Any = None) -> None:
        """Throw an exception into the process at the current time.

        If ``cause`` is itself an exception instance it is thrown
        directly (so victims can catch domain errors like ``HostCrashed``
        by type); otherwise an :class:`Interrupt` wrapping ``cause`` is
        thrown.  Either way, if the process does not catch it, the
        process terminates *quietly* — interrupts model kills and
        crashes, which should not escalate out of ``run()``.

        A process may not interrupt itself, and interrupting a finished
        process is a silent no-op (the usual race when a victim completes
        in the same instant the interrupter fires).
        """
        if not self.is_alive:
            return
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._waiting_on = None
        exc = cause if isinstance(cause, BaseException) else Interrupt(cause)
        self._injected = exc
        self.sim._schedule_resume(self, None, exc)

    def _resume(self, event) -> None:
        """Advance the generator one step.

        ``event`` is the :class:`Event` this process was waiting on or a
        :class:`_Resume` record; only its ``_value``/``_exc`` are read.
        """
        if self.callbacks is None:
            return
        # ``_waiting_on`` is NOT cleared here: it may go stale (pointing
        # at the event that just fired), but a fired event's callbacks
        # are already None, so interrupt()'s removal guard never touches
        # it — and the waiter branch below overwrites it on the next
        # wait.  One store saved per generator step.
        sim = self.sim
        sim.active_process = self
        try:
            exc = event._exc
            if exc is not None:
                target = self._throw(exc)
            else:
                target = self._send(event._value)
        except StopIteration as stop:
            sim.active_process = None
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as err:
            sim.active_process = None
            if self.triggered:
                raise
            if isinstance(err, Interrupt) or err is self._injected:
                # An uncaught interrupt/kill terminates quietly-by-design:
                # interrupts model crashes, and a killed process "failing"
                # would needlessly escalate to run().  Waiters, if any,
                # still observe the exception.
                self._exc = err
                self._defused = True
                sim._schedule(self, 0.0)
            else:
                self.fail(err)
            return
        sim.active_process = None
        try:
            target_callbacks = target.callbacks
        except AttributeError:
            raise SimulationError(
                "process %r yielded %r; processes must yield Event instances"
                % (self.name, target)) from None
        if target_callbacks is None:
            # Already processed: resume immediately (at the current
            # instant).  _schedule_resume is inlined — this branch is the
            # hot half of every wakeup chain.
            record = _Resume.__new__(_Resume)
            record.process = self
            record._value = target._value
            record._exc = target._exc
            _heappush(sim._queue, (sim._now, next(sim._seq), record))
        else:
            self._waiting_on = target
            target_callbacks.append(self._resume_cb)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("_events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._done = 0
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("cannot mix events from two simulators")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {
            ev: ev._value for ev in self._events
            if ev.callbacks is None and ev._exc is None
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    # _check is looked up per trigger; bind once per instance would cost
    # a slot for a cold path, so AnyOf/AllOf keep the plain method.


class AnyOf(_Condition):
    """Triggers when the first of ``events`` triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            event._defused = True
            self.fail(event._exc)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when all of ``events`` have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            event._defused = True
            self.fail(event._exc)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._collect())


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()

        def hello(sim):
            yield sim.timeout(5.0)
            return "done"

        proc = sim.spawn(hello(sim))
        sim.run()
        assert sim.now == 5.0
    """

    __slots__ = ("_now", "_queue", "_seq", "active_process", "event",
                 "timeout", "ids", "inert")

    def __init__(self):
        self._now = 0.0
        queue: List = []
        self._queue = queue
        seq = itertools.count()
        self._seq = seq
        self.active_process: Optional[Process] = None
        # Per-run identifier source for model objects (message ids, token
        # ids, ...).  Models must draw ids that can influence simulated
        # behaviour from here, never from a module-level counter: a
        # process-global counter leaks how many simulations ran earlier
        # in the process into the current one, breaking run-for-run
        # determinism (serial and pooled executions would
        # disagree).
        self.ids = itertools.count(1)
        # Scheduled events that provably cannot change observable state
        # when they fire: replaced/stopped interval-timer expiries, and
        # idle housekeeping ticks an MCP has committed to absorbing
        # without work.  The tickless fast-forward scan skips over these
        # when looking for the next event that could matter.
        self.inert: set = set()

        # sim.event()/sim.timeout() are the two hottest allocation sites
        # in the project; these closures skip the type-call machinery
        # (tp_new + __init__ re-dispatch) and write the slots directly.
        # A factory-made Timeout never stores ``_defused``: the flag is
        # only read on the failure path, and a timeout is born triggered
        # so ``fail()`` can never accept it.
        event_new = Event.__new__
        timeout_new = Timeout.__new__
        seq_next = seq.__next__
        push = _heappush

        def event() -> Event:
            ev = event_new(Event)
            ev.sim = self
            ev.callbacks = []
            ev._value = None
            ev._exc = None
            ev._defused = False
            ev._scheduled = False
            return ev

        def timeout(delay: float, value: Any = None) -> Timeout:
            if delay < 0:
                raise ValueError("negative delay: %r" % (delay,))
            t = timeout_new(Timeout)
            t.sim = self
            t.callbacks = []
            t._value = value
            t._exc = None
            t._scheduled = True
            push(queue, (self._now + delay, seq_next(), t))
            return t

        self.event = event
        self.timeout = timeout

    @property
    def now(self) -> float:
        """Current simulation time (microseconds by project convention)."""
        return self._now

    # -- event construction ------------------------------------------------
    # event() and timeout() are closures bound in __init__.

    def timeout_at(self, when: float) -> Timeout:
        """A timeout landing at an absolute time, bitwise exact.

        The tickless fast-forward path arms timers on the precise floats
        the periodic re-arm chain would have produced; going through
        ``timeout(when - now)`` would schedule at ``now + (when - now)``,
        which is not guaranteed to equal ``when`` in float arithmetic.
        """
        if when < self._now:
            raise ValueError("timeout_at in the past: %r < %r"
                             % (when, self._now))
        t = Timeout.__new__(Timeout)
        t.sim = self
        t.callbacks = []
        t._value = None
        t._exc = None
        t._scheduled = True
        _heappush(self._queue, (when, next(self._seq), t))
        return t

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process running ``gen``."""
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling internals ----------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        event._scheduled = True
        _heappush(self._queue, (self._now + delay, next(self._seq), event))

    def _schedule_resume(self, process: Process, value: Any,
                         exc: Optional[BaseException]) -> None:
        """Queue a same-instant generator step (no Event allocation)."""
        _heappush(self._queue,
                  (self._now, next(self._seq), _Resume(process, value, exc)))

    # -- execution -----------------------------------------------------------

    def step(self) -> None:
        """Process the single next event."""
        when, _, item = _heappop(self._queue)
        self._now = when
        if item.__class__ is _Resume:
            item.process._resume(item)
            return
        # Inlined Event._run_callbacks — one call frame per event saved.
        # (``_scheduled`` is deliberately left True: ``triggered`` and
        # the double-trigger guards test ``callbacks is None`` first.)
        callbacks, item.callbacks = item.callbacks, None
        exc = item._exc
        if exc is None:
            for callback in callbacks:
                callback(item)
            return
        handled = item._defused or bool(callbacks)
        for callback in callbacks:
            callback(item)
        if not handled:
            raise exc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def earliest_live(self) -> float:
        """Earliest scheduled event that is not marked inert, or ``inf``.

        The horizon the tickless idle fold leans on: between now and this
        time, nothing in the schedule can create externally visible work.
        """
        inert = self.inert
        t_ext = float("inf")
        for when, _seq, item in self._queue:
            if when < t_ext and item not in inert:
                t_ext = when
        return t_ext

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains earlier, so back-to-back ``run`` calls see
        a monotonic clock.
        """
        # The step() body is inlined below (twice): the per-event call
        # frame is measurable at millions of events.  Keep the three
        # copies (step, run, run-until) in sync.
        queue = self._queue
        pop = _heappop
        if until is None:
            while queue:
                when, _, item = pop(queue)
                self._now = when
                if item.__class__ is _Resume:
                    item.process._resume(item)
                    continue
                callbacks, item.callbacks = item.callbacks, None
                exc = item._exc
                if exc is None:
                    if len(callbacks) == 1:
                        # Almost every event has exactly one waiter; skip
                        # the iterator.
                        callbacks[0](item)
                        continue
                    for callback in callbacks:
                        callback(item)
                    continue
                handled = item._defused or bool(callbacks)
                for callback in callbacks:
                    callback(item)
                if not handled:
                    raise exc
            return
        if until < self._now:
            raise ValueError(
                "cannot run backwards: until=%r < now=%r" % (until, self._now))
        while queue and queue[0][0] <= until:
            when, _, item = pop(queue)
            self._now = when
            if item.__class__ is _Resume:
                item.process._resume(item)
                continue
            callbacks, item.callbacks = item.callbacks, None
            exc = item._exc
            if exc is None:
                if len(callbacks) == 1:
                    callbacks[0](item)
                    continue
                for callback in callbacks:
                    callback(item)
                continue
            handled = item._defused or bool(callbacks)
            for callback in callbacks:
                callback(item)
            if not handled:
                raise exc
        self._now = until

    def ckpt_state(self) -> dict:
        """Snapshot contract: the wheel, exactly (docs/CHECKPOINT.md).

        Captures the clock, both shared counters' positions, and every
        heap entry in pop order ``(when, seq, kind, name)``.  The heap
        list's internal layout is *not* part of the contract — two heaps
        with different layouts but identical entry sets pop identically,
        so the canonical form sorts by the globally unique ``(when,
        seq)`` key.
        """
        from ..ckpt.capture import count_position

        entries = []
        for when, seq, item in self._queue:
            cls = item.__class__
            if cls is _Resume:
                kind, name = "resume", item.process.name
            elif cls is Process or isinstance(item, Process):
                kind, name = "process", item.name
            else:
                kind, name = cls.__name__.lower(), ""
            entries.append((when, seq, kind, name))
        entries.sort(key=lambda e: (e[0], e[1]))
        return {
            "now": self._now,
            "next_seq": count_position(self._seq),
            "next_id": count_position(self.ids),
            "queue": [list(e) for e in entries],
            "inert": len(self.inert),
        }
