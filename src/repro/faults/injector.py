"""Single-fault injection experiments.

The paper's method: "one section of the MCP code, namely send_chunk, was
selected and for each experiment, a fault was injected at a random bit
location in this section while it was handling some network
communication.  Since send_chunk corresponds to a serial piece of code
that is executed by the LANai each time a message is sent out, we are
assured that all the faults are activated."

One experiment here: build a fresh 2-node cluster with the target node's
MCP in interpreted mode, start a message stream from the target, flip
one random bit inside the assembled ``send_chunk`` section at a random
moment mid-stream, observe until the workload resolves (or a horizon
passes), and record everything the classifier needs.  The flip persists
in SRAM until the MCP is reloaded — exactly like the original SWIFI
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import build_cluster
from ..obs.harvest import harvest_cluster
from ..payload import Payload
from ..sim import SeededRng
from .outcomes import InjectionOutcome

try:
    import numpy as _np
except ImportError:                      # pragma: no cover
    _np = None

__all__ = ["InjectionConfig", "run_injection", "boot_injection",
           "resume_injection", "classify_deliveries"]


def classify_deliveries(received, expected) -> "tuple[int, int]":
    """Count exact-match vs corrupted deliveries, batched.

    ``received`` maps message index -> observed :class:`Payload`;
    ``expected`` maps index -> the payload that was sent.  A delivery is
    OK exactly when the observed payload equals the expected one —
    :class:`Payload` equality is ``(size, fingerprint)``, so the whole
    campaign observation reduces to comparing two integer pairs per
    message.  The numpy path stacks those pairs into ``(n, 2)`` uint64
    arrays and compares them in one shot; the scalar fallback is the
    historic per-item loop.  Both yield identical counts (sizes and
    fingerprints are 64-bit by construction), so campaign outcomes are
    byte-for-byte independent of which path ran.
    """
    items = list(received.items())
    if not items:
        return 0, 0
    pairs = [(payload, expected.get(index)) for index, payload in items]
    matched = [(got, want) for got, want in pairs if want is not None]
    delivered_ok = 0
    if matched:
        if _np is not None:
            try:
                got = _np.array([(p.size, p.fingerprint)
                                 for p, _ in matched], dtype=_np.uint64)
                want = _np.array([(p.size, p.fingerprint)
                                  for _, p in matched], dtype=_np.uint64)
                delivered_ok = int((got == want).all(axis=1).sum())
            except OverflowError:        # fingerprint outside uint64
                delivered_ok = sum(1 for got, want in matched
                                   if got == want)
        else:
            delivered_ok = sum(1 for got, want in matched if got == want)
    return delivered_ok, len(items) - delivered_ok


@dataclass
class InjectionConfig:
    """Parameters of one injection run."""

    run_id: int
    seed: int
    flavor: str = "gm"          # 'ftgm' for the §5.2 effectiveness study
    messages: int = 16          # stream length during which the flip lands
    message_bytes: int = 256
    inject_after_messages: Optional[int] = None  # None: random position
    bit_offset: Optional[int] = None             # None: random in section
    observe_horizon_us: float = 12_000_000.0


def boot_injection(config: InjectionConfig):
    """Build and boot the pre-fault prefix of an injection run.

    The cluster's rng is constructed but never drawn during boot;
    :func:`resume_injection` makes every per-run draw.
    """
    return build_cluster(2, flavor=config.flavor,
                         interpreted_nodes=[0],
                         seed=config.seed)


def run_injection(config: InjectionConfig) -> InjectionOutcome:
    """Run one fault-injection experiment and classify the outcome."""
    return resume_injection(boot_injection(config), config)


def resume_injection(cluster, config: InjectionConfig,
                     pause_at: Optional[float] = None):
    """Inject, observe and classify on an already-booted cluster.

    ``pause_at`` parks the run at a simulated instant and returns a
    :class:`repro.ckpt.PausedRun` (snapshot/time-travel).
    """
    rng = SeededRng(config.seed, "inject/%d" % config.run_id)
    sim = cluster.sim
    target = cluster[0]
    peer = cluster[1]
    mcp = target.mcp
    firmware = mcp.firmware
    start, end = firmware.send_chunk_extent
    section_bits = (end - start) * 8
    bit = config.bit_offset if config.bit_offset is not None \
        else rng.randrange(section_bits)
    inject_after = config.inject_after_messages \
        if config.inject_after_messages is not None \
        else rng.randrange(1, config.messages)

    state = {
        "recv": {},          # index -> payload
        "send_done": 0,
        "send_err": 0,
        "injected_at": None,
        "sender_alive": True,
    }
    expected = {
        i: Payload.pattern(config.message_bytes, seed=i)
        for i in range(config.messages)
    }

    def sender():
        port = yield from target.driver.open_port(1)

        def make_cb(index):
            def cb(outcome):
                if outcome.ok:
                    state["send_done"] += 1
                else:
                    state["send_err"] += 1
            return cb

        for i in range(config.messages):
            if i == inject_after and state["injected_at"] is None:
                # Flip the bit mid-stream, right before this send.
                target.nic.sram.flip_bit(start * 8 + bit)
                state["injected_at"] = sim.now
            try:
                yield from port.send(expected[i], 1, 2, callback=make_cb(i),
                                     context=i)
            except Exception:
                state["sender_alive"] = False
                return
            # Poll so callbacks/FAULT_DETECTED are serviced; pace the
            # stream a little so the flip lands between packets too.
            yield from port.receive(timeout=5.0)
        # Drain events until everything resolves or the horizon hits.
        while (state["send_done"] + state["send_err"] < config.messages
               and sim.now < config.observe_horizon_us):
            yield from port.receive(timeout=10_000.0)

    def receiver():
        port = yield from peer.driver.open_port(2)
        for _ in range(min(config.messages, 8)):
            yield from port.provide_receive_buffer(config.message_bytes)
        provided = min(config.messages, 8)
        received = 0
        while received < config.messages \
                and sim.now < config.observe_horizon_us:
            event = yield from port.receive_message(timeout=500_000.0)
            if event is None:
                continue
            state["recv"][received] = event.payload
            received += 1
            if provided < config.messages:
                yield from port.provide_receive_buffer(config.message_bytes)
                provided += 1

    target.host.spawn(sender(), "inject-sender")
    peer.host.spawn(receiver(), "inject-receiver")

    def _done() -> bool:
        if target.host.crashed or peer.host.crashed:
            return False  # let the horizon expire; nothing more happens
        resolved = (state["send_done"] + state["send_err"]
                    >= config.messages)
        all_received = len(state["recv"]) >= config.messages
        return resolved and all_received

    # Advance in 1 ms slices through run()'s inlined event loop and poll
    # _done() once per slice instead of once per event — every outcome
    # field is frozen by the time _done() turns true (all sends resolved,
    # all receives recorded, no further activity), so observing up to a
    # slice past that instant classifies identically.
    def drive(limit: float) -> None:
        while not _done():
            next_at = sim.peek()
            if next_at > limit:
                break
            sim.run(until=min(next_at + 1_000.0, limit))

    def finish():
        drive(config.observe_horizon_us)
        # Small grace period so trailing events (late ACKs) settle.
        sim.run(until=min(sim.now + 10_000.0, config.observe_horizon_us))

        # -- observe and classify ----------------------------------------------

        delivered_ok, corrupted = classify_deliveries(state["recv"],
                                                      expected)

        outcome = InjectionOutcome(
            run_id=config.run_id,
            bit_offset=bit,
            injected_at=state["injected_at"] or -1.0,
            faulting_source_line=firmware.source_line(
                start + bit // 8 - (bit // 8) % 4),
            local_hung=mcp.hung or (mcp.cpu is not None and mcp.cpu.hung),
            hang_reason=mcp.dead_reason or (mcp.cpu.hang_reason
                                            if mcp.cpu else None),
            remote_hung=peer.mcp.hung,
            mcp_restarts=mcp.stats["mcp_restarts"],
            host_crashed=target.host.crashed or peer.host.crashed,
            messages_expected=config.messages,
            messages_delivered_ok=delivered_ok,
            messages_corrupted=corrupted,
            sends_errored=state["send_err"],
            workload_completed=(state["send_done"] == config.messages
                                and len(state["recv"]) == config.messages),
        )
        if config.flavor == "ftgm":
            driver = target.driver
            outcome.watchdog_fired = driver.fatal_interrupts > 0
            outcome.recovery_attempted = bool(driver.ftd.recoveries)
            # Full recovery: the stream finished exactly-once after
            # reload.
            outcome.recovered_fully = (
                outcome.recovery_attempted
                and outcome.workload_completed
                and corrupted == 0
                and delivered_ok == config.messages)
        harvest_cluster(cluster, fault_at=state["injected_at"])
        return outcome.finalize()

    if pause_at is not None:
        limit = min(pause_at, config.observe_horizon_us)
        drive(limit)
        sim.run(until=limit)
        from ..ckpt.pause import PausedRun
        return PausedRun(cluster, config, None, finish)
    return finish()
