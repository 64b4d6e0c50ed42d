"""Canonical capture of a cluster's simulator state.

Every stateful layer declares its snapshot contract as a ``ckpt_state()``
method returning a JSON-able dict of exactly the state that must survive
a checkpoint: event wheels with their heap order and tie-break counters,
SRAM bytes (as a digest — decode/block caches are dropped and rebuilt
lazily on resume), MCP/FTGM register and protocol state, links'
in-flight delivery queues, RNG streams, busy trackers
and netfaults plane schedules.  :func:`capture_state` walks the cluster
through those contracts and :func:`state_hash` seals the result.

What is deliberately **excluded** from the hashed state:

- The observability plane (tracer, metrics collectors).  Telemetry is a
  pure execution mode — results are byte-identical with it on or off —
  so two captures of the same simulated instant must hash equally
  regardless of telemetry flags.  Observability facts travel in the
  capture's separate ``observability`` section, outside the hash.
- The process-global packet-id counter.  Packet ids are diagnostic
  labels that never influence simulated behavior or outcomes, and a
  restore performed in a long-lived process would see an advanced
  counter; hashing it would make restores spuriously unequal.

Float canonicalization relies on CPython's shortest-roundtrip ``repr``
(what ``json`` emits), which is deterministic across runs and machines
for equal IEEE-754 doubles.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Dict, Optional

__all__ = ["capture_state", "state_hash", "count_position",
           "canonical_json", "stable_value"]

FORMAT_VERSION = 1

_COUNT_RE = re.compile(r"count\((-?\d+)")


def count_position(counter) -> int:
    """Next value an ``itertools.count`` will yield, without consuming it.

    ``repr(count(n))`` is ``"count(n)"`` on every CPython we support;
    the wheel's tie-break ``seq`` and model-id counters are read this
    way, and a checkpoint must record their positions exactly.
    """
    match = _COUNT_RE.search(repr(counter))
    if not match:
        raise ValueError("cannot read position of %r" % (counter,))
    return int(match.group(1))


def canonical_json(state: Any) -> str:
    """The canonical byte form every hash and snapshot file uses."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def state_hash(state: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of a captured ``state`` section."""
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


def stable_value(item: Any) -> Any:
    """A process-independent, JSON-able stand-in for a queued model object.

    Containers recurse; objects with a ``ckpt_state()`` contract use it;
    anything else collapses to its type name.  ``repr`` is deliberately
    NOT used as a fallback — default reprs embed memory addresses, which
    would make two captures of the same simulated instant hash unequal
    across processes.
    """
    if item is None or isinstance(item, (bool, int, float, str)):
        return item
    if isinstance(item, (list, tuple)):
        return [stable_value(v) for v in item]
    if isinstance(item, dict):
        return {str(k): stable_value(v) for k, v in item.items()}
    method = getattr(item, "ckpt_state", None)
    if method is not None:
        return method()
    return "<%s>" % type(item).__name__


def _state_of(obj) -> Optional[Dict[str, Any]]:
    """An object's declared snapshot state, or None when it has none."""
    if obj is None:
        return None
    method = getattr(obj, "ckpt_state", None)
    if method is None:
        return None
    return method()


def _node_state(node) -> Dict[str, Any]:
    driver = getattr(node, "driver", None)
    return {
        "node": node.node_id,
        "host": _state_of(node.host),
        "nic": _state_of(node.nic),
        "mcp": _state_of(getattr(driver, "mcp", None)
                         or getattr(node, "mcp", None)),
        "driver": _state_of(driver),
    }


def capture_state(cluster, extras: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """Capture every layer's declared state at the current instant.

    ``extras`` adds run-scoped stateful objects that are not reachable
    from the cluster itself (the netfaults plane, a load plane, armed
    detectors): each value is asked for its ``ckpt_state()`` and stored
    under its key.  Returns ``{"state": ..., "state_hash": ...,
    "observability": ...}`` — the hash covers the ``state`` section
    only.
    """
    sim = cluster.sim
    fabric = cluster.fabric
    state: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "sim": _state_of(sim),
        "nodes": [_node_state(node) for node in cluster.nodes],
        "fabric": {
            "switches": [_state_of(s) for s in fabric.switches],
            "links": [_state_of(link) for link in fabric.links],
        },
        "flavor": cluster.flavor,
        "topology": cluster.topology,
    }
    if extras:
        state["extras"] = {key: _state_of(value)
                           for key, value in sorted(extras.items())}
    tracer = getattr(cluster, "tracer", None)
    sampler = getattr(cluster, "sampler", None)
    flight = getattr(cluster, "flight", None)
    observability = {
        "tracer": _state_of(tracer) if tracer is not None
        else None,
        # The continuous plane stays outside the hash like the tracer:
        # the sampler's tracks and the recorder's ring describe how the
        # run was *watched*, not what the simulation *is*.
        "sampler": {"every_us": sampler.every_us,
                    "samples": len(sampler.times)}
        if sampler is not None else None,
        "flight": {"ring": len(flight.ring)} if flight is not None
        else None,
    }
    return {
        "state": state,
        "state_hash": state_hash(state),
        "observability": observability,
    }
