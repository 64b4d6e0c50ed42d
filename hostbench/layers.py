"""Layer-crossing spans, measured from outside the program.

A ``sys.setprofile`` hook sees every Python call and return, including a
generator being resumed by the ``sim`` kernel and yielding back to it.
It opens a span only when a call crosses from one ``repro`` package (a
*layer*: ``sim``, ``net``, ``gm``, ...) into another, and closes it when
that frame returns.  Frames outside ``repro`` (the standard library)
belong to the layer that called them.  A span's self time is its
duration minus the durations of the spans opened inside it, so the self
times of all layers inside one span add up to that span's duration.

Crossing spans are aggregated in memory per (layer, caller layer, run
id): a large campaign crosses layers millions of times.  Full spans are
kept only at per-run boundaries: the experiment's registered ``boot``
and ``resume`` and the ``obs`` harvest.  Blocking calls (``os.read``,
``os.waitpid``, ``time.sleep``) are spans of their own pseudo-layer
``wait``, so an executor waiting for its runs does not count as busy.

The fork-server runs every boot and run in a forked process.  A fork
inherits the hook; ``os.register_at_fork`` clears the child's copy of
the aggregates, and the child writes them to ``<out_dir>/shard-<pid>.json``
just before it calls ``os._exit``.  :meth:`LayerTracer.stop` merges the
shards of every process into one :class:`LayerTrace`.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

BENCH = "bench"
WAIT = "wait"

_ACTIVE: List["LayerTracer"] = []      # the tracer a fork must reset
_FORK_HOOKED = False


def _after_fork_in_child() -> None:
    if _ACTIVE:
        _ACTIVE[-1]._forked()


class LayerTrace:
    """Merged result of one traced pass."""

    def __init__(self, agg: Dict[tuple, List[float]], spans: List[dict]):
        self.agg = agg          # (layer, caller, run) -> [count, incl, self]
        self.spans = spans      # boundary spans, every process

    def self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (layer, _caller, _run), (_n, _incl, self_t) in self.agg.items():
            out[layer] = out.get(layer, 0.0) + self_t
        return out

    def boundary(self, kind: str) -> List[dict]:
        return [span for span in self.spans if span["kind"] == kind]

    def to_doc(self) -> Dict[str, Any]:
        return {"crossings": [[layer, caller, run, n, incl, self_t]
                              for (layer, caller, run), (n, incl, self_t)
                              in sorted(self.agg.items(), key=str)],
                "spans": self.spans}


class LayerTracer:
    """Install with :meth:`start`, remove with :meth:`stop`.

    ``src_root`` is the directory holding the ``repro`` package;
    ``boundaries`` maps code objects of per-run boundary functions to
    their kind (``boot``, ``resume``, ``harvest``).
    """

    def __init__(self, src_root: str, out_dir: str,
                 boundaries: Dict[Any, str]):
        self.prefix = os.path.join(os.path.abspath(src_root), "repro") \
            + os.sep
        self.out_dir = out_dir
        self.boundaries = boundaries
        self._hook = None
        self._forked = None
        self._collect = None

    # -- the hook ------------------------------------------------------------

    def _build(self) -> None:
        prefix = self.prefix
        plen = len(prefix)
        boundaries = self.boundaries
        layers: Dict[Any, str] = {}
        clock = time.perf_counter
        waits = {os.read, os.waitpid, time.sleep}
        exit_ = os._exit
        getpid = os.getpid
        out_dir = self.out_dir

        frames: List[Optional[list]] = []      # one entry per live frame
        # span: [layer, caller, start, child time, boundary kind]
        open_spans: List[list] = [[BENCH, None, clock(), 0.0, None]]
        agg: Dict[tuple, List[float]] = {}
        spans: List[dict] = []
        state = {"run": None, "inside": 0.0, "in_run": 0}

        def layer_of(code) -> str:
            filename = code.co_filename
            if filename.startswith(prefix):
                name = filename[plen:].split(os.sep, 1)[0]
                layer = name[:-3] if name.endswith(".py") else name
            else:
                layer = ""
            layers[code] = layer
            return layer

        def close(span: list, now: float) -> None:
            open_spans.pop()
            dur = now - span[2]
            self_t = dur - span[3]
            open_spans[-1][3] += dur
            key = (span[0], span[1], state["run"])
            entry = agg.get(key)
            if entry is None:
                agg[key] = [1, dur, self_t]
            else:
                entry[0] += 1
                entry[1] += dur
                entry[2] += self_t
            if state["in_run"]:
                state["inside"] += self_t
            kind = span[4]
            if kind is not None:
                record = {"kind": kind, "layer": span[0], "caller": span[1],
                          "run": state["run"], "pid": getpid(),
                          "start": span[2], "end": now, "dur": dur}
                if kind == "resume":
                    state["in_run"] = 0
                    record["layers_self_sum"] = state["inside"]
                spans.append(record)

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                layer = layers.get(code)
                if layer is None:
                    layer = layer_of(code)
                top = open_spans[-1]
                if not layer or layer == top[0]:
                    frames.append(None)
                    return
                kind = boundaries.get(code)
                if kind == "resume":
                    state["run"] = frame.f_locals["config"].run_id
                    state["inside"] = 0.0
                    state["in_run"] = 1
                span = [layer, top[0], clock(), 0.0, kind]
                open_spans.append(span)
                frames.append(span)
            elif event == "return":
                if frames:
                    span = frames.pop()
                    if span is not None:
                        close(span, clock())
            elif event == "c_call":
                if arg in waits:
                    span = [WAIT, open_spans[-1][0], clock(), 0.0, None]
                    open_spans.append(span)
                    frames.append(span)
                elif arg is exit_:
                    write_shard()
            elif arg in waits and frames and frames[-1] is open_spans[-1] \
                    and open_spans[-1][0] == WAIT:
                close(frames.pop(), clock())

        def write_shard() -> None:
            path = os.path.join(out_dir, "shard-%d.json" % getpid())
            with open(path, "w") as fh:
                json.dump(LayerTrace(agg, spans).to_doc(), fh)

        def forked() -> None:
            # The child's copies belong to the parent, which reports them.
            agg.clear()
            del spans[:]
            state["run"] = None
            state["in_run"] = 0

        def collect() -> LayerTrace:
            return LayerTrace(agg, spans)

        self._hook, self._forked, self._collect = hook, forked, collect

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        global _FORK_HOOKED
        os.makedirs(self.out_dir, exist_ok=True)
        for stale in glob.glob(os.path.join(self.out_dir, "shard-*.json")):
            os.remove(stale)
        if not _FORK_HOOKED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOKED = True
        self._build()
        _ACTIVE.append(self)
        sys.setprofile(self._hook)

    def stop(self) -> LayerTrace:
        sys.setprofile(None)
        _ACTIVE.remove(self)
        merged = self._collect()
        agg = {key: list(value) for key, value in merged.agg.items()}
        spans = list(merged.spans)
        for path in sorted(glob.glob(os.path.join(self.out_dir,
                                                  "shard-*.json"))):
            with open(path) as fh:
                doc = json.load(fh)
            os.remove(path)
            for layer, caller, run, n, incl, self_t in doc["crossings"]:
                entry = agg.setdefault((layer, caller, run), [0, 0.0, 0.0])
                entry[0] += n
                entry[1] += incl
                entry[2] += self_t
            spans.extend(doc["spans"])
        return LayerTrace(agg, spans)
