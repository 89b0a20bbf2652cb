"""Outside-in layer spans for the traced runs.

``install(tracer)`` wraps the public calls of each layer of the
program (classes and module functions of ``repro``) so every call
records a span: layer, call name, start, end and the enclosing span.
Nothing under ``src/`` changes; the wrappers live in this process only
(and in workers it forks).  Spans stay in memory and are written out
once, when the traced process ends (:meth:`Tracer.dump`).

A layer's *self time* is its spans' durations minus the time their
child spans cover; the layer budget (:func:`layer_budget`) sums self
time per layer and reports the part of a wall-clock window no span
covers as ``unaccounted``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

#: Layer names, in the order the budget table prints them.
LAYERS = ("cli", "io", "core.instance", "core.conflict", "online.state",
          "online.policies", "online.fastpath", "session.kernel",
          "service.service", "service.server", "sharding.planner",
          "sharding.streaming", "wait")

#: (layer, call name, module, attribute path, keep each span?).  Hot
#: calls (per event or per instance) only aggregate; the rest keep a
#: span record for the dump.
TARGETS = [
    ("io", "load_trace", "repro.io", "load_trace", True),
    ("io", "trace_from_dict", "repro.service.service", "trace_from_dict",
     True),
    ("io", "journal_open", "repro.io", "JournalWriter.__init__", True),
    ("io", "journal_append", "repro.io", "JournalWriter.append", False),
    ("io", "journal_commit", "repro.io", "JournalWriter.commit", False),
    ("io", "journal_checkpoint", "repro.io", "JournalWriter.checkpoint",
     True),
    ("io", "scan_journal", "repro.service.service", "scan_journal", True),
    ("core.instance", "instances", "repro.core.instance",
     "TreeProblem.instances", False),
    ("core.instance", "instances", "repro.core.instance",
     "LineProblem.instances", False),
    ("core.conflict", "global_edges_of", "repro.core.instance",
     "TreeProblem.global_edges_of", False),
    ("core.conflict", "global_edges_of", "repro.core.instance",
     "LineProblem.global_edges_of", False),
    ("core.conflict", "ConflictIndex", "repro.core.conflict",
     "ConflictIndex.__init__", True),
    ("core.conflict", "sliced", "repro.core.conflict",
     "ConflictIndex.sliced", True),
    ("online.state", "CapacityLedger", "repro.online.state",
     "CapacityLedger.__init__", True),
    ("online.state", "verify", "repro.online.state",
     "CapacityLedger.verify", True),
    ("online.fastpath", "geometry", "repro.online.fastpath",
     "DemandGeometry.__init__", True),
    ("online.fastpath", "batch_feed", "repro.online.fastpath",
     "FastFeeder.feed", False),
    ("session.kernel", "AdmissionSession", "repro.session.kernel",
     "AdmissionSession.__init__", True),
    ("session.kernel", "feed_many", "repro.session.kernel",
     "AdmissionSession.feed_many", False),
    ("session.kernel", "submit", "repro.session.kernel",
     "AdmissionSession.submit", False),
    ("session.kernel", "close", "repro.session.kernel",
     "AdmissionSession.close", True),
    ("service.service", "AdmissionService", "repro.service.service",
     "AdmissionService.__init__", True),
    ("service.service", "checkpoint", "repro.service.service",
     "AdmissionService.checkpoint", True),
    ("service.service", "resume", "repro.service.service",
     "AdmissionService.resume", True),
    ("sharding.planner", "plan", "repro.sharding.planner",
     "ShardPlanner.plan", True),
    ("sharding.streaming", "SharedGeometry", "repro.sharding.streaming",
     "SharedGeometry.__init__", True),
    ("sharding.streaming", "shard_view", "repro.sharding.streaming",
     "SharedGeometry.shard_view", True),
    ("sharding.streaming", "run", "repro.sharding.streaming",
     "StreamedShardedDriver.run", True),
]


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        #: Kept span records: (id, parent id, layer, name, start, end).
        self.spans: list[tuple] = []
        #: layer -> self seconds.
        self.self_s: dict[str, float] = {}
        #: (layer, name) -> [inclusive seconds, calls, self seconds];
        #: nested calls of the same name count their inclusive time once
        #: (the outermost).
        self.calls: dict[tuple[str, str], list] = {}
        #: Counts read off call results (instances, edges, tail events).
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []
        self._depth: dict[tuple[str, str], int] = {}
        self._next_id = 0

    def note(self, key: str, value: float) -> None:
        """Keep the largest value seen for a counter."""
        self.counters[key] = max(self.counters.get(key, value), value)

    def push(self, layer: str, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][5] if self._stack else 0
        key = (layer, name)
        self._depth[key] = self._depth.get(key, 0) + 1
        frame = [layer, name, time.perf_counter(), 0.0, parent,
                 self._next_id]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list, keep: bool) -> None:
        end = time.perf_counter()
        layer, name, start, child, parent, sid = frame
        dur = end - start
        self._stack.pop()
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - child
        key = (layer, name)
        self._depth[key] -= 1
        rec = self.calls.setdefault(key, [0.0, 0, 0.0])
        rec[1] += 1
        rec[2] += dur - child
        if not self._depth[key]:
            rec[0] += dur
        if self._stack:
            self._stack[-1][3] += dur
        if keep:
            self.spans.append((sid, parent, layer, name, start, end))

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span around one of the benchmark's own steps (an import)."""
        frame = self.push(layer, name)
        try:
            yield
        finally:
            self.pop(frame, True)

    def add(self, layer: str, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured elsewhere."""
        self._next_id += 1
        self.self_s[layer] = self.self_s.get(layer, 0.0) + end - start
        rec = self.calls.setdefault((layer, name), [0.0, 0, 0.0])
        rec[0] += end - start
        rec[1] += 1
        rec[2] += end - start
        self.spans.append((self._next_id, 0, layer, name, start, end))

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": {f"{layer}:{name}": rec
                      for (layer, name), rec in self.calls.items()},
            "counters": dict(self.counters),
        }

    def dump(self, path: str, extra: dict | None = None) -> None:
        doc = {"spans": [list(s) for s in self.spans], **self.summary(),
               **(extra or {})}
        with open(path, "w") as fh:
            json.dump(doc, fh)


#: Counters read off a call's arguments and result, by target path.
NOTES = {
    "TreeProblem.instances": lambda t, a, r: t.note("instances", len(r)),
    "LineProblem.instances": lambda t, a, r: t.note("instances", len(r)),
    "ConflictIndex.__init__": lambda t, a, r: t.note("edges",
                                                     a[0].num_edges),
    "scan_journal": lambda t, a, r: t.note("tail_events", len(r[2])),
}


def _wrap(tracer: Tracer, layer: str, name: str, fn, keep: bool,
          note=None):
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = push(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            pop(frame, keep)
        if note is not None:
            note(tracer, args, result)
        return result

    return traced


def _handle_wrapper(tracer: Tracer, fn):
    """``AdmissionService.handle`` spans are named after the op."""
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def traced(self, req):
        op = req.get("op") if isinstance(req, dict) else None
        frame = push("service.service", f"handle:{op}")
        try:
            return fn(self, req)
        finally:
            pop(frame, True)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS` plus every policy's bind."""
    for layer, name, module, path, keep in TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        note = NOTES.get(path)
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(_wrap(tracer, layer, name, raw.__func__,
                                      keep, note)))
        else:
            setattr(owner, attr, _wrap(tracer, layer, name, raw, keep,
                                       note))
    from repro.online import policies
    for obj in list(vars(policies).values()):
        if isinstance(obj, type) and issubclass(
                obj, policies.AdmissionPolicy) and "bind" in obj.__dict__:
            obj.bind = _wrap(tracer, "online.policies", "bind",
                             obj.__dict__["bind"], True)
    from repro.service.service import AdmissionService
    AdmissionService.handle = _handle_wrapper(
        tracer, AdmissionService.__dict__["handle"])


class TimedJson:
    """Stands in for the ``json`` module inside the line server, so the
    per-line request decode and response encode show as spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.loads = _wrap(tracer, "service.server", "decode", json.loads,
                           True)
        self.dumps = _wrap(tracer, "service.server", "encode", json.dumps,
                           True)


class TimedLines:
    """Wraps the server's request stream: time blocked on the next line
    is the wait for the client; bytes read are counted."""

    def __init__(self, tracer: Tracer, stream) -> None:
        self.tracer = tracer
        self.stream = stream
        self.bytes = 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        frame = self.tracer.push("wait", "client")
        try:
            line = self.stream.readline()
        finally:
            self.tracer.pop(frame, False)
        if not line:
            raise StopIteration
        self.bytes += len(line)
        return line


class TimedWriter:
    """Wraps the server's response stream: writes and flushes are the
    server's transport time; bytes written are counted."""

    def __init__(self, tracer: Tracer, stream) -> None:
        self.stream = stream
        self.bytes = 0
        self._write = _wrap(tracer, "service.server", "write", stream.write,
                            False)
        self.flush = _wrap(tracer, "service.server", "flush", stream.flush,
                           False)

    def write(self, text: str) -> int:
        self.bytes += len(text)
        return self._write(text)


def layer_budget(self_s: dict, wall: float) -> dict:
    """Per-layer self seconds over one wall window, plus ``unaccounted``
    (the part no span covers) and ``coverage`` (accounted / wall)."""
    rows = {layer: self_s.get(layer, 0.0) for layer in LAYERS}
    accounted = sum(rows.values())
    rows["unaccounted"] = wall - accounted
    return {"rows": rows, "wall_s": wall,
            "coverage": accounted / wall if wall > 0 else 0.0}
