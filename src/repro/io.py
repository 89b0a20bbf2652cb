"""Serialization for problems, solutions, event traces and journals.

Lets workloads be pinned to disk (regression corpora, cross-machine
benchmark runs), solutions be archived next to the dual certificates
that justify them, and online event traces be replayed bit-identically
on other machines.  The formats are stable and versioned; round-trips
are exact (vertex ids, profits, heights, access sets, selected
instances, event times).

Problems are written as JSON in **format 2**: each demand field is one
JSON array (one line of the file), and access is one CSR, so a
document decodes straight into NumPy columns.  Their **format 1** — one
object per demand — is still read, into the same columns.

Traces are written **binary**: a magic+version preamble, the format-2
trace document in the raw-column codec that heads a binary journal
(a JSON envelope plus one little-endian array per column, read back
with ``np.frombuffer``), and a CRC-32 trailer.  JSON trace files —
format 2 (one array per event field) and format 1 (one object per
event) — are still read, into the same columns, but never written;
:func:`trace_to_dict` is the JSON view of a trace.

All ``save_*`` writers are **atomic**: the file is written to a
temporary file in the destination directory and moved into place with
:func:`os.replace`, so a process killed mid-write never leaves a
truncated artifact behind.

The **admission journal** is the service layer's durability log: an
append-only file whose first record is a self-contained header (policy,
parameters, the full trace as columns) and whose every further record is
one submitted event in the trace event schema, optionally interleaved
with **checkpoint** records (serialized session state, so a resume can
seek past the prefix instead of replaying it).  The writer emits one
codec: a magic+version preamble followed by length-prefixed records;
the header is a JSON envelope plus one raw array per trace column, and
an event is a packed 18-byte record.  JSON-lines journals (one JSON
document per line), which earlier writers emitted, are still read — the
codec is auto-detected — but never appended to:
:meth:`~repro.service.AdmissionService.resume` and ``compact`` rewrite
one as binary first.

Because replay decisions are deterministic, re-submitting the
journaled events into a fresh :class:`~repro.session.AdmissionSession`
reconstructs the exact ledger and metrics state — the warm-restart
path.  The reader of either codec tolerates a torn *final* record (the
one a ``kill -9`` can leave behind) and reports the byte offset of the
last intact record so the writer can resume appending cleanly;
corruption anywhere else is an error.

:class:`JournalWriter` supports **group commit**: records buffer in
memory and are written + (optionally) fsynced together every
``sync_window`` events or ``sync_interval_ms`` milliseconds, and
``commit_seq`` exposes the highest event sequence number that has
actually reached the file — the "durable" watermark the service layer
acknowledges to clients, as distinct from "accepted".
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import struct
import tempfile
import time
import zlib
from typing import Any, Iterator

import numpy as np

from .core.demand import LineDemandInstance, TreeDemandInstance
from .core.instance import LineProblem, TreeProblem
from .core.solution import Solution
from .network.line import LineNetwork
from .network.tree import TreeNetwork
from .obs.tracing import RECORDER as _REC

__all__ = [
    "problem_to_dict",
    "problem_from_dict",
    "solution_to_dict",
    "solution_from_dict",
    "trace_to_dict",
    "trace_to_columns",
    "trace_from_dict",
    "event_to_dict",
    "event_from_dict",
    "parse_demand_id",
    "parse_event_time",
    "save_problem",
    "load_problem",
    "save_solution",
    "load_solution",
    "save_trace",
    "load_trace",
    "load_trace_document",
    "JournalWriter",
    "read_journal",
    "iter_journal",
    "scan_journal",
]

#: Version of the problem document :func:`problem_to_dict` writes;
#: :func:`problem_from_dict` also reads version 1.
FORMAT_VERSION = 2

#: Version of the solution document (independent of the problem format).
SOLUTION_FORMAT_VERSION = 1

#: Version of the event-trace document :func:`trace_to_dict` writes
#: (independent of the problem format); version 1 is still read.
TRACE_FORMAT_VERSION = 2

#: Version of the binary trace container :func:`save_trace` writes
#: around the format-2 document.
TRACE_CONTAINER_VERSION = 1

#: Version of the admission-journal envelope.
JOURNAL_FORMAT_VERSION = 1

#: Demand fields of each problem kind, in document order.
_DEMAND_FIELDS = {
    "tree": ("u", "v", "profit", "height"),
    "line": ("release", "deadline", "proc_time", "profit", "height"),
}


def _field(doc, key: str, where: str):
    """``doc[key]``; ``ValueError`` naming ``where`` when ``doc`` is not
    an object or lacks the field."""
    if not isinstance(doc, dict):
        raise ValueError(
            f"{where} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{where}: missing field {key!r}")
    return doc[key]


def _list(value, where: str) -> list:
    """``value`` if it is a JSON array — or a 1-D NumPy column, as a
    binary journal header hands them back — else ``ValueError``."""
    if not isinstance(value, list) and not (
            isinstance(value, np.ndarray) and value.ndim == 1):
        raise ValueError(
            f"{where} must be a JSON array, got {type(value).__name__}")
    return value


def _column_table(doc, fields: tuple[str, ...], where: str) -> dict:
    """A v2 column table: one equal-length array per field."""
    cols = {f: _list(_field(doc, f, where), f"{where}.{f}") for f in fields}
    lengths = {f: len(c) for f, c in cols.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"{where}: column lengths differ: " + ", ".join(
            f"{f} {n}" for f, n in lengths.items()))
    return cols


def _numbers(values: list, integer: bool, name) -> np.ndarray:
    """``values`` as an int64 (``integer``) or finite float64 column.

    A value of the wrong JSON type (a bool, a string, a float where an
    integer belongs), an integer beyond int64 or a non-finite number
    raises ``ValueError`` with ``name(i)`` naming the first one.
    ``values`` may also be a 1-D NumPy column (:func:`_array_numbers`).
    """
    if isinstance(values, np.ndarray):
        return _array_numbers(values, integer, name)
    allowed = (int,) if integer else (int, float)
    want = "an integer" if integer else "a finite number"
    if not set(map(type, values)) <= set(allowed):
        # NumPy scalars pass as in parse_demand_id / parse_event_time.
        abc = numbers.Integral if integer else numbers.Real
        for i, x in enumerate(values):
            if isinstance(x, bool) or not isinstance(x, abc):
                raise ValueError(f"{name(i)} must be {want}, got {x!r}")
        values = [x if type(x) in allowed else int(x) if integer
                  else float(x) for x in values]
    try:
        arr = np.array(values, dtype=np.int64 if integer else np.float64)
    except OverflowError:
        i = next(i for i, x in enumerate(values)
                 if not -2**63 <= x < 2**63)
        raise ValueError(f"{name(i)} out of range, got {values[i]!r}") \
            from None
    if not integer:
        bad = ~np.isfinite(arr)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"{name(i)} must be {want}, got {values[i]!r}")
    return arr


def _array_numbers(arr: np.ndarray, integer: bool, name) -> np.ndarray:
    """:func:`_numbers` of a 1-D column: the same checks and messages,
    on its dtype and values at once (a column of the wrong kind names
    its first entry)."""
    want = "an integer" if integer else "a finite number"
    if len(arr) and arr.dtype.kind not in ("iu" if integer else "iuf"):
        raise ValueError(f"{name(0)} must be {want}, got {arr[0].item()!r}")
    if integer:
        if arr.dtype.kind == "u" and len(arr) and arr.max() >= 2**63:
            i = int(arr.argmax())
            raise ValueError(f"{name(i)} out of range, got {arr[i].item()!r}")
        return arr.astype(np.int64)
    out = arr.astype(np.float64)
    bad = ~np.isfinite(out)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"{name(i)} must be {want}, got {arr[i].item()!r}")
    return out


def _access_csr_of(problem) -> dict:
    if problem._access is not None:  # built, and possibly edited since
        rows = [sorted(acc) for acc in problem._access]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        return {"indptr": indptr, "networks": np.array(
            [q for r in rows for q in r], dtype=np.int64)}
    return {"indptr": problem._acc_indptr, "networks": problem._acc_nets}


def _listed(doc: dict) -> dict:
    """``doc`` with every NumPy column, at any depth of nested objects,
    as a list."""
    return {k: v.tolist() if isinstance(v, np.ndarray)
            else _listed(v) if isinstance(v, dict) else v
            for k, v in doc.items()}


def problem_to_columns(problem) -> dict:
    """The format-2 document of a :class:`TreeProblem` or
    :class:`LineProblem` with its demand columns and access CSR as NumPy
    arrays (:func:`problem_to_dict` is its JSON form)."""
    if isinstance(problem, TreeProblem):
        kind = "tree"
        head = {"n": problem.n,
                "networks": [sorted(net.edges) for net in problem.networks]}
    elif isinstance(problem, LineProblem):
        kind = "line"
        head = {"n_slots": problem.n_slots,
                "num_resources": problem.num_networks}
    else:
        raise TypeError(f"cannot serialize {type(problem).__name__}")
    cols = problem.columns
    return {
        "format": FORMAT_VERSION,
        "kind": kind,
        **head,
        "demands": {f: cols[f] for f in _DEMAND_FIELDS[kind]},
        "access": _access_csr_of(problem),
    }


def problem_to_dict(problem) -> dict:
    """Serialize a :class:`TreeProblem` or :class:`LineProblem` as a
    format-2 document: each demand field one column, access one CSR."""
    return _listed(problem_to_columns(problem))


def _demand_columns_v1(records, fields: tuple[str, ...]) -> dict:
    """Version-1 demand records read straight into per-field columns
    (validated in bulk by the problem's ``from_columns``)."""
    records = _list(records, "problem.demands")
    try:
        cols = {f: [d[f] for d in records] for f in fields[:-1]}
        cols["height"] = [d.get("height", 1.0) for d in records]
    except (KeyError, TypeError, AttributeError):
        for i, d in enumerate(records):
            for f in fields[:-1]:
                _field(d, f, f"problem.demands[{i}]")
        raise
    return cols


def _access_v2(doc, m: int):
    """A version-2 access CSR as ``(indptr, networks)`` arrays."""
    indptr = _numbers(_list(_field(doc, "indptr", "problem.access"),
                            "problem.access.indptr"),
                      True, lambda i: f"problem.access.indptr[{i}]")
    nets = _numbers(_list(_field(doc, "networks", "problem.access"),
                          "problem.access.networks"),
                    True, lambda i: f"problem.access.networks[{i}]")
    if (len(indptr) != m + 1 or indptr[0] != 0 or indptr[-1] != len(nets)
            or (np.diff(indptr) < 0).any()):
        raise ValueError(
            f"problem.access.indptr must rise from 0 to {len(nets)} in "
            f"{m + 1} entries (one row per demand)")
    return indptr, nets


def problem_from_dict(doc: dict):
    """Inverse of :func:`problem_to_dict`; reads formats 1 and 2.

    Demand fields decode into columns, never into demand objects —
    format 2 stores them as columns, format 1's per-demand records are
    read straight into columns — and the problem validates every column
    at once (see :meth:`TreeProblem.from_columns`).  A malformed
    document raises ``ValueError`` naming the field (and index).
    """
    version = _field(doc, "format", "problem")
    if version not in (1, 2):
        raise ValueError(f"unsupported format version {version!r}")
    kind = doc.get("kind")
    if kind not in _DEMAND_FIELDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    fields = _DEMAND_FIELDS[kind]
    raw = _field(doc, "demands", "problem")
    access = _field(doc, "access", "problem")
    if version == 1:
        columns = _demand_columns_v1(raw, fields)
    else:
        columns = _column_table(raw, fields, "problem.demands")
        access = _access_v2(access, len(columns["profit"]))
    try:
        if kind == "tree":
            n = _field(doc, "n", "problem")
            networks = [
                TreeNetwork(n, [tuple(e) for e in edges], network_id=q)
                for q, edges in enumerate(
                    _list(_field(doc, "networks", "problem"),
                          "problem.networks"))
            ]
            return TreeProblem.from_columns(n, networks, columns,
                                            access=access)
        n_slots = _field(doc, "n_slots", "problem")
        resources = [
            LineNetwork(n_slots, network_id=q)
            for q in range(_field(doc, "num_resources", "problem"))
        ]
        return LineProblem.from_columns(n_slots, resources, columns,
                                        access=access)
    except TypeError as exc:
        raise ValueError(f"malformed {kind} problem: {exc}") from None


def _instance_to_dict(inst) -> dict:
    if isinstance(inst, TreeDemandInstance):
        return {
            "kind": "tree",
            "demand_id": inst.demand_id,
            "network_id": inst.network_id,
            "u": inst.u,
            "v": inst.v,
        }
    if isinstance(inst, LineDemandInstance):
        return {
            "kind": "line",
            "demand_id": inst.demand_id,
            "network_id": inst.network_id,
            "start": inst.start,
            "end": inst.end,
        }
    raise TypeError(f"cannot serialize instance {type(inst).__name__}")


def solution_to_dict(solution: Solution) -> dict:
    """Serialize a solution: selections plus (JSON-safe) stats."""
    stats: dict[str, Any] = {}
    for k, v in solution.stats.items():
        try:
            json.dumps(v)
        except TypeError:
            v = repr(v)
        stats[k] = v
    return {
        "format": SOLUTION_FORMAT_VERSION,
        "profit": solution.profit,
        "selected": [_instance_to_dict(d) for d in solution.selected],
        "stats": stats,
    }


def solution_from_dict(doc: dict, problem) -> Solution:
    """Rehydrate a solution against its problem.

    Selections are re-bound to the problem's own instance objects (so
    routes come from the problem, never from the file) and re-verified
    implicitly by any later ``verify_*_solution`` call.
    """
    if doc.get("format") != SOLUTION_FORMAT_VERSION:
        raise ValueError(f"unsupported format version {doc.get('format')!r}")
    lookup: dict[tuple, Any] = {}
    for inst in problem.instances():
        if isinstance(inst, TreeDemandInstance):
            lookup[(inst.demand_id, inst.network_id)] = inst
        else:
            lookup[(inst.demand_id, inst.network_id, inst.start, inst.end)] = inst
    selected = []
    for rec in doc["selected"]:
        if rec["kind"] == "tree":
            key = (rec["demand_id"], rec["network_id"])
        else:
            key = (rec["demand_id"], rec["network_id"], rec["start"], rec["end"])
        if key not in lookup:
            raise ValueError(f"selection {rec} does not exist in the problem")
        selected.append(lookup[key])
    return Solution(selected=selected, stats=dict(doc.get("stats", {})))


@functools.cache
def _events():
    """:mod:`repro.online.events`, imported on first use (so reading a
    problem or a solution does not load the online engine) and cached
    (the codecs call this per batch or per event)."""
    from .online import events

    return events


def event_to_dict(ev) -> dict:
    """Serialize one Arrival/Departure/Tick (the trace event schema)."""
    events = _events()

    if isinstance(ev, events.Arrival):
        return {"type": "arrival", "time": ev.time, "demand": ev.demand_id}
    if isinstance(ev, events.Departure):
        return {"type": "departure", "time": ev.time, "demand": ev.demand_id}
    if isinstance(ev, events.Tick):
        return {"type": "tick", "time": ev.time}
    raise TypeError(f"cannot serialize event {type(ev).__name__}")


def parse_demand_id(value) -> int:
    """A demand id read from outside the process, validated, not coerced.

    Accepts an integer (NumPy integers included) that an int64 column
    holds and nothing else: a bool, float or numeric string raises
    ``ValueError`` rather than silently naming some other demand.
    """
    if type(value) is int or (isinstance(value, numbers.Integral)
                              and not isinstance(value, bool)):
        if -2**63 <= value < 2**63:
            return int(value)
        raise ValueError(f"demand {value} out of range")
    raise ValueError(f"demand must be an integer, got {value!r}")


def parse_event_time(value) -> float:
    """An event time read from outside the process: a finite int or
    float (never a bool or a string), else ``ValueError``."""
    if type(value) is float or (isinstance(value, numbers.Real)
                                and not isinstance(value, bool)):
        t = float(value)
        if math.isfinite(t):
            return t
    raise ValueError(f"time must be a finite number, got {value!r}")


def event_from_dict(rec: dict):
    """Inverse of :func:`event_to_dict`: one record through the column
    decoder :func:`_events_v1` (strict, as :func:`parse_demand_id` and
    :func:`parse_event_time`; a malformed record raises ``ValueError``
    naming the ``event``)."""
    return _events().EventView(*_events_v1([rec], lambda i: "event"))[0]


def trace_to_columns(trace) -> dict:
    """The format-2 document of an :class:`~repro.online.events.
    EventTrace` with every column a NumPy array — the journal header's
    form (:func:`trace_to_dict` is its JSON form)."""
    events = trace.events
    return {
        "format": TRACE_FORMAT_VERSION,
        "kind": "trace",
        "problem": problem_to_columns(trace.problem),
        "events": {"kind": events.kind, "time": events.time,
                   "demand": events.demand},
        "meta": dict(trace.meta),
    }


def trace_to_dict(trace) -> dict:
    """Serialize an :class:`~repro.online.events.EventTrace` as a
    format-2 document: the events as ``kind`` / ``time`` / ``demand``
    columns (kind codes 0 arrival, 1 departure, 2 tick; a tick's demand
    is -1).

    The embedded problem uses the problem format (version
    :data:`FORMAT_VERSION`); the trace envelope carries its own
    :data:`TRACE_FORMAT_VERSION` so the two can evolve independently.
    """
    return _listed(trace_to_columns(trace))


def _events_v1(records, label=lambda i: f"events[{i}]") -> tuple:
    """Version-1 event records (a trace's, a ``feed`` request's, a
    JSON-lines journal's) read straight into kind/time/demand columns;
    a malformed record raises ``ValueError`` naming it ``label(i)``."""
    from .online.events import ARRIVAL, DEPARTURE, NO_DEMAND, TICK

    codes = {"arrival": ARRIVAL, "departure": DEPARTURE, "tick": TICK}
    records = _list(records, "events")
    try:
        kind = [codes[r["type"]] for r in records]
        time_ = [r["time"] for r in records]
        demand = [NO_DEMAND if k == TICK else r["demand"]
                  for k, r in zip(kind, records)]
    except (KeyError, TypeError, AttributeError):
        for i, rec in enumerate(records):
            where = label(i)
            etype = _field(rec, "type", where)
            if not isinstance(etype, str) or etype not in codes:
                raise ValueError(f"{where}: unknown event type {etype!r}")
            _field(rec, "time", where)
            if etype != "tick":
                _field(rec, "demand", where)
        raise
    return (kind, _numbers(time_, False, lambda i: f"{label(i)}: time"),
            _numbers(demand, True, lambda i: f"{label(i)}: demand"))


def _events_v2(doc) -> tuple:
    """Version-2 event columns, type-checked in bulk."""
    ev = _events()
    cols = _column_table(doc, ("kind", "time", "demand"), "events")
    kind = _numbers(cols["kind"], True, lambda i: f"events.kind[{i}]")
    bad = (kind < ev.ARRIVAL) | (kind > ev.TICK)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"events.kind[{i}]: unknown event kind {kind[i]} "
                         "(want 0 arrival, 1 departure, 2 tick)")
    demand = _numbers(cols["demand"], True,
                      lambda i: f"events.demand[{i}]")
    bad = (kind == ev.TICK) & (demand != ev.NO_DEMAND)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"events.demand[{i}]: a tick carries demand "
                         f"{ev.NO_DEMAND}, got {demand[i]}")
    return (kind, _numbers(cols["time"], False,
                           lambda i: f"events.time[{i}]"), demand)


def trace_from_dict(doc: dict):
    """Inverse of :func:`trace_to_dict` and :func:`trace_to_columns`;
    reads formats 1 and 2.

    Either way the events decode straight into columns (version 1's
    per-event records included) and the stream is re-validated in bulk
    by :class:`~repro.online.events.EventTrace`.  A format-2 column may
    be a list or a typed 1-D NumPy array (a binary journal header's);
    both get the same checks.  A malformed document raises
    ``ValueError`` naming the field (and index).
    """
    version = _field(doc, "format", "trace")
    if version not in (1, 2):
        raise ValueError(f"unsupported trace format version {version!r}")
    if doc.get("kind") != "trace":
        raise ValueError(f"not a trace document: kind={doc.get('kind')!r}")
    problem = problem_from_dict(_field(doc, "problem", "trace"))
    records = _field(doc, "events", "trace")
    columns = _events_v1(records) if version == 1 else _events_v2(records)
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("trace.meta must be a JSON object")
    ev = _events()
    return ev.EventTrace(problem=problem, events=ev.EventView(*columns),
                         meta=dict(meta))


def _fsync_dir(directory: str) -> None:
    """``fsync`` a directory so a just-created or just-renamed entry
    survives a crash — without this an :func:`os.replace` is atomic but
    not yet durable (the rename can be lost with the directory's dirty
    metadata)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _ColumnLayout(json.JSONEncoder):
    """JSON text with one object member per line and every array on one
    line, so each column of a format-2 document is one line however
    long it is."""

    def iterencode(self, o, _one_shot=False):
        return self._chunks(o, 0)

    def _chunks(self, o, level: int):
        if isinstance(o, dict) and o:
            pad = "\n" + " " * (level + 1)
            sep = "{"
            for key, value in o.items():
                yield f"{sep}{pad}{json.dumps(str(key))}: "
                yield from self._chunks(value, level + 1)
                sep = ","
            yield "\n" + " " * level + "}"
        else:
            yield json.dumps(o, separators=(",", ":"))


def _atomic_dump(doc: dict | bytes, path: str) -> None:
    """Write ``doc`` via temp-file + :func:`os.replace`: ``bytes`` as
    they are, anything else as JSON (:class:`_ColumnLayout`).

    The temp file lives in the destination directory (same filesystem,
    so the replace is atomic) and is removed on any failure — a killed
    or crashing writer leaves either the old file or the new one, never
    a truncated hybrid.  The temp file is fsynced before the replace
    and the directory after it, so the rename itself cannot be lost to
    a power cut.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    raw = isinstance(doc, bytes)
    try:
        with os.fdopen(fd, "wb" if raw else "w") as fh:
            if raw:
                fh.write(doc)
            else:
                json.dump(doc, fh, cls=_ColumnLayout)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_problem(problem, path: str) -> None:
    """Write a problem as JSON (atomically)."""
    _atomic_dump(problem_to_dict(problem), path)


def load_problem(path: str):
    """Read a problem file (format 1 or 2)."""
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


def save_solution(solution: Solution, path: str) -> None:
    """Write a solution as JSON (atomically)."""
    _atomic_dump(solution_to_dict(solution), path)


def load_solution(path: str, problem) -> Solution:
    """Read a solution written by :func:`save_solution`."""
    with open(path) as fh:
        return solution_from_dict(json.load(fh), problem)


#: Binary trace-file preamble: magic (first byte deliberately non-ASCII,
#: so no JSON text starts with it) + one container-version byte.
_TRACE_MAGIC = b"\x89RPT"
_TRACE_PREAMBLE = _TRACE_MAGIC + bytes([TRACE_CONTAINER_VERSION])
_CRC_STRUCT = struct.Struct("<I")


def save_trace(trace, path: str) -> None:
    """Write an event trace as a binary trace file (atomically).

    Layout: :data:`_TRACE_PREAMBLE`; the format-2 document as a column
    header — :func:`_column_header_payload` of :func:`trace_to_columns`,
    the codec that heads a binary journal; then the CRC-32 of that
    payload (u32, little-endian).  :func:`trace_to_dict` is the JSON
    view of the same document.
    """
    payload = _column_header_payload(trace_to_columns(trace))
    _atomic_dump(b"".join([_TRACE_PREAMBLE, payload,
                           _CRC_STRUCT.pack(zlib.crc32(payload))]), path)


def _trace_document(data: bytes) -> dict:
    """The document in a trace file's bytes: a binary file's columns as
    ``np.frombuffer`` arrays over ``data``, a JSON file parsed."""
    if not data.startswith(_TRACE_MAGIC):
        try:
            return json.loads(data)
        except UnicodeDecodeError as exc:
            raise ValueError(f"neither a binary trace nor JSON ({exc})") \
                from None
    if len(data) < len(_TRACE_PREAMBLE) + _CRC_STRUCT.size:
        raise ValueError(f"truncated binary trace ({len(data)} bytes)")
    version = data[len(_TRACE_MAGIC)]
    if version != TRACE_CONTAINER_VERSION:
        raise ValueError(f"unsupported binary trace version {version}")
    payload = memoryview(data)[len(_TRACE_PREAMBLE):-_CRC_STRUCT.size]
    (crc,) = _CRC_STRUCT.unpack_from(data, len(data) - _CRC_STRUCT.size)
    if zlib.crc32(payload) != crc:
        raise ValueError("binary trace checksum mismatch (the file is "
                         "damaged or truncated)")
    return _column_header(payload)


def load_trace_document(path: str) -> dict:
    """A trace file's document, not yet decoded into a trace: a binary
    file's (:func:`save_trace`) with NumPy columns over the file's
    bytes, a JSON file's (format 1 or 2) as parsed.  A damaged file
    raises ``ValueError`` naming ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _trace_document(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_trace(path: str):
    """Read a trace file: binary (what :func:`save_trace` writes) or a
    format-1 or format-2 JSON document.  JSON trace files are read
    only; a malformed file raises ``ValueError`` naming ``path`` and
    the field (and index) at fault."""
    doc = load_trace_document(path)
    try:
        return trace_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ----------------------------------------------------------------------
# The admission journal (append-only; written binary, JSON lines read)
# ----------------------------------------------------------------------

#: Binary-journal preamble: magic (first byte deliberately non-ASCII so
#: it can never collide with a JSON line) + one format-version byte.
_BINARY_MAGIC = b"\x89RPJ"
_BINARY_PREAMBLE = _BINARY_MAGIC + bytes([JOURNAL_FORMAT_VERSION])

#: Record-type bytes of the binary codec.  The writer heads a
#: journal with a column header (:func:`_column_header_payload`); a
#: JSON header is what earlier writers wrote, still read.
_REC_HEADER, _REC_EVENT, _REC_CHECKPOINT = 0x48, 0x45, 0x43  # 'H','E','C'
_REC_COLUMN_HEADER = 0x68  # 'h'

#: The array dtypes a column header stores raw: those of a trace's
#: columns (event kinds, ids and counts, times and demand fields).
_BLOB_DTYPES = frozenset({"|i1", "<i8", "<f8"})

#: A binary event payload: event-code byte (event kind + 1: 1 arrival,
#: 2 departure, 3 tick), f64 time, u32 demand (:data:`_NO_DEMAND` on a
#: tick); packed, little-endian.
_EVENT_PAYLOAD = np.dtype([("code", "u1"), ("time", "<f8"),
                           ("demand", "<u4")])
#: A framed binary event record: length prefix, record type, payload.
_EVENT_RECORD = np.dtype([("length", "<u4"), ("rtype", "u1"),
                          *_EVENT_PAYLOAD.descr])
_EVENT_BODY = 1 + _EVENT_PAYLOAD.itemsize
_NO_DEMAND = 0xFFFFFFFF  # ticks carry no demand id

#: Sanity bound on one framed record (the header carries the whole
#: trace as raw arrays, so this is generous; anything larger is
#: corruption).
_MAX_RECORD_BYTES = 1 << 30

_LEN_STRUCT = struct.Struct("<I")


def _binary_event_records(events) -> list[bytes]:
    """An :class:`~repro.online.events.EventView`'s framed binary event
    records, cut from one structured buffer."""
    kind, demand = events.kind, events.demand
    ids = demand.tolist()
    if ids and (min(ids) < 0 or max(ids) > _NO_DEMAND):
        bad = (kind != _events().TICK) & ((demand < 0)
                                          | (demand > _NO_DEMAND))
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"events[{i}]: demand {ids[i]} does not fit "
                             "the binary journal codec")
    rec = np.empty(len(kind), dtype=_EVENT_RECORD)
    rec["length"] = _EVENT_BODY
    rec["rtype"] = _REC_EVENT
    rec["code"] = kind + 1
    rec["time"] = events.time
    rec["demand"] = demand  # a tick's NO_DEMAND (-1) wraps to _NO_DEMAND
    blob, size = rec.tobytes(), _EVENT_RECORD.itemsize
    return [blob[i:i + size] for i in range(0, len(blob), size)]


def _frame_binary(rtype: int, payload: bytes) -> bytes:
    body = bytes([rtype]) + payload
    return _LEN_STRUCT.pack(len(body)) + body


def _array_as_list(obj):
    """``json.dumps``'s ``default`` hook: a NumPy column as a list."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def _json_record(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":"),
                      default=_array_as_list).encode("utf-8") + b"\n"


def _split_columns(doc: dict, path: list, found: list) -> dict:
    """``doc`` with every 1-D numeric NumPy array (at any depth of
    nested objects) replaced by ``null``; each such array is appended to
    ``found``, little-endian, with the key path that leads to it."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, np.ndarray) and value.ndim == 1 and \
                (le := value.dtype.newbyteorder("<")).str in _BLOB_DTYPES:
            found.append(([*path, str(key)],
                          np.ascontiguousarray(value, le)))
            value = None
        elif isinstance(value, dict):
            value = _split_columns(value, [*path, str(key)], found)
        out[key] = value
    return out


def _column_header_payload(doc: dict) -> bytes:
    """A column header — a binary journal's first record, and the body
    of a binary trace file: ``doc`` as a JSON envelope, each of its
    NumPy columns a raw little-endian blob.

    Layout: u32 envelope length, the envelope (UTF-8 JSON
    ``{"header": doc with each column null, "columns": [[key path,
    dtype, byte offset, count], ...]}``), then the blobs, at rising
    offsets counted from the end of the envelope.  Any other array
    (2-D, say) goes into the envelope as a JSON array.
    """
    found: list = []
    envelope = _split_columns(doc, [], found)
    columns, blobs, at = [], [], 0
    for path, arr in found:
        columns.append([path, arr.dtype.str, at, len(arr)])
        blobs.append(arr.tobytes())
        at += len(blobs[-1])
    head = json.dumps({"header": envelope, "columns": columns},
                      separators=(",", ":"),
                      default=_array_as_list).encode("utf-8")
    return _LEN_STRUCT.pack(len(head)) + head + b"".join(blobs)


def _column_header(payload) -> dict:
    """Inverse of :func:`_column_header_payload`: the header dict with
    each column an ``np.frombuffer`` array over ``payload``.  Raises
    ``ValueError`` saying what is wrong with a malformed one."""
    if len(payload) < _LEN_STRUCT.size:
        raise ValueError("truncated header envelope")
    (size,) = _LEN_STRUCT.unpack_from(payload)
    start = _LEN_STRUCT.size + size
    if start > len(payload):
        raise ValueError("truncated header envelope")
    envelope = json.loads(bytes(payload[_LEN_STRUCT.size:start]))
    blobs = payload[start:]
    header = _field(envelope, "header", "header envelope")
    end = 0
    for i, entry in enumerate(_list(_field(envelope, "columns",
                                           "header envelope"),
                                    "header envelope.columns")):
        where = f"header column {i}"
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ValueError(f"{where}: want [path, dtype, offset, count]")
        path, dtype, offset, count = entry
        if dtype not in _BLOB_DTYPES:
            raise ValueError(f"{where}: unknown dtype {dtype!r}")
        if type(offset) is not int or type(count) is not int or count < 0:
            raise ValueError(f"{where}: bad offset {offset!r} or count "
                             f"{count!r}")
        if offset < end:
            raise ValueError(f"{where}: offset {offset} is negative or "
                             f"overlaps the column before (ends at {end})")
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(blobs):
            raise ValueError(f"{where}: bytes {offset}..{end} run past the "
                             f"{len(blobs)} bytes of columns")
        if not (isinstance(path, list) and path
                and all(isinstance(key, str) for key in path)):
            raise ValueError(f"{where}: bad path {path!r}")
        node = header
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if not (isinstance(node, dict) and path[-1] in node
                and node[path[-1]] is None):
            raise ValueError(f"{where}: path {path!r} names no column")
        node[path[-1]] = np.frombuffer(blobs, dtype, count, offset)
    return header


class JournalWriter:
    """Append-only admission journal with group commit.

    The first record of a fresh journal is the header: the caller's
    ``header`` dict — for the service, the policy name, its constructor
    parameters, the checkpoint cadence and the trace as a column
    document (:func:`trace_to_columns`) — so a journal alone rebuilds
    the session that wrote it.  The header's NumPy columns are written
    as raw little-endian blobs behind a JSON envelope; the whole record
    is encoded before the file is created.  Every further
    record is one event in the trace event schema, or a checkpoint (see
    :meth:`checkpoint`); events are encoded a batch at a time from
    :class:`~repro.online.events.EventView` columns (:meth:`append_many`).

    Appended records **buffer in memory** and reach the file at the
    next *commit* — every ``sync_window`` events, whenever
    ``sync_interval_ms`` has elapsed since the oldest buffered record,
    on a checkpoint, and at :meth:`close`.  A commit is one batched
    write + flush (plus one ``fsync`` when ``sync=True``), so the
    per-event durability cost is amortized across the window.  The
    default window of 1 commits per record, the PR-5 behaviour: the
    journal then survives a ``kill -9`` of the writer with no event
    loss (``sync=True`` additionally survives power loss).  With a
    wider window, up to ``sync_window - 1`` *accepted* events can be
    lost to a kill — the service layer exposes :attr:`commit_seq` so
    clients can tell which events are durable.

    The writer emits the binary codec only.  A JSON-lines journal is
    read (:func:`iter_journal`) but never appended to: resuming one
    through :class:`JournalWriter` raises ``ValueError``, and
    :meth:`~repro.service.AdmissionService.resume` rewrites it as
    binary first.

    Parameters
    ----------
    path:
        Journal file path; created (with the header) when missing or
        empty, else opened for appending at ``start_at`` bytes.
    header:
        The header dict (required for a fresh journal).  The envelope
        fields (``kind`` / ``format``) are stamped here.
    sync:
        ``fsync`` at every commit (power-loss durability).
    sync_window:
        Commit after this many buffered events (default 1).
    sync_interval_ms:
        Also commit when the oldest buffered event is older than this
        many milliseconds (checked on append; no background timer).
    start_at:
        Truncate the file to this many bytes before appending — the
        resume path drops a torn final record this way (see
        :func:`read_journal`).
    seq0:
        Event sequence number already in the file at ``start_at`` —
        lets a resumed writer report absolute ``seq`` / ``commit_seq``.
    """

    def __init__(self, path: str, header: dict | None = None, *,
                 sync: bool = False,
                 sync_window: int = 1, sync_interval_ms: float | None = None,
                 start_at: int | None = None, seq0: int = 0):
        if sync_window < 1:
            raise ValueError(f"sync_window must be >= 1, got {sync_window}")
        if sync_interval_ms is not None and sync_interval_ms <= 0:
            raise ValueError("sync_interval_ms must be positive")
        self.path = path
        self.sync = bool(sync)
        self.sync_window = int(sync_window)
        self.sync_interval_ms = sync_interval_ms
        #: Sequence number of the last *appended* event (possibly still
        #: buffered).
        self.seq = int(seq0)
        #: Sequence number of the last event written (+fsynced when
        #: ``sync``) to the file — the durable watermark.
        self.commit_seq = int(seq0)
        self._pending: list[bytes] = []
        self._pending_events = 0
        self._oldest_pending: float | None = None
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if start_at is not None:
            if not exists:
                raise ValueError(f"cannot resume missing journal {path!r}")
            if _journal_format(path) != "binary":
                raise ValueError(
                    f"journal {path!r} is JSON lines, which is read but "
                    "never appended to; resume or compact it to rewrite "
                    "it as binary")
            with open(path, "r+b") as fh:
                fh.truncate(start_at)
            self._fh = open(path, "ab")
        elif exists:
            raise ValueError(
                f"journal {path!r} already exists; pass start_at= (resume) "
                "or choose a fresh path"
            )
        else:
            if header is None:
                raise ValueError("a fresh journal needs a header")
            doc = dict(header)
            doc["kind"] = "admission-journal"
            doc["format"] = JOURNAL_FORMAT_VERSION
            # Encoded before the file exists: a header that fails to
            # encode leaves no stub behind to block the next writer.
            head = _BINARY_PREAMBLE + _frame_binary(
                _REC_COLUMN_HEADER, _column_header_payload(doc))
            self._fh = open(path, "wb")
            try:
                self._fh.write(head)
                self._fh.flush()
                if self.sync:
                    os.fsync(self._fh.fileno())
                # Make the file's *existence* crash-durable too: the
                # entry in the containing directory is metadata the data
                # fsync above does not cover.
                _fsync_dir(os.path.dirname(os.path.abspath(path)))
            except BaseException:
                self._fh.close()
                raise

    # ------------------------------------------------------------------

    def append(self, event) -> int:
        """Buffer one event object (write-ahead: call *before* applying
        it) — :meth:`append_many` of a one-event batch.  Returns its
        sequence number."""
        return self.append_many(_events().EventView.of((event,)))

    def append_many(self, events) -> int:
        """Buffer the records of an :class:`~repro.online.events.
        EventView`, encoded from its columns (write-ahead: call *before*
        applying the events).

        Commits fall where appending the events one at a time puts them:
        after every ``sync_window``-th buffered event, and where the
        ``sync_interval_ms`` clock, read at those points and at the end
        of the batch, has run out.  Returns the last sequence number.
        """
        records = _binary_event_records(events)
        done = 0
        while done < len(records):
            take = min(len(records) - done,
                       self.sync_window - self._pending_events)
            self._pending.append(b"".join(records[done:done + take]))
            self._pending_events += take
            self.seq += take
            done += take
            if self._oldest_pending is None and self.sync_interval_ms:
                self._oldest_pending = time.monotonic()
            if self._pending_events >= self.sync_window or (
                    self.sync_interval_ms is not None
                    and (time.monotonic() - self._oldest_pending) * 1e3
                    >= self.sync_interval_ms):
                self.commit()
        return self.seq

    def checkpoint(self, state: dict) -> None:
        """Append a checkpoint record and commit it immediately.

        ``state`` is the serialized session state a resume restores
        instead of replaying the event prefix (see
        :meth:`~repro.service.AdmissionService.checkpoint`); it must be
        JSON-safe.  Checkpoints always force a commit so the journal
        prefix they summarize is on disk alongside them.
        """
        self._pending.append(
            _frame_binary(_REC_CHECKPOINT, _json_record(state)))
        self.commit()

    def commit(self) -> int:
        """Write (and with ``sync``, fsync) everything buffered.

        Returns :attr:`commit_seq`, the durable event watermark.
        """
        if self._pending:
            t0 = time.perf_counter_ns() if _REC.enabled else 0
            records = self._pending_events
            self._fh.write(b"".join(self._pending))
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
            self._pending.clear()
            self._pending_events = 0
            self._oldest_pending = None
            if t0:
                # The group-commit flush window: how long the write (+
                # fsync under --sync) held the intake path.
                _REC.record("journal.commit", t0,
                            time.perf_counter_ns() - t0,
                            {"records": records, "sync": self.sync})
        self.commit_seq = self.seq
        return self.commit_seq

    def close(self) -> None:
        if not self._fh.closed:
            self.commit()
            self._fh.close()

    def abandon(self) -> None:
        """Drop buffered records and close without committing them.

        Simulates a ``kill -9`` landing between buffer and commit —
        the group-commit crash tests use this; production code wants
        :meth:`close`.
        """
        self._pending.clear()
        self._pending_events = 0
        self.seq = self.commit_seq
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _iter_jsonl_journal(path: str, fh) -> Iterator[tuple]:
    offset = 0
    saw_header = False
    lineno = 0
    for line in fh:
        lineno += 1
        if not line.endswith(b"\n"):
            # The writer terminates every record with '\n', so a
            # newline-less tail is a torn write — dropped even when its
            # JSON happens to parse (a kill can land exactly between
            # the bytes and the newline), because resuming must append
            # at a clean record start and good_bytes and the yielded
            # records must describe the same prefix.
            return
        offset += len(line)
        if not line.strip():
            continue
        try:
            rec = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            # Every terminated line was fully written — a bad one is
            # corruption, not a torn tail.
            raise ValueError(
                f"corrupt journal {path!r}: bad record on line {lineno}"
            )
        if not saw_header:
            _check_journal_header(path, rec)
            saw_header = True
            yield "header", rec, offset
        elif isinstance(rec, dict) and rec.get("kind") == "checkpoint":
            yield "checkpoint", rec.get("state") or {}, offset
        else:
            yield "event", rec, offset


def _iter_binary_journal(path: str, fh) -> Iterator[tuple]:
    offset = len(_BINARY_PREAMBLE)
    version = fh.read(len(_BINARY_PREAMBLE))[len(_BINARY_MAGIC):]
    if version != bytes([JOURNAL_FORMAT_VERSION]):
        raise ValueError(
            f"unsupported journal format version {version[0] if version else None!r}"
        )
    saw_header = False
    recno = 0
    while True:
        head = fh.read(_LEN_STRUCT.size)
        if len(head) < _LEN_STRUCT.size:
            return  # torn tail (or clean EOF)
        (length,) = _LEN_STRUCT.unpack(head)
        if not 0 < length <= _MAX_RECORD_BYTES:
            raise ValueError(
                f"corrupt journal {path!r}: bad record length at byte "
                f"{offset}"
            )
        body = fh.read(length)
        if len(body) < length:
            return  # torn tail: the record never finished writing
        recno += 1
        rtype, payload = body[0], memoryview(body)[1:]
        try:
            if rtype in (_REC_COLUMN_HEADER, _REC_HEADER) and recno > 1:
                # A later header would swap the trace under the events.
                raise ValueError("a header record after the first record")
            if rtype == _REC_COLUMN_HEADER:
                rec = ("header", _column_header(payload))
            elif rtype == _REC_HEADER:
                rec = ("header", json.loads(str(payload, "utf-8")))
            elif rtype == _REC_CHECKPOINT:
                rec = ("checkpoint", json.loads(str(payload, "utf-8")))
            elif rtype == _REC_EVENT:
                # Checked here, decoded in bulk (_event_view).
                if length != _EVENT_BODY or not 1 <= payload[0] <= 3:
                    raise ValueError("bad event payload")
                rec = ("event", payload)
            else:
                raise ValueError(f"unknown record type {rtype:#x}")
        except ValueError as exc:  # UnicodeDecodeError included
            # A complete record that fails to decode is corruption —
            # torn tails were already handled by the short reads above.
            raise ValueError(
                f"corrupt journal {path!r}: bad record {recno} at byte "
                f"{offset}: {exc}"
            ) from None
        offset += _LEN_STRUCT.size + length
        if not saw_header:
            if rec[0] != "header":
                raise ValueError(f"{path!r} is not an admission journal")
            _check_journal_header(path, rec[1])
            saw_header = True
        yield rec[0], rec[1], offset


def _check_journal_header(path: str, header) -> None:
    if not isinstance(header, dict) or \
            header.get("kind") != "admission-journal":
        raise ValueError(f"{path!r} is not an admission journal")
    if header.get("format") != JOURNAL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported journal format version {header.get('format')!r}"
        )


def _journal_format(path: str) -> str:
    """A journal's codec, detected from its first bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_BINARY_MAGIC))
    return "binary" if magic == _BINARY_MAGIC else "jsonl"


def _journal_records(path: str, fmt: str) -> Iterator[tuple]:
    """:func:`iter_journal`'s records with each event still raw, for
    :func:`_event_view`: its JSON value, or its checked payload."""
    with open(path, "rb") as fh:
        yield from (_iter_binary_journal if fmt == "binary"
                    else _iter_jsonl_journal)(path, fh)


def _event_view(path: str, fmt: str, raw: list):
    """Raw event records of one journal decoded in bulk into one
    :class:`~repro.online.events.EventView` (``ValueError`` if one is
    malformed)."""
    events = _events()
    if fmt == "jsonl":
        return events.EventView(*_events_v1(
            raw, lambda i: f"corrupt journal {path!r}: an event record"))
    rec = np.frombuffer(b"".join(raw), dtype=_EVENT_PAYLOAD)
    kind = rec["code"].astype(np.int8) - 1
    demand = np.where(kind == events.TICK, events.NO_DEMAND,
                      rec["demand"].astype(np.int64))
    return events.EventView(kind, rec["time"], demand)


def iter_journal(path: str) -> Iterator[tuple]:
    """Stream an admission journal's records without materializing it.

    Yields ``(kind, payload, good_bytes)`` tuples in file order, where
    ``kind`` is ``"header"`` (payload: the header dict — always the
    first record), ``"event"`` (payload: a rehydrated
    Arrival/Departure/Tick) or ``"checkpoint"`` (payload: the state
    dict), and ``good_bytes`` is the file offset right after the
    record — the ``start_at`` a resuming :class:`JournalWriter` should
    use if this turns out to be the last intact record.  A binary
    journal's column header hands its columns back as read-only
    ``np.frombuffer`` arrays; a JSON header holds lists.

    The codec (JSON-lines or binary) is auto-detected from the first
    bytes.  A torn *final* record — what a killed writer leaves
    behind — is silently dropped (the generator just ends);
    corruption anywhere else raises :class:`ValueError`.
    """
    fmt = _journal_format(path)
    for kind, payload, offset in _journal_records(path, fmt):
        if kind == "event":
            payload = _event_view(path, fmt, [payload])[0]
        yield kind, payload, offset


def read_journal(path: str) -> tuple[dict, list, int]:
    """Read a whole admission journal into memory.

    Returns ``(header, events, good_bytes)`` — the thin list-building
    wrapper over :func:`iter_journal` for callers that want the full
    event list (the header as :func:`iter_journal` yields it);
    checkpoint records are skipped.  ``good_bytes`` is the
    offset right after the last intact record.
    """
    header: dict | None = None
    events: list = []
    good = 0
    for kind, payload, offset in iter_journal(path):
        good = offset
        if kind == "header":
            header = payload
        elif kind == "event":
            events.append(payload)
    if header is None:
        raise ValueError(f"journal {path!r} has no header")
    return header, events, good


def scan_journal(path: str) -> tuple[dict, dict | None, Any, int, str]:
    """One streaming pass prepared for a warm restart.

    Returns ``(header, checkpoint, tail, good_bytes, fmt)``:
    ``checkpoint`` is the *last* checkpoint state in the journal (or
    ``None``), ``tail`` is one :class:`~repro.online.events.EventView`
    of only the events recorded **after** it (all of them when there is
    no checkpoint), decoded in bulk, and ``fmt`` is the detected codec.
    ``header`` is as :func:`iter_journal` yields it (a binary column
    header's columns as arrays, ready for :func:`trace_from_dict`).
    Memory stays proportional to the post-checkpoint tail, not the
    journal length — the point of snapshot compaction.
    """
    fmt = _journal_format(path)
    header: dict | None = None
    checkpoint: dict | None = None
    raw: list = []
    good = 0
    for kind, payload, offset in _journal_records(path, fmt):
        good = offset
        if kind == "header":
            header = payload
        elif kind == "checkpoint":
            _event_view(path, fmt, raw)  # checked, then dropped
            checkpoint = payload
            raw = []
        else:
            raw.append(payload)
    if header is None:
        raise ValueError(f"journal {path!r} has no header")
    return header, checkpoint, _event_view(path, fmt, raw), good, fmt
