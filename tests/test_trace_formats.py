"""Trace files in every format: binary, format 2 (JSON columns) and
format 1 (JSON records).

The committed ``tests/data/trace_*.json`` files are format 1 — the
format-1 reader's fixtures.  Each must decode, and so must its format-2
JSON copy (``helpers.write_v2_trace``, the layout the JSON writer used)
and its binary re-save (``save_trace``), to equal problem and event
columns, and all three must replay to identical decisions under every
policy with a batch kernel.  A malformed document of either JSON format
raises ``ValueError`` naming the field and the index.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.instance import TreeProblem
from repro.io import load_trace, save_trace, trace_from_dict, trace_to_dict
from repro.online import generate_trace, make_policy
from repro.session.kernel import AdmissionSession

from helpers import v1_trace_document, v2_trace_text, write_v2_trace

DATA = Path(__file__).resolve().parent / "data"
CORPUS = sorted(DATA.glob("trace_*.json"))
POLICIES = [("greedy-threshold", {}), ("dual-gated", {}),
            ("preempt-density", {"factor": 1.2})]


def _problem_columns(problem) -> dict:
    out = {f: c for f, c in problem.columns.items()}
    out["access_indptr"] = problem._acc_indptr
    out["access_networks"] = problem._acc_nets
    return out


def _outcome(trace, name, params):
    session = AdmissionSession(trace.problem, make_policy(name, **params))
    session.feed_many(trace.events)
    result = session.close(verify=True)
    return (result.admission_log, result.eviction_log,
            result.metrics.realized_profit.hex())


@pytest.fixture(scope="module", params=[p.name for p in CORPUS])
def formats(request, tmp_path_factory):
    """A committed format-1 trace, its format-2 JSON copy and its binary
    re-save, decoded, plus the paths of the two copies."""
    v1_path = DATA / request.param
    assert json.loads(v1_path.read_text())["format"] == 1
    v1 = load_trace(str(v1_path))
    tmp = tmp_path_factory.mktemp("formats")
    v2_path = tmp / request.param
    write_v2_trace(v1, v2_path)
    assert json.loads(v2_path.read_text())["format"] == 2
    bin_path = tmp / "trace.bin"
    save_trace(v1, str(bin_path))
    assert bin_path.read_bytes().startswith(b"\x89RPT\x01")
    return (v1, load_trace(str(v2_path)), load_trace(str(bin_path)),
            v2_path, bin_path)


def test_corpus_is_present():
    assert len(CORPUS) == 3


def test_formats_decode_to_equal_columns(formats):
    v1, *copies, _, _ = formats
    for other in copies:
        assert type(v1.problem) is type(other.problem)
        if isinstance(v1.problem, TreeProblem):
            assert v1.problem.n == other.problem.n
            assert ([net.edges for net in v1.problem.networks]
                    == [net.edges for net in other.problem.networks])
        else:
            assert v1.problem.n_slots == other.problem.n_slots
            assert v1.problem.num_networks == other.problem.num_networks
        a, b = _problem_columns(v1.problem), _problem_columns(other.problem)
        assert a.keys() == b.keys()
        for field in a:
            assert a[field].dtype == b[field].dtype, field
            assert np.array_equal(a[field], b[field]), field
        for col in ("kind", "time", "demand"):
            x, y = getattr(v1.events, col), getattr(other.events, col)
            assert x.dtype == y.dtype and np.array_equal(x, y), col
        assert v1.events == other.events
        assert v1.meta == other.meta


@pytest.mark.parametrize("name,params", POLICIES)
def test_formats_replay_identically(formats, name, params):
    v1, v2, binary, _, _ = formats
    assert (_outcome(v1, name, params) == _outcome(v2, name, params)
            == _outcome(binary, name, params))


def test_format_2_resave_is_byte_stable(formats, tmp_path):
    _, v2, binary, v2_path, bin_path = formats
    assert v2_trace_text(v2) == v2_path.read_text()
    for source in (v2, binary):
        again = tmp_path / "again.bin"
        save_trace(source, str(again))
        assert again.read_bytes() == bin_path.read_bytes()


def test_serve_journal_is_the_same_from_every_format(tmp_path, monkeypatch):
    """``repro serve`` over each format of one trace writes the same
    journal, byte for byte (the header embeds the decoded columns)."""
    import hashlib
    import io

    from repro.cli import main
    from repro.io import event_to_dict

    v1_path = DATA / "trace_poisson_tree.json"
    trace = load_trace(str(v1_path))
    v2_path = tmp_path / "trace.json"
    write_v2_trace(trace, v2_path)
    bin_path = tmp_path / "trace.bin"
    save_trace(trace, str(bin_path))
    events = [event_to_dict(ev) for ev in trace.events]
    requests = "".join(json.dumps({"op": "feed", "events": events[i:i + 16]})
                       + "\n" for i in range(0, len(events), 16))
    digests = set()
    for path in (v1_path, v2_path, bin_path):
        journal = tmp_path / f"{path.name}.journal"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(["serve", "--trace", str(path), "--policy",
                     "dual-gated", "--journal", str(journal),
                     "--sync-window", "8", "--checkpoint-every", "50"]) == 0
        digests.add(hashlib.sha256(journal.read_bytes()).hexdigest())
    assert len(digests) == 1


# ----------------------------------------------------------------------
# Malformed documents: one-line errors naming the field and the index
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace("tree", events=40, seed=3, departure_prob=0.4,
                          tick_every=2.0, workload={"n": 16})


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


def _pop(path):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]
    return edit


V1_CASES = [
    pytest.param(_pop(("events", 2, "demand")),
                 r"^events\[2\]: missing field 'demand'$", id="no-demand"),
    pytest.param(_set(("events", 1, "time"), "soon"),
                 r"^events\[1\]: time must be a finite number, got 'soon'$",
                 id="string-time"),
    pytest.param(_set(("events", 1, "demand"), True),
                 r"^events\[1\]: demand must be an integer, got True$",
                 id="bool-demand"),
    pytest.param(_set(("events", 4), [1, 2]),
                 r"^events\[4\] must be a JSON object, got list$",
                 id="array-record"),
    pytest.param(_set(("events", 3, "type"), "teleport"),
                 r"^events\[3\]: unknown event type 'teleport'$",
                 id="unknown-type"),
    pytest.param(_pop(("problem", "demands", 3, "u")),
                 r"^problem\.demands\[3\]: missing field 'u'$",
                 id="demand-without-u"),
    pytest.param(_set(("events",), {}),
                 r"^events must be a JSON array, got dict$",
                 id="events-object"),
    pytest.param(_set(("problem", "demands", 1, "u"), True),
                 r"^demand 1: u must be an integer, got True$",
                 id="bool-endpoint"),
]

V2_CASES = [
    pytest.param(_set(("events", "time", 5), "x"),
                 r"^events\.time\[5\] must be a finite number, got 'x'$",
                 id="string-time"),
    pytest.param(_set(("events", "time", 5), float("nan")),
                 r"^events\.time\[5\] must be a finite number, got nan$",
                 id="nan-time"),
    pytest.param(_set(("events", "demand", 5), 1.5),
                 r"^events\.demand\[5\] must be an integer, got 1\.5$",
                 id="float-demand"),
    pytest.param(_set(("events", "kind", 0), 9),
                 r"^events\.kind\[0\]: unknown event kind 9",
                 id="unknown-kind"),
    pytest.param(_pop(("events", "time", -1)),
                 r"^events: column lengths differ: kind 40, time 39, "
                 r"demand 40$", id="length-mismatch"),
    pytest.param(_pop(("events", "demand")),
                 r"^events: missing field 'demand'$", id="no-demand-column"),
    pytest.param(_set(("events",), []),
                 r"^events must be a JSON object, got list$",
                 id="events-array"),
    pytest.param(_pop(("problem", "demands", "profit")),
                 r"^problem\.demands: missing field 'profit'$",
                 id="no-profit-column"),
    pytest.param(_set(("problem", "demands", "u", 1), "a"),
                 r"^demand 1: u must be an integer, got 'a'$",
                 id="string-endpoint"),
    pytest.param(_set(("problem", "demands", "profit", 2), True),
                 r"^demand 2: profit must be a number, got True$",
                 id="bool-profit"),
    pytest.param(_set(("problem", "access", "indptr", 1), -4),
                 r"^problem\.access\.indptr must rise from 0",
                 id="bad-indptr"),
    pytest.param(_set(("problem", "access", "networks"), None),
                 r"^problem\.access\.networks must be a JSON array",
                 id="no-access-networks"),
]


@pytest.mark.parametrize("edit,message", V1_CASES)
def test_malformed_v1_document(small_trace, edit, message):
    doc = json.loads(json.dumps(v1_trace_document(small_trace)))
    edit(doc)
    with pytest.raises(ValueError, match=message):
        trace_from_dict(doc)


@pytest.mark.parametrize("edit,message", V2_CASES)
def test_malformed_v2_document(small_trace, edit, message):
    doc = json.loads(json.dumps(trace_to_dict(small_trace)))
    edit(doc)
    with pytest.raises(ValueError, match=message):
        trace_from_dict(doc)


def test_v2_tick_must_carry_no_demand(small_trace):
    doc = trace_to_dict(small_trace)
    i = doc["events"]["kind"].index(2)  # the first tick
    doc["events"]["demand"][i] = 3
    with pytest.raises(ValueError,
                       match=rf"^events\.demand\[{i}\]: a tick carries "
                             "demand -1, got 3$"):
        trace_from_dict(doc)


@pytest.mark.parametrize("doc,message", [
    ([], r"^trace must be a JSON object, got list$"),
    ({"kind": "trace"}, r"^trace: missing field 'format'$"),
    ({"format": 2, "kind": "trace"}, r"^trace: missing field 'problem'$"),
])
def test_malformed_envelope(doc, message):
    with pytest.raises(ValueError, match=message):
        trace_from_dict(doc)


# ----------------------------------------------------------------------
# The journal header embeds a format-2 trace; every later record is
# unchanged
# ----------------------------------------------------------------------

#: sha256 of every journal byte after the header record: the corpus tree
#: trace served with dual-gated through ``feed`` requests of 16 events,
#: sync window 8, a checkpoint every 50 events — recorded while the
#: header still embedded a format-1 trace.  The ``jsonl`` journal is the
#: binary one transcoded by ``helpers.jsonl_copy``.
RECORDS_SHA256 = {
    "jsonl": "0b653054f5ca5b6bd401f8722d4e99a21995a1d49b56a45499889c67312a396c",
    "binary":
        "045bf25e55ddd94873eac67cfa924e449769f6ee525f431d6c168123e8d56753",
}


def _as_codec(path, fmt: str):
    """The binary journal at ``path``, or its JSON-lines copy."""
    if fmt == "binary":
        return path
    from helpers import jsonl_copy

    copy = path.with_suffix(f".{fmt}")
    jsonl_copy(path, copy)
    return copy


@pytest.mark.parametrize("fmt", sorted(RECORDS_SHA256))
def test_journal_records_after_the_header_are_unchanged(fmt, tmp_path):
    import hashlib

    from repro.io import event_to_dict, iter_journal
    from repro.service import AdmissionService

    trace = load_trace(str(DATA / "trace_poisson_tree.json"))
    path = tmp_path / "j.binary"
    svc = AdmissionService(trace, "dual-gated", journal_path=str(path),
                           sync_window=8, checkpoint_every=50)
    records = [event_to_dict(ev) for ev in trace.events]
    for i in range(0, len(records), 16):
        assert svc.handle({"op": "feed", "events": records[i:i + 16]})["ok"]
    svc.close()
    path = _as_codec(path, fmt)
    kind, header, cut = next(iter_journal(str(path)))
    assert kind == "header" and header["trace"]["format"] == 2
    embedded = trace_from_dict(header["trace"])
    assert embedded.events == trace.events
    assert all(np.array_equal(embedded.problem.columns[f], c)
               for f, c in trace.problem.columns.items())
    body = path.read_bytes()[cut:]
    assert hashlib.sha256(body).hexdigest() == RECORDS_SHA256[fmt]


#: sha256 of every journal byte after the header record: the corpus tree
#: trace served with dual-gated through one-event requests — every third
#: event a ``submit``, the others ``admit``/``release``/``tick``, some
#: arrivals followed by a refused duplicate ``admit`` — sync window 8, a
#: checkpoint every 50 events; recorded while every journal record was
#: still packed one event object at a time.  The ``jsonl`` journal is
#: the binary one transcoded by ``helpers.jsonl_copy``.
SINGLE_OP_RECORDS_SHA256 = {
    "jsonl": "069f9249ff6b9222203ecef46ff3d2a7767b4a728643cbb4f166eabd322d2930",
    "binary":
        "4570e675301028c21b17a0fac1f867a82a777300cf5fa1f8c6e932b9ad105aa2",
}


@pytest.mark.parametrize("fmt", sorted(SINGLE_OP_RECORDS_SHA256))
def test_single_event_op_journal_records_are_unchanged(fmt, tmp_path):
    import hashlib

    from repro.io import event_to_dict, iter_journal
    from repro.service import AdmissionService

    trace = load_trace(str(DATA / "trace_poisson_tree.json"))
    path = tmp_path / "j.binary"
    svc = AdmissionService(trace, "dual-gated", journal_path=str(path),
                           sync_window=8, checkpoint_every=50)
    for i, ev in enumerate(trace.events):
        doc = event_to_dict(ev)
        if i % 3 == 0:
            req = {"op": "submit", "event": doc}
        elif doc["type"] == "tick":
            req = {"op": "tick", "time": doc["time"]}
        else:
            req = {"op": "admit" if doc["type"] == "arrival" else "release",
                   "demand": doc["demand"], "time": doc["time"]}
        assert svc.handle(req)["ok"], req
        if i % 7 == 3 and doc["type"] == "arrival":
            assert not svc.handle({"op": "admit", "demand": doc["demand"],
                                   "time": doc["time"]})["ok"]
    svc.close()
    path = _as_codec(path, fmt)
    _kind, _header, cut = next(iter_journal(str(path)))
    body = path.read_bytes()[cut:]
    assert hashlib.sha256(body).hexdigest() == SINGLE_OP_RECORDS_SHA256[fmt]
