"""The binary journal's column header against what came before it.

* A JSON-lines journal — a binary one transcoded by the frozen
  JSON-lines encoding in ``helpers.jsonl_copy`` — is byte-for-byte what
  the JSON-lines writer wrote before the header columns became NumPy
  arrays, header included.
* Compacting a committed legacy binary journal (JSON header record)
  rewrites it with a column header and still resumes to the outcome the
  writing code recorded.
* Transcoding a journal to JSON lines and upgrading it back to binary
  (by resuming it) keeps the trace exactly: every column, the meta,
  the restored state and the profit to the last bit.
* ``trace_from_dict`` rejects a malformed array column exactly as it
  rejects the same column as a list.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import struct

import numpy as np
import pytest
from helpers import jsonl_copy

from repro.io import event_to_dict, load_trace, scan_journal, trace_from_dict
from repro.online import generate_trace, make_policy, replay
from repro.service.service import AdmissionService

DATA = pathlib.Path(__file__).parent / "data"
LEGACY = DATA / "legacy_journals"
EXPECTED = json.loads((LEGACY / "expected.json").read_text())
LEGACY_BINARY = sorted(p.name for p in LEGACY.glob("*-binary-*.journal"))

#: sha256 of the whole JSON-lines journal (header included) of the
#: corpus tree trace served with dual-gated through ``feed`` requests of
#: 16 events, sync window 8, a checkpoint every 50 events — recorded
#: while the service still handed the journal its trace as lists and
#: the writer still emitted JSON lines.
JSONL_SHA256 = \
    "b69c4fb480ca8df2a9e20c75312ebcdbf760ebdc6ae596761e784397ead709e4"


def _record_type(path) -> int:
    """The type byte of a binary journal's first record."""
    raw = pathlib.Path(path).read_bytes()
    assert struct.unpack_from("<I", raw, 5)[0] > 0
    return raw[9]


def test_jsonl_journal_is_unchanged_header_included(tmp_path):
    trace = load_trace(str(DATA / "trace_poisson_tree.json"))
    binary, path = tmp_path / "j.journal", tmp_path / "j.jsonl"
    svc = AdmissionService(trace, "dual-gated", journal_path=str(binary),
                           sync_window=8, checkpoint_every=50)
    records = [event_to_dict(ev) for ev in trace.events]
    for i in range(0, len(records), 16):
        assert svc.handle({"op": "feed", "events": records[i:i + 16]})["ok"]
    svc.close()
    jsonl_copy(binary, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == JSONL_SHA256


@pytest.mark.parametrize("name", LEGACY_BINARY)
def test_compacting_a_legacy_binary_journal_writes_a_column_header(
        name, tmp_path):
    path = tmp_path / name
    shutil.copyfile(LEGACY / name, path)
    assert _record_type(path) == ord("H")
    AdmissionService.compact(str(path))
    assert _record_type(path) == ord("h")
    result = AdmissionService.resume(str(path)).run_remaining(verify=True)
    want = EXPECTED[name.rsplit("-", 2)[0]]
    assert [list(p) for p in result.admission_log] == want["admission_log"]
    assert [list(p) for p in result.eviction_log] == want["eviction_log"]
    assert (float(result.metrics.realized_profit).hex()
            == want["realized_profit"])


def _assert_same_trace(trace, header) -> None:
    back = trace_from_dict(header["trace"])
    for name, col in trace.problem.columns.items():
        assert np.array_equal(back.problem.columns[name], col), name
    assert np.array_equal(back.problem._acc_indptr, trace.problem._acc_indptr)
    assert np.array_equal(back.problem._acc_nets, trace.problem._acc_nets)
    assert [sorted(t.edges) for t in back.problem.networks] == \
        [sorted(t.edges) for t in trace.problem.networks]
    for name in ("kind", "time", "demand"):
        assert np.array_equal(getattr(back.events, name),
                              getattr(trace.events, name)), name
    assert back.meta == trace.meta


def test_codec_conversion_both_ways_keeps_the_trace_exactly(tmp_path):
    trace = generate_trace(kind="tree", events=300, seed=9,
                           workload={"n": 40, "r": 2})
    expected = replay(trace, make_policy("dual-gated", history=True))
    path, copy = tmp_path / "j.journal", tmp_path / "j.jsonl"
    svc = AdmissionService(trace, "dual-gated", {"history": True},
                           journal_path=str(path),
                           sync_window=16, checkpoint_every=64)
    svc.feed_events(trace.events[:170])
    state = json.dumps(svc.checkpoint_state())
    svc.journal.close()
    AdmissionService.compact(str(path))
    jsonl_copy(path, copy)
    # The last pass reads the copy as its resume upgraded it.
    for p, fmt in ((path, "binary"), (copy, "jsonl"), (copy, "binary")):
        header, ckpt, tail, _good, detected = scan_journal(str(p))
        assert detected == fmt and ckpt is not None and len(tail) == 0
        _assert_same_trace(trace, header)
        resumed = AdmissionService.resume(str(p))
        assert resumed.upgraded == (fmt == "jsonl")
        assert json.dumps(resumed.checkpoint_state()) == state
        resumed.journal.close()
    result = AdmissionService.resume(str(copy)).run_remaining()
    assert (float(result.metrics.realized_profit).hex()
            == float(expected.metrics.realized_profit).hex())
    assert result.admission_log == expected.admission_log


def _edit(doc, path, fn):
    """``doc`` with the column at ``path`` replaced by ``fn`` of it, in
    the column's own form (array or list)."""
    *outer, key = path
    node = doc
    for part in outer:
        node = node[part]
    value = fn(np.asarray(node[key]))
    node[key] = value if isinstance(node[key], np.ndarray) else \
        value.tolist()
    return doc


#: ``(column path, edit)``: malformed columns, each rejected the same
#: way whether the column is a list or an array.
BAD_COLUMNS = [
    (("events", "time"), lambda a: np.where(np.arange(len(a)) == 3,
                                            np.nan, a)),
    (("events", "time"), lambda a: np.where(np.arange(len(a)) == 5,
                                            np.inf, a)),
    (("events", "demand"), lambda a: a.astype(np.float64)),
    (("events", "kind"), lambda a: a[:-1]),
    (("events", "kind"), lambda a: a + 5),
    (("problem", "demands", "profit"), lambda a: -a),
    (("problem", "demands", "u"), lambda a: a.astype(np.float64)),
    (("problem", "access", "indptr"), lambda a: a[:-1]),
    (("problem", "access", "networks"), lambda a: a + 7),
]


@pytest.mark.parametrize("path, fn", BAD_COLUMNS,
                         ids=[f"{'.'.join(p)}-{i}"
                              for i, (p, _f) in enumerate(BAD_COLUMNS)])
def test_array_columns_get_the_checks_and_messages_of_lists(path, fn):
    from repro.io import trace_to_columns, trace_to_dict

    trace = load_trace(str(DATA / "trace_poisson_tree.json"))
    messages = []
    for doc in (trace_to_dict(trace), trace_to_columns(trace)):
        with pytest.raises(ValueError) as exc:
            trace_from_dict(_edit(doc, path, fn))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
