"""Checkpoints from before edge ids followed key order still resume
exactly, and a checkpoint whose loads sit on the wrong edges is refused.

The journals under ``data/legacy_journals/`` were written by code whose
checkpoints numbered edges in first-appearance order and carried no
``"edge_order"`` field (``make_legacy_journals.py`` documents how).
Each is resumed on the current code and finished; the outcome must
match the one the writing code recorded, with per-edge vectors compared
by edge key.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil

import numpy as np
import pytest

from repro.io import scan_journal
from repro.online import generate_trace
from repro.service.service import EDGE_ORDER, AdmissionService

DATA_DIR = pathlib.Path(__file__).parent / "data" / "legacy_journals"
EXPECTED = json.loads((DATA_DIR / "expected.json").read_text())
JOURNALS = sorted(p.name for p in DATA_DIR.glob("*.journal"))


def _keyed(index, vector) -> dict:
    keys = index._edge_keys
    return {repr(keys[e]): x.hex()
            for e, x in enumerate(vector.tolist()) if x}


def test_every_case_has_fixtures():
    assert len(JOURNALS) == 4 * len(EXPECTED)
    for name in JOURNALS:
        assert name.rsplit("-", 2)[0] in EXPECTED


@pytest.mark.parametrize("name", JOURNALS)
def test_legacy_journal_resumes_exactly(name, tmp_path):
    _header, ckpt, _tail, _good, _fmt = scan_journal(str(DATA_DIR / name))
    assert ckpt is not None and "edge_order" not in ckpt
    path = tmp_path / name
    shutil.copyfile(DATA_DIR / name, path)
    svc = AdmissionService.resume(str(path))
    result = svc.run_remaining(verify=True)
    want = EXPECTED[name.rsplit("-", 2)[0]]
    assert [list(p) for p in result.admission_log] == want["admission_log"]
    assert [list(p) for p in result.eviction_log] == want["eviction_log"]
    assert (float(result.metrics.realized_profit).hex()
            == want["realized_profit"])
    ledger = svc.session.ledger
    assert _keyed(ledger.index, ledger.load) == want["load"]
    policy = svc.session.policy
    if "peak" in want:
        assert _keyed(ledger.index, policy._peak) == want["peak"]
        assert len(policy._snapshots) == want["snapshots"]
        assert math.isclose(policy.price_certificate()["upper_bound"],
                            want["upper_bound"], rel_tol=1e-12)


def _mid_stream_service(tmp_path, policy="dual-gated", params=None):
    trace = generate_trace(kind="tree", events=120, seed=4,
                           workload={"n": 32, "r": 2})
    svc = AdmissionService(trace, policy, params or {"history": True},
                           journal_path=str(tmp_path / "j.log"))
    svc.feed_events(trace.events[:80])
    return trace, svc


def test_checkpoints_record_key_order(tmp_path):
    _trace, svc = _mid_stream_service(tmp_path)
    assert svc.checkpoint_state()["edge_order"] == EDGE_ORDER == "key"


def test_permuted_checkpoint_is_refused(tmp_path):
    trace, svc = _mid_stream_service(tmp_path)
    state = svc.checkpoint_state()
    load = np.asarray(state["ledger"]["load"])
    assert load.any()
    state["ledger"] = dict(state["ledger"], load=load[::-1].tolist())
    fresh = AdmissionService(trace, "dual-gated", {"history": True})
    with pytest.raises(ValueError, match="admitted routes"):
        fresh._restore_state(state)


def test_key_order_checkpoint_read_as_legacy_is_refused(tmp_path):
    # Without its edge_order field a key-order checkpoint is re-keyed as
    # a legacy one; the loads then land on the wrong edges, which the
    # restore's load check must catch.
    trace, svc = _mid_stream_service(tmp_path)
    state = svc.checkpoint_state()
    del state["edge_order"]
    fresh = AdmissionService(trace, "dual-gated", {"history": True})
    with pytest.raises(ValueError, match="admitted routes"):
        fresh._restore_state(state)


def test_unpermuted_checkpoint_restores(tmp_path):
    trace, svc = _mid_stream_service(tmp_path)
    state = svc.checkpoint_state()
    fresh = AdmissionService(trace, "dual-gated", {"history": True})
    fresh._restore_state(json.loads(json.dumps(state)))
    assert np.array_equal(fresh.session.ledger.load,
                          svc.session.ledger.load)
    assert np.array_equal(fresh.session.policy._peak,
                          svc.session.policy._peak)
