"""Tests for the admission service: journal, warm restart, request API.

The load-bearing guarantee is the warm-restart property the CI smoke
job also exercises end to end: killing a journaled service after *any*
event prefix and resuming from the journal finishes the trace with a
result identical (timing aside) to an uninterrupted replay — for every
registered policy.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from helpers import jsonl_copy

from repro.io import (
    JournalWriter,
    event_to_dict,
    read_journal,
    save_trace,
    scan_journal,
)
from repro.online import (
    POLICY_NAMES,
    generate_trace,
    make_policy,
    poisson_trace,
    replay,
)
from repro.online.metrics import deterministic_metrics
from repro.service import AdmissionService, serve_lines

#: Per-policy constructor params for the restart property (small flush
#: cadence so batch-resolve actually batches inside the short trace).
POLICY_PARAMS = {
    "greedy-threshold": {},
    "dual-gated": {},
    "batch-resolve": {"solver": "greedy", "resolve_every": 8},
    "preempt-density": {"factor": 1.2},
    "preempt-dual-gated": {"penalty": 0.1},
}


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace("line", events=60, process="bursty", seed=11,
                          departure_prob=0.4, tick_every=6.0)


def _drain(service, events):
    for ev in events:
        service.submit_event(ev)


def _jsonl_journal(tmp_path, trace, events, policy="greedy-threshold"):
    """A JSON-lines journal of ``events`` served with ``policy`` (the
    binary journal transcoded by :func:`helpers.jsonl_copy`)."""
    binary, path = tmp_path / "j.journal", str(tmp_path / "j.log")
    svc = AdmissionService(trace, policy, journal_path=str(binary))
    _drain(svc, events)
    svc.journal.close()
    jsonl_copy(binary, path)
    return path


class TestJournalRoundTrip:
    def test_header_and_events_round_trip(self, small_trace, tmp_path):
        path = str(tmp_path / "j.log")
        header = {"policy": "dual-gated", "params": {"eta": 1.5},
                  "trace": __import__("repro.io", fromlist=["trace_to_dict"]
                                      ).trace_to_dict(small_trace)}
        with JournalWriter(path, header) as jw:
            for ev in small_trace.events:
                jw.append(ev)
        back_header, events, good = read_journal(path)
        assert back_header["policy"] == "dual-gated"
        assert back_header["params"] == {"eta": 1.5}
        assert events == small_trace.events  # frozen dataclasses: exact
        assert good == os.path.getsize(path)

    def test_torn_final_line_dropped(self, small_trace, tmp_path):
        path = _jsonl_journal(tmp_path, small_trace, small_trace.events[:10])
        with open(path, "a") as fh:
            fh.write('{"type": "arrival", "time": 9')  # torn by a kill
        header, events, good = read_journal(path)
        assert len(events) == 10
        # Resuming drops the torn tail, upgrades the journal to binary
        # (a checkpoint of the 10 events) and appends cleanly.
        resumed = AdmissionService.resume(path)
        assert resumed.position == 10
        resumed.submit_event(small_trace.events[10])
        _h, ckpt, tail, _g, fmt = scan_journal(path)
        assert fmt == "binary" and ckpt["position"] == 10
        assert tail == small_trace.events[10:11]

    def test_newline_less_tail_treated_as_torn(self, small_trace,
                                               tmp_path):
        """A kill can land between a record's bytes and its newline;
        the parseable-but-unterminated tail must be dropped so that
        good_bytes and the recovered events describe the same prefix
        (a glued '}{' line would silently lose two events on the
        *second* restart otherwise)."""
        path = _jsonl_journal(tmp_path, small_trace, small_trace.events[:8])
        with open(path, "r+") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() - 1)  # shave exactly the final '\n'
        header, events, good = read_journal(path)
        assert len(events) == 7  # the unterminated record is torn
        resumed = AdmissionService.resume(path)
        assert resumed.position == 7
        resumed.submit_event(small_trace.events[7])
        # The upgraded journal holds exactly the 8 events: 7 in its
        # checkpoint, the 8th after it.
        _h, ckpt, tail, _g, _fmt = scan_journal(path)
        assert ckpt["position"] == 7
        assert tail == small_trace.events[7:8]
        assert AdmissionService.resume(path).position == 8

    def test_mid_file_corruption_rejected(self, small_trace, tmp_path):
        path = _jsonl_journal(tmp_path, small_trace, small_trace.events[:5])
        lines = open(path).read().splitlines()
        lines[2] = '{"type": "arr'  # torn *before* later records
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt journal"):
            read_journal(path)

    def test_not_a_journal_rejected(self, small_trace, tmp_path):
        path = str(tmp_path / "notes.jsonl")
        with open(path, "w") as fh:
            fh.write('{"kind": "trace"}\n')
        with pytest.raises(ValueError, match="not an admission journal"):
            read_journal(path)
        # A multi-line JSON document (e.g. a saved trace) fails the
        # line-format check outright.
        trace_path = str(tmp_path / "trace.json")
        save_trace(small_trace, trace_path)
        with pytest.raises(ValueError, match="corrupt journal"):
            read_journal(trace_path)

    def test_fresh_writer_refuses_existing_file(self, small_trace, tmp_path):
        path = str(tmp_path / "j.log")
        AdmissionService(small_trace, "greedy-threshold",
                         journal_path=path).journal.close()
        with pytest.raises(ValueError, match="already exists"):
            JournalWriter(path, {"policy": "x"})


class TestWarmRestartEquivalence:
    """Kill at every event k + resume == uninterrupted, all policies."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_kill_at_every_event(self, small_trace, tmp_path, policy):
        params = POLICY_PARAMS[policy]
        full = replay(small_trace, make_policy(policy, **params))
        want_metrics = deterministic_metrics(full.metrics)
        for k in range(len(small_trace.events) + 1):
            path = str(tmp_path / f"{policy}-{k}.log")
            svc = AdmissionService(small_trace, policy, params,
                                   journal_path=path)
            _drain(svc, small_trace.events[:k])
            del svc  # the kill: no close(), journal flushed per record
            resumed = AdmissionService.resume(path)
            assert resumed.position == k
            result = resumed.run_remaining()
            assert deterministic_metrics(result.metrics) == want_metrics
            assert result.admission_log == full.admission_log
            assert result.eviction_log == full.eviction_log
            assert result.policy_stats == full.policy_stats

    def test_double_restart(self, small_trace, tmp_path):
        """Kill → resume → kill again → resume: journals compose."""
        full = replay(small_trace, make_policy("dual-gated"))
        path = str(tmp_path / "j.log")
        svc = AdmissionService(small_trace, "dual-gated",
                               journal_path=path)
        _drain(svc, small_trace.events[:15])
        del svc
        second = AdmissionService.resume(path)
        _drain(second, small_trace.events[15:35])
        del second
        third = AdmissionService.resume(path)
        assert third.position == 35
        result = third.run_remaining()
        assert deterministic_metrics(result.metrics) == \
            deterministic_metrics(full.metrics)


class TestRequestAPI:
    def test_admit_release_query_stats_close(self):
        tr = poisson_trace("line", events=40, seed=7, departure_prob=0.0)
        svc = AdmissionService(tr, "greedy-threshold")
        r = svc.handle({"op": "admit", "demand": 0, "time": 1.0})
        assert r["ok"] and r["decision"]["kind"] == "arrival"
        q = svc.handle({"op": "query", "demand": 0})
        assert q["ok"] and q["admitted"] == r["decision"]["accepted"]
        s = svc.handle({"op": "stats"})
        assert s["ok"] and s["stats"]["arrivals"] == 1
        assert s["stats"]["position"] == 1
        rel = svc.handle({"op": "release", "demand": 0, "time": 2.0})
        assert rel["ok"]
        snap = svc.handle({"op": "snapshot"})
        assert snap["ok"] and snap["solution"]["selected"] == []
        c = svc.handle({"op": "close"})
        assert c["ok"] and c["metrics"]["arrivals"] == 1
        json.dumps(c)

    @pytest.mark.parametrize("policy", ["preempt-density",
                                        "preempt-dual-gated"])
    def test_stats_carry_policy_counters_across_resume(self, policy,
                                                       tmp_path):
        tr = poisson_trace("line", events=300, seed=1, departure_prob=0.3)
        full = AdmissionService(tr, policy)
        _drain(full, tr.events)
        want = full.handle({"op": "stats"})["stats"]["policy_stats"]
        assert want["preempt_pruned"] > 0
        path = str(tmp_path / "j.log")
        svc = AdmissionService(tr, policy, journal_path=path,
                               checkpoint_every=50)
        _drain(svc, tr.events[:170])
        svc.journal.close()
        resumed = AdmissionService.resume(path)
        _drain(resumed, tr.events[170:])
        got = resumed.handle({"op": "stats"})["stats"]["policy_stats"]
        assert got == want

    def test_domain_errors_are_responses(self):
        tr = poisson_trace("line", events=40, seed=7, departure_prob=0.0)
        svc = AdmissionService(tr, "greedy-threshold")
        assert not svc.handle({"op": "warp"})["ok"]
        # Malformed submit payloads must come back as errors, never
        # crash the serve loop (regression: non-dict event records).
        assert not svc.handle({"op": "submit", "event": "x"})["ok"]
        assert not svc.handle({"op": "submit", "event": [1, 2]})["ok"]
        assert not svc.handle({"op": "submit"})["ok"]
        assert not svc.handle({"op": "admit"})["ok"]  # no demand field
        assert "unknown demand" in \
            svc.handle({"op": "admit", "demand": 10**6})["error"]
        svc.handle({"op": "admit", "demand": 3, "time": 1.0})
        assert "already arrived" in \
            svc.handle({"op": "admit", "demand": 3})["error"]
        assert "before arriving" in \
            svc.handle({"op": "release", "demand": 4})["error"]
        svc.handle({"op": "release", "demand": 3})
        assert "already departed" in \
            svc.handle({"op": "release", "demand": 3})["error"]
        # Errors never advanced the stream.
        assert svc.stats()["position"] == 2
        svc.handle({"op": "close"})
        assert "closed" in svc.handle({"op": "tick"})["error"]

    @pytest.mark.parametrize("req", [
        {"op": "admit", "demand": 2.7},
        {"op": "admit", "demand": 2.0},
        {"op": "admit", "demand": True},
        {"op": "admit", "demand": "3"},
        {"op": "admit", "demand": 2, "time": float("nan")},
        {"op": "admit", "demand": 2, "time": float("inf")},
        {"op": "admit", "demand": 2, "time": "inf"},
        {"op": "admit", "demand": 2, "time": "5"},
        {"op": "admit", "demand": 2, "time": True},
        {"op": "release", "demand": 4.0},
        {"op": "tick", "time": float("nan")},
        {"op": "submit",
         "event": {"type": "arrival", "time": 1.0, "demand": 2.7}},
        {"op": "submit",
         "event": {"type": "arrival", "time": "inf", "demand": 2}},
        {"op": "feed", "events": [
            {"type": "arrival", "time": 1.0, "demand": 0},
            {"type": "arrival", "time": 1.0, "demand": True}]},
        {"op": "feed", "events": [
            {"type": "arrival", "time": float("nan"), "demand": 0}]},
        {"op": "query", "demand": "3"},
        {"op": "explain", "demand": 1.5},
        {"op": "feed", "events": [
            {"type": "arrival", "time": 1.0, "demand": np.float64(2.0)}]},
        {"op": "admit", "demand": 2, "time": 10 ** 400},
        {"op": "admit", "demand": 2 ** 70},
    ])
    def test_coercible_ids_and_times_are_rejected(self, req):
        tr = poisson_trace("line", events=200, seed=7, departure_prob=0.0)
        svc = AdmissionService(tr, "greedy-threshold")
        assert svc.handle({"op": "admit", "demand": 4, "time": 0.5})["ok"]

        def state():
            return (set(svc._arrived), set(svc._departed), svc.position,
                    svc.session.ledger.export_state())

        before = state()
        resp = svc.handle(req)
        assert resp["ok"] is False and resp["error"]
        assert state() == before

    def test_numpy_integer_demand_is_accepted(self):
        tr = poisson_trace("line", events=40, seed=7, departure_prob=0.0)
        svc = AdmissionService(tr, "greedy-threshold")
        r = svc.handle({"op": "admit", "demand": np.int64(2),
                        "time": np.float64(1.0)})
        assert r["ok"] and svc.handle({"op": "query", "demand": 2})["ok"]
        assert 2 in svc._arrived

    def test_feed_record_with_numpy_scalars_is_accepted(self):
        tr = poisson_trace("line", events=40, seed=7, departure_prob=0.0)
        svc = AdmissionService(tr, "greedy-threshold")
        r = svc.handle({"op": "feed", "events": [
            {"type": "arrival", "time": np.float64(1.0),
             "demand": np.int64(2)},
            {"type": "arrival", "time": np.int32(2), "demand": np.uint8(5)},
            {"type": "tick", "time": np.float32(2.5)}]})
        assert r["ok"] and r["applied"] == 3 and r["position"] == 3
        assert svc._arrived == {2, 5} and svc._last_time == 2.5

    @pytest.mark.parametrize("records,error", [
        ([{"type": "arrival", "time": 1.0, "demand": 0},
          {"type": "arrival", "time": 1.0, "demand": "1"}],
         "events[1]: demand must be an integer, got '1'"),
        ([{"type": "arrival", "time": 1.0, "demand": 0},
          {"type": "tick", "time": 2.0},
          {"type": "teleport", "time": 2.0}],
         "events[2]: unknown event type 'teleport'"),
        ([{"type": "arrival", "time": 1.0, "demand": 0},
          {"type": "departure", "time": 2.0}],
         "events[1]: missing field 'demand'"),
        ([{"type": "arrival", "time": 1.0, "demand": 0},
          {"type": "arrival", "time": 1.0, "demand": 4}],
         "events[1]: demand 4 already arrived"),
        ([{"type": "arrival", "time": 1.0, "demand": 0},
          {"type": "departure", "time": 2.0, "demand": 0},
          {"type": "departure", "time": 3.0, "demand": 0}],
         "events[2]: demand 0 already departed"),
        ([{"type": "tick", "time": 1.0},
          {"type": "departure", "time": 2.0, "demand": 7}],
         "events[1]: demand 7 departs before arriving"),
        ([{"type": "departure", "time": 2.0, "demand": 1},
          {"type": "arrival", "time": 3.0, "demand": 1}],
         "events[0]: demand 1 departs before arriving"),
        ([{"type": "arrival", "time": 1.0, "demand": 0},
          {"type": "arrival", "time": 1.0, "demand": 10 ** 6}],
         "events[1]: unknown demand 1000000 (population has 40)"),
    ])
    def test_feed_errors_name_the_first_offending_record(self, records,
                                                         error):
        """Decode errors and stream-rule errors of a ``feed`` batch both
        name the first offending record, and the batch applies
        nothing."""
        tr = poisson_trace("line", events=40, seed=7, departure_prob=0.0)
        svc = AdmissionService(tr, "greedy-threshold")
        assert svc.handle({"op": "admit", "demand": 4, "time": 0.5})["ok"]
        before = (set(svc._arrived), set(svc._departed), svc.position,
                  svc.session.snapshot(), svc.session.ledger.export_state())
        resp = svc.handle({"op": "feed", "events": records})
        assert resp == {"ok": False, "op": "feed", "error": error}
        assert before == (set(svc._arrived), set(svc._departed),
                          svc.position, svc.session.snapshot(),
                          svc.session.ledger.export_state())

    def test_feed_events_rejects_a_non_event_whole(self, tmp_path):
        tr = poisson_trace("line", events=40, seed=7, departure_prob=0.0)
        path = tmp_path / "j.bin"
        svc = AdmissionService(tr, "greedy-threshold",
                               journal_path=str(path))
        size = path.stat().st_size
        batch = list(tr.events[:5]) + ["arrival"] + list(tr.events[5:10])
        with pytest.raises(TypeError,
                           match=r"^events\[5\]: unknown event type str$"):
            svc.feed_events(batch)
        assert svc.position == 0 and not svc._arrived
        assert svc.session.snapshot()["events"] == 0
        assert svc.journal.seq == 0 and path.stat().st_size == size

    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_feed_resume_and_finish_build_no_event_objects(
            self, tmp_path, monkeypatch, fmt):
        """The served ``feed`` path, the journal scan of ``resume`` and
        ``run_remaining`` stay in columns: with every event-object
        builder made to raise, they still finish with the in-process
        replay's profit and logs."""
        import repro.io
        import repro.online.events

        tr = generate_trace("tree", events=600, seed=5, departure_prob=0.3,
                            tick_every=4.0, workload={"n": 32})
        want = replay(tr, make_policy("dual-gated"))
        records = [event_to_dict(ev) for ev in tr.events[:400]]

        def forbidden(*args, **kwargs):
            raise AssertionError("an event object was built")

        def forbid():
            monkeypatch.setattr(repro.online.events, "_event", forbidden)
            monkeypatch.setattr(repro.io, "event_from_dict", forbidden)

        forbid()
        path = str(tmp_path / "j.journal")
        svc = AdmissionService(tr, "dual-gated", journal_path=path,
                               sync_window=16, checkpoint_every=150)
        for i in range(0, len(records), 64):
            assert svc.handle({"op": "feed",
                               "events": records[i:i + 64]})["ok"]
        svc.journal.close()
        if fmt == "jsonl":  # the transcoding itself builds event objects
            monkeypatch.undo()
            jsonl_copy(path, path + ".jsonl")
            path += ".jsonl"
            forbid()
        resumed = AdmissionService.resume(path)
        assert resumed.position == 400
        got = resumed.run_remaining()
        assert (got.metrics.realized_profit.hex()
                == want.metrics.realized_profit.hex())
        assert got.admission_log == want.admission_log
        assert got.eviction_log == want.eviction_log

    @pytest.mark.parametrize("record", [
        '{"type": "arrival", "time": 9.0, "demand": 2.7}',
        '{"type": "arrival", "time": 9.0, "demand": "5"}',
        '{"type": "arrival", "time": NaN, "demand": 5}',
    ])
    def test_jsonl_replay_rejects_coercible_records(self, tmp_path, record):
        tr = poisson_trace("line", events=40, seed=7, departure_prob=0.0)
        path = _jsonl_journal(tmp_path, tr, tr.events[:3])
        with open(path, "a") as fh:
            fh.write(record + "\n")
        with pytest.raises(ValueError):
            read_journal(path)
        with pytest.raises(ValueError):
            AdmissionService.resume(path)

    def test_serve_lines_transport(self, tmp_path):
        tr = poisson_trace("line", events=30, seed=9, departure_prob=0.0)
        svc = AdmissionService(tr, "greedy-threshold",
                               journal_path=str(tmp_path / "j.log"))
        lines = ["not json", json.dumps(["a", "list"])]
        lines += [json.dumps({"op": "submit", "event": event_to_dict(ev)})
                  for ev in tr.events]
        lines.append(json.dumps({"op": "close"}))
        out: list[dict] = []
        closed = serve_lines(svc, lines, out.append)
        assert closed is not None and closed["ok"]
        assert not out[0]["ok"] and "bad request JSON" in out[0]["error"]
        assert not out[1]["ok"]
        assert all(r["ok"] for r in out[2:])
        assert closed["metrics"]["events"] == len(tr.events)


class TestShardedBackend:
    """Journals written by the retired sharded service backend: their
    header carries ``shards``/``shard_by`` and their checkpoints store
    only the coordinator ledger, so they resume onto the single ledger
    with decisions identical to ``replay()``."""

    @pytest.fixture(scope="class")
    def tree_trace(self):
        return generate_trace("tree", events=250, seed=5,
                              departure_prob=0.3,
                              workload={"n": 120,
                                        "boundary_fraction": 0.1,
                                        "parts": 2})

    @staticmethod
    def _v1_sharded_journal(path, trace, policy, events):
        from repro.io import trace_to_dict

        header = {"policy": policy, "params": POLICY_PARAMS[policy],
                  "shards": 2, "shard_by": "subtree",
                  "checkpoint_every": 0, "trace": trace_to_dict(trace)}
        with JournalWriter(path, header) as jw:
            for ev in events:
                jw.append(ev)

    @pytest.mark.parametrize("policy", ["greedy-threshold",
                                        "preempt-density"])
    def test_matches_unsharded_replay(self, tree_trace, policy, tmp_path):
        path = str(tmp_path / "j.log")
        self._v1_sharded_journal(path, tree_trace, policy,
                                 tree_trace.events)
        resumed = AdmissionService.resume(path)
        assert resumed.position == len(tree_trace.events)
        result = resumed.close()
        direct = replay(tree_trace,
                        make_policy(policy, **POLICY_PARAMS[policy]))
        assert deterministic_metrics(result.metrics) == \
            deterministic_metrics(direct.metrics)
        assert result.admission_log == direct.admission_log

    def test_sharded_warm_restart(self, tree_trace, tmp_path):
        path = str(tmp_path / "j.log")
        full = replay(tree_trace, make_policy("greedy-threshold"))
        self._v1_sharded_journal(path, tree_trace, "greedy-threshold",
                                 tree_trace.events[:100])
        resumed = AdmissionService.resume(path)
        assert resumed.position == 100
        assert "shards" not in resumed._header()  # new headers drop it
        result = resumed.run_remaining()
        assert deterministic_metrics(result.metrics) == \
            deterministic_metrics(full.metrics)

