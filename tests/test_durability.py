"""Durability fast-path tests: binary codec, group commit, checkpoints.

Four families, mirroring the guarantees the journal makes:

* **codec roundtrip** — the binary and JSON-lines codecs encode the
  same header/event/checkpoint stream and decode back to identical
  events, over a pinned corpus and randomized traces;
* **torn tails** — truncating the final record at *every* byte offset
  (both formats) silently drops only that record — never an exception,
  never a short read of earlier records;
* **group commit** — an abandoned (killed) writer loses exactly the
  uncommitted window; ``commit_seq`` is the durable watermark the
  reader recovers to;
* **checkpoint/compact equivalence** — warm restarts from a
  checkpointed or compacted journal are byte-identical to the
  uninterrupted replay, for every policy and both formats, and resume
  replays only the post-checkpoint tail.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.io import (
    JOURNAL_FORMATS,
    JournalWriter,
    event_to_dict,
    iter_journal,
    read_journal,
    scan_journal,
    trace_to_dict,
)
from repro.online import generate_trace, make_policy, replay
from repro.online.events import Arrival, Departure, Tick
from repro.service import AdmissionService

HEADER = {"kind": "admission-journal", "format": 1, "policy": "greedy-threshold"}

#: Pinned corpus: every event type, extreme and fractional values.
CORPUS = [
    Arrival(time=0.0, demand_id=0),
    Arrival(time=0.125, demand_id=1),
    Departure(time=1.5, demand_id=0),
    Tick(time=2.25),
    Arrival(time=1e9, demand_id=2 ** 32 - 2),
    Departure(time=1e-9, demand_id=2 ** 32 - 2),
    Tick(time=12345.6789),
]

POLICY_PARAMS = {
    "greedy-threshold": {},
    "dual-gated": {},
    "batch-resolve": {"solver": "greedy", "resolve_every": 8},
    "preempt-density": {"factor": 1.2},
    "preempt-dual-gated": {"penalty": 0.1},
}


def small_trace():
    return generate_trace("line", events=60, process="bursty", seed=11,
                          departure_prob=0.4, tick_every=6.0)


def write_journal(path, events, fmt, *, checkpoint_after=None, state=None):
    with JournalWriter(str(path), header=dict(HEADER), fmt=fmt) as w:
        for i, ev in enumerate(events):
            w.append(ev)
            if checkpoint_after is not None and i + 1 == checkpoint_after:
                w.checkpoint(state or {"position": i + 1})


def deterministic(result):
    from repro.online.metrics import deterministic_metrics

    m = deterministic_metrics(result.metrics)
    m.pop("resumed_at", None)
    return m


class TestCodecRoundTrip:
    @pytest.mark.parametrize("fmt", JOURNAL_FORMATS)
    def test_pinned_corpus_roundtrips(self, tmp_path, fmt):
        path = tmp_path / f"corpus.{fmt}"
        write_journal(path, CORPUS, fmt)
        header, events, good = read_journal(str(path))
        assert header["policy"] == "greedy-threshold"
        assert good == path.stat().st_size
        assert [event_to_dict(ev) for ev in events] == \
            [event_to_dict(ev) for ev in CORPUS]

    def test_formats_decode_identically(self, tmp_path):
        """Same logical stream, two encodings, one decoded result."""
        paths = {}
        for fmt in JOURNAL_FORMATS:
            paths[fmt] = tmp_path / f"twin.{fmt}"
            write_journal(paths[fmt], CORPUS, fmt, checkpoint_after=3,
                          state={"position": 3})
        decoded = {}
        for fmt, path in paths.items():
            header, ckpt, tail, _good, detected = scan_journal(str(path))
            assert detected == fmt
            decoded[fmt] = (header, ckpt,
                            [event_to_dict(ev) for ev in tail])
        assert decoded["jsonl"] == decoded["binary"]

    @pytest.mark.parametrize("fmt", JOURNAL_FORMATS)
    def test_randomized_events_roundtrip(self, tmp_path, fmt):
        rng = random.Random(7)
        events = []
        for i in range(200):
            kind = rng.randrange(3)
            t = rng.uniform(0, 1e6)
            if kind == 0:
                events.append(Arrival(time=t, demand_id=rng.randrange(10 ** 6)))
            elif kind == 1:
                events.append(Departure(time=t, demand_id=rng.randrange(10 ** 6)))
            else:
                events.append(Tick(time=t))
        path = tmp_path / f"rand.{fmt}"
        write_journal(path, events, fmt)
        _header, back, _good = read_journal(str(path))
        assert [event_to_dict(ev) for ev in back] == \
            [event_to_dict(ev) for ev in events]

    def test_binary_smaller_than_jsonl(self, tmp_path):
        trace = small_trace()
        sizes = {}
        for fmt in JOURNAL_FORMATS:
            path = tmp_path / f"size.{fmt}"
            write_journal(path, trace.events, fmt)
            sizes[fmt] = path.stat().st_size
        assert sizes["binary"] < sizes["jsonl"]

    def test_binary_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.journal"
        write_journal(path, CORPUS[:2], "binary")
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # version byte after the 4-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported journal format"):
            read_journal(str(path))


class TestTornTail:
    @pytest.mark.parametrize("fmt", JOURNAL_FORMATS)
    def test_truncation_at_every_byte_of_final_record(self, tmp_path, fmt):
        """Any prefix of the last record is a clean torn tail."""
        full = tmp_path / f"full.{fmt}"
        write_journal(full, CORPUS, fmt)
        prefix = tmp_path / f"prefix.{fmt}"
        write_journal(prefix, CORPUS[:-1], fmt)
        start, end = prefix.stat().st_size, full.stat().st_size
        raw = full.read_bytes()
        want = [event_to_dict(ev) for ev in CORPUS[:-1]]
        for cut in range(start, end):
            torn = tmp_path / f"torn.{fmt}"
            torn.write_bytes(raw[:cut])
            header, events, good = read_journal(str(torn))
            assert header["policy"] == "greedy-threshold", cut
            assert [event_to_dict(ev) for ev in events] == want, cut
            assert good == start, cut

    @pytest.mark.parametrize("fmt", JOURNAL_FORMATS)
    def test_good_bytes_resume_point_reappends(self, tmp_path, fmt):
        """good_bytes of a torn file is a valid start_at for the writer."""
        path = tmp_path / f"resume.{fmt}"
        write_journal(path, CORPUS, fmt)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])  # tear the last record
        _h, events, good = read_journal(str(path))
        assert len(events) == len(CORPUS) - 1
        w = JournalWriter(str(path), start_at=good, seq0=len(events))
        w.append(CORPUS[-1])
        w.close()
        _h, events, _g = read_journal(str(path))
        assert [event_to_dict(ev) for ev in events] == \
            [event_to_dict(ev) for ev in CORPUS]


class TestGroupCommit:
    @pytest.mark.parametrize("fmt", JOURNAL_FORMATS)
    def test_abandon_loses_only_uncommitted_window(self, tmp_path, fmt):
        path = tmp_path / f"gc.{fmt}"
        w = JournalWriter(str(path), header=dict(HEADER), fmt=fmt,
                          sync_window=4)
        for ev in CORPUS:  # 7 events: commit at 4, three pending
            w.append(ev)
        assert w.seq == 7
        assert w.commit_seq == 4
        w.abandon()  # the kill: pending window is lost
        _h, events, _g = read_journal(str(path))
        assert [event_to_dict(ev) for ev in events] == \
            [event_to_dict(ev) for ev in CORPUS[:4]]

    @pytest.mark.parametrize("fmt", JOURNAL_FORMATS)
    def test_close_commits_pending(self, tmp_path, fmt):
        path = tmp_path / f"close.{fmt}"
        with JournalWriter(str(path), header=dict(HEADER), fmt=fmt,
                           sync_window=100) as w:
            for ev in CORPUS:
                w.append(ev)
            assert w.commit_seq == 0
        _h, events, _g = read_journal(str(path))
        assert len(events) == len(CORPUS)

    @pytest.mark.parametrize("fmt", JOURNAL_FORMATS)
    def test_checkpoint_forces_commit(self, tmp_path, fmt):
        path = tmp_path / f"ckpt.{fmt}"
        w = JournalWriter(str(path), header=dict(HEADER), fmt=fmt,
                          sync_window=100)
        for ev in CORPUS[:3]:
            w.append(ev)
        w.checkpoint({"position": 3})
        assert w.commit_seq == 3
        w.abandon()
        _h, ckpt, tail, _g, _f = scan_journal(str(path))
        assert ckpt == {"position": 3}
        assert tail == []

    def test_service_reports_commit_watermark(self, tmp_path):
        trace = small_trace()
        svc = AdmissionService(trace, "greedy-threshold",
                               journal_path=str(tmp_path / "wm.journal"),
                               fmt="binary", sync_window=10)
        resp = svc.handle({"op": "feed", "events": [
            event_to_dict(ev) for ev in trace.events[:5]
        ]})
        assert resp["ok"]
        assert resp["seq"] == 5
        assert resp["commit_seq"] == 0  # accepted, not yet durable
        svc.handle({"op": "feed", "events": [
            event_to_dict(ev) for ev in trace.events[5:12]
        ]})
        assert svc.journal.commit_seq == 10
        svc.close()


class TestBatchedFeed:
    def test_feed_matches_per_event_submit(self, tmp_path):
        trace = small_trace()
        svc_a = AdmissionService(trace, "dual-gated")
        for ev in trace.events:
            svc_a.handle({"op": "submit", "event": event_to_dict(ev)})
        res_a = svc_a.close()

        svc_b = AdmissionService(trace, "dual-gated")
        resp = svc_b.handle({"op": "feed", "events": [
            event_to_dict(ev) for ev in trace.events
        ]})
        assert resp["ok"] and resp["applied"] == len(trace.events)
        res_b = svc_b.close()
        assert deterministic(res_a) == deterministic(res_b)
        assert res_a.admission_log == res_b.admission_log

    def test_bad_record_rejects_whole_batch(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "atomic.journal"
        svc = AdmissionService(trace, "greedy-threshold",
                               journal_path=str(path))
        batch = [event_to_dict(ev) for ev in trace.events[:5]]
        batch.insert(3, {"type": "arrival"})  # missing fields
        resp = svc.handle({"op": "feed", "events": batch})
        assert not resp["ok"]
        assert svc.position == 0  # nothing half-applied
        _h, events, _g = read_journal(str(path))
        assert events == []  # nothing journaled either
        good = svc.handle({"op": "feed",
                           "events": [event_to_dict(ev)
                                      for ev in trace.events[:5]]})
        assert good["ok"] and good["position"] == 5
        svc.close()

    def test_duplicate_arrival_in_batch_rejected(self, tmp_path):
        trace = small_trace()
        svc = AdmissionService(trace, "greedy-threshold")
        first = next(ev for ev in trace.events if isinstance(ev, Arrival))
        doc = event_to_dict(first)
        resp = svc.handle({"op": "feed", "events": [doc, doc]})
        assert not resp["ok"]
        assert svc.position == 0
        svc.close()

    def test_feed_requires_event_list(self):
        trace = small_trace()
        svc = AdmissionService(trace, "greedy-threshold")
        resp = svc.handle({"op": "feed", "events": "nope"})
        assert not resp["ok"]
        svc.close()


class TestCheckpointEquivalence:
    @pytest.mark.parametrize("fmt", JOURNAL_FORMATS)
    @pytest.mark.parametrize("policy", sorted(POLICY_PARAMS))
    def test_kill_resume_with_checkpoints(self, tmp_path, policy, fmt):
        """Killed mid-stream with checkpoints on: resume == straight run."""
        trace = small_trace()
        params = POLICY_PARAMS[policy]
        expected = replay(trace, make_policy(policy, **params))
        for kill_at in (0, 7, 25, 41, len(trace.events)):
            path = tmp_path / f"{policy}-{fmt}-{kill_at}.journal"
            svc = AdmissionService(trace, policy, params,
                                   journal_path=str(path), fmt=fmt,
                                   checkpoint_every=10)
            for ev in trace.events[:kill_at]:
                svc.submit_event(ev)
            del svc  # the kill
            resumed = AdmissionService.resume(str(path))
            assert resumed.position == kill_at
            result = resumed.run_remaining()
            assert deterministic(result) == deterministic(expected)
            assert result.admission_log == expected.admission_log
            assert result.eviction_log == expected.eviction_log
            assert dict(result.policy_stats) == dict(expected.policy_stats)

    @pytest.mark.parametrize("fmt", JOURNAL_FORMATS)
    def test_resume_replays_only_the_tail(self, tmp_path, fmt):
        """The rebuild applies post-checkpoint events only."""
        trace = small_trace()
        path = tmp_path / f"tail.{fmt}"
        svc = AdmissionService(trace, "greedy-threshold",
                               journal_path=str(path), fmt=fmt,
                               checkpoint_every=20)
        for i in range(0, 50, 10):
            svc.feed_events(trace.events[i:i + 10])
        svc.journal.close()
        _h, ckpt, tail, _g, _f = scan_journal(str(path))
        assert ckpt is not None and ckpt["position"] == 40
        assert len(tail) == 10
        resumed = AdmissionService.resume(str(path))
        assert resumed.position == 50
        resumed.run_remaining()

    @pytest.mark.parametrize("src_fmt", JOURNAL_FORMATS)
    @pytest.mark.parametrize("dst_fmt", [None, "jsonl", "binary"])
    def test_compact_preserves_outcome(self, tmp_path, src_fmt, dst_fmt):
        trace = small_trace()
        expected = replay(trace, make_policy("preempt-density", factor=1.2))
        path = tmp_path / f"compact-{src_fmt}-{dst_fmt}.journal"
        svc = AdmissionService(trace, "preempt-density", {"factor": 1.2},
                               journal_path=str(path), fmt=src_fmt)
        svc.feed_events(trace.events[:37])
        svc.journal.close()
        before = path.stat().st_size
        info = AdmissionService.compact(str(path), fmt=dst_fmt)
        assert info["position"] == 37
        assert info["bytes_before"] == before
        _h, ckpt, tail, _g, detected = scan_journal(str(path))
        assert ckpt is not None and tail == []
        assert detected == (dst_fmt or src_fmt)
        resumed = AdmissionService.resume(str(path))
        assert resumed.position == 37
        result = resumed.run_remaining()
        assert deterministic(result) == deterministic(expected)
        assert result.admission_log == expected.admission_log
        assert dict(result.policy_stats) == dict(expected.policy_stats)

    def test_compact_empty_journal_is_header_only(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "empty.journal"
        svc = AdmissionService(trace, "greedy-threshold",
                               journal_path=str(path))
        svc.journal.close()
        info = AdmissionService.compact(str(path))
        assert info["position"] == 0
        resumed = AdmissionService.resume(str(path))
        assert resumed.position == 0
        resumed.run_remaining()


class TestShardedCheckpoint:
    def test_sharded_kill_resume_with_checkpoints(self, tmp_path):
        """A journal from the retired sharded backend — ``shards: 2`` in
        its v1 header, checkpoints holding only the coordinator — resumes
        onto the single ledger exactly."""
        trace = generate_trace(
            "tree", events=250, process="poisson", seed=5,
            departure_prob=0.3,
            workload={"n": 120, "boundary_fraction": 0.1, "parts": 2},
        )
        live = AdmissionService(trace, "greedy-threshold")
        for ev in trace.events[:80]:
            live.submit_event(ev)
        header = {"policy": "greedy-threshold", "params": {},
                  "shards": 2, "shard_by": "subtree",
                  "checkpoint_every": 40, "trace": trace_to_dict(trace)}
        path = tmp_path / "sharded.journal"
        with JournalWriter(str(path), header, fmt="binary") as jw:
            for ev in trace.events[:80]:
                jw.append(ev)
            jw.checkpoint(live.checkpoint_state())
            for ev in trace.events[80:100]:
                jw.append(ev)
        expected = replay(trace, make_policy("greedy-threshold"))
        resumed = AdmissionService.resume(str(path))
        assert resumed.position == 100
        assert resumed.checkpoint_every == 40
        result = resumed.run_remaining()
        assert deterministic(result) == deterministic(expected)
        assert result.admission_log == expected.admission_log


class TestDirectoryDurability:
    def test_atomic_dump_fsyncs_directory(self, tmp_path, monkeypatch):
        import repro.io as rio

        synced = []
        real = rio._fsync_dir
        monkeypatch.setattr(rio, "_fsync_dir",
                            lambda d: (synced.append(d), real(d)))
        rio._atomic_dump({"x": 1}, str(tmp_path / "doc.json"))
        assert synced == [str(tmp_path)]

    def test_journal_creation_fsyncs_directory(self, tmp_path, monkeypatch):
        import repro.io as rio

        synced = []
        real = rio._fsync_dir
        monkeypatch.setattr(rio, "_fsync_dir",
                            lambda d: (synced.append(d), real(d)))
        JournalWriter(str(tmp_path / "new.journal"),
                      header=dict(HEADER)).close()
        assert synced == [str(tmp_path)]

    def test_dir_fsync_failure_surfaces_and_keeps_file(self, tmp_path,
                                                       monkeypatch):
        """An injected directory-fsync failure propagates — the caller
        must know durability was NOT achieved — while the data file
        itself (already replaced) stays intact."""
        import repro.io as rio

        path = tmp_path / "doc.json"
        rio._atomic_dump({"v": 1}, str(path))

        def boom(directory):
            raise OSError("injected dir fsync failure")

        monkeypatch.setattr(rio, "_fsync_dir", boom)
        with pytest.raises(OSError, match="injected"):
            rio._atomic_dump({"v": 2}, str(path))
        # The rename happened before the dir fsync: file readable, no
        # temp litter.
        assert json.loads(path.read_text())["v"] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_file_fsync_failure_preserves_original(self, tmp_path,
                                                   monkeypatch):
        """If the temp file can't be made durable the original survives
        untouched and the temp is cleaned up."""
        import repro.io as rio

        path = tmp_path / "doc.json"
        rio._atomic_dump({"v": 1}, str(path))

        def boom(fd):
            raise OSError("injected file fsync failure")

        monkeypatch.setattr(rio.os, "fsync", boom)
        with pytest.raises(OSError, match="injected"):
            rio._atomic_dump({"v": 2}, str(path))
        assert json.loads(path.read_text())["v"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
