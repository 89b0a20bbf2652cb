"""Round-trip tests for JSON serialization."""

from __future__ import annotations

import pytest

from repro import random_line_problem, random_tree_problem, solve_tree_unit
from repro.io import (
    load_problem,
    load_solution,
    load_trace,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    save_solution,
    save_trace,
    solution_from_dict,
    solution_to_dict,
    trace_from_dict,
    trace_to_dict,
)

from helpers import v1_trace_document


class TestProblemRoundTrip:
    @pytest.mark.parametrize("seed", range(3))
    def test_tree_round_trip(self, seed):
        p = random_tree_problem(n=12, m=8, r=2, seed=seed,
                                height_regime="mixed", access_prob=0.7)
        q = problem_from_dict(problem_to_dict(p))
        assert q.n == p.n
        assert q.access == p.access
        for a, b in zip(p.demands, q.demands):
            assert (a.u, a.v, a.profit, a.height) == (b.u, b.v, b.profit, b.height)
        for na, nb in zip(p.networks, q.networks):
            assert na.edges == nb.edges
        # Instance expansion is identical.
        assert [
            (d.demand_id, d.network_id, d.path_edges) for d in p.instances()
        ] == [(d.demand_id, d.network_id, d.path_edges) for d in q.instances()]

    @pytest.mark.parametrize("seed", range(3))
    def test_line_round_trip(self, seed):
        p = random_line_problem(n_slots=20, m=8, r=2, seed=seed,
                                height_regime="narrow", max_len=6)
        q = problem_from_dict(problem_to_dict(p))
        assert q.n_slots == p.n_slots
        assert len(q.instances()) == len(p.instances())
        for a, b in zip(p.demands, q.demands):
            assert (a.release, a.deadline, a.proc_time, a.profit, a.height) == (
                b.release, b.deadline, b.proc_time, b.profit, b.height
            )

    def test_file_round_trip(self, tmp_path):
        p = random_tree_problem(n=10, m=6, r=1, seed=5)
        path = tmp_path / "problem.json"
        save_problem(p, str(path))
        q = load_problem(str(path))
        assert q.n == p.n

    def test_bad_version_rejected(self):
        doc = problem_to_dict(random_tree_problem(n=6, m=2, r=1, seed=0))
        doc["format"] = 99
        with pytest.raises(ValueError, match="version"):
            problem_from_dict(doc)

    def test_bad_kind_rejected(self):
        doc = problem_to_dict(random_tree_problem(n=6, m=2, r=1, seed=0))
        doc["kind"] = "hypergraph"
        with pytest.raises(ValueError, match="kind"):
            problem_from_dict(doc)


class TestWindowDemandRoundTrip:
    @pytest.mark.parametrize("seed", range(3))
    def test_exact_field_equality(self, seed):
        p = random_line_problem(n_slots=30, m=10, r=2, seed=seed,
                                height_regime="bimodal", max_len=8,
                                access_prob=0.6)
        q = problem_from_dict(problem_to_dict(p))
        assert q.demands == p.demands  # WindowDemand is a frozen dataclass
        assert q.access == p.access
        # Placement expansion (the instance population) is identical.
        assert [
            (d.demand_id, d.network_id, d.start, d.end)
            for d in p.instances()
        ] == [
            (d.demand_id, d.network_id, d.start, d.end)
            for d in q.instances()
        ]


class TestAdversarialRoundTrip:
    def test_constructions_survive_json(self):
        from repro.workloads.adversarial import (
            long_vs_short,
            profit_ladder,
            sibling_stress,
            star_crossing,
        )

        for problem in [profit_ladder(5), long_vs_short(6),
                        star_crossing(8), sibling_stress(4, r=2)]:
            q = problem_from_dict(problem_to_dict(problem))
            assert q.demands == problem.demands
            assert [net.edges for net in q.networks] == [
                net.edges for net in problem.networks
            ]
            assert [
                (d.demand_id, d.network_id, d.path_edges)
                for d in q.instances()
            ] == [
                (d.demand_id, d.network_id, d.path_edges)
                for d in problem.instances()
            ]


class TestTraceRoundTrip:
    def _trace(self, **kw):
        from repro.online import bursty_trace

        kw.setdefault("events", 60)
        kw.setdefault("seed", 3)
        kw.setdefault("departure_prob", 0.4)
        kw.setdefault("tick_every", 4.0)
        return bursty_trace("line", **kw)

    def test_dict_round_trip_exact(self):
        tr = self._trace()
        back = trace_from_dict(trace_to_dict(tr))
        assert back.events == tr.events  # frozen dataclasses: exact
        assert back.meta == tr.meta
        assert back.problem.demands == tr.problem.demands

    def test_file_round_trip(self, tmp_path):
        # A format-1 file (what save_trace wrote before format 2) still
        # loads to the same events.
        import json

        tr = self._trace()
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(v1_trace_document(tr), indent=1))
        back = load_trace(str(path))
        assert back.events == tr.events

        doc = json.load(open(path))
        assert doc["format"] == 1 and doc["kind"] == "trace"

    def test_save_writes_format_2_columns(self, tmp_path):
        # A binary container: preamble, the format-2 document in the
        # journal header's raw-column codec, a CRC-32 of that payload.
        import struct
        import zlib

        from repro.io import _column_header

        tr = self._trace()
        path = tmp_path / "trace.bin"
        save_trace(tr, str(path))
        back = load_trace(str(path))
        assert back.events == tr.events
        data = path.read_bytes()
        assert data[:5] == b"\x89RPT\x01"
        payload = data[5:-4]
        assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(payload)
        doc = _column_header(payload)
        assert doc["format"] == 2 and doc["kind"] == "trace"
        assert doc["problem"]["format"] == 2
        assert set(doc["events"]) == {"kind", "time", "demand"}
        assert len(doc["events"]["time"]) == len(tr.events)
        assert trace_to_dict(trace_from_dict(doc)) == trace_to_dict(tr)

    def test_unknown_version_rejected(self):
        doc = trace_to_dict(self._trace())
        doc["format"] = 99
        with pytest.raises(ValueError, match="version"):
            trace_from_dict(doc)

    def test_wrong_kind_rejected(self):
        doc = trace_to_dict(self._trace())
        doc["kind"] = "problem"
        with pytest.raises(ValueError, match="not a trace"):
            trace_from_dict(doc)

    def test_unknown_event_type_rejected(self):
        doc = v1_trace_document(self._trace())
        doc["events"][0] = {"type": "teleport", "time": 0.0}
        with pytest.raises(ValueError, match="unknown event type"):
            trace_from_dict(doc)

    def test_corrupted_stream_rejected(self):
        # The embedded EventTrace validation re-runs on load.
        doc = v1_trace_document(self._trace())
        arrivals = [e for e in doc["events"] if e["type"] == "arrival"]
        doc["events"].remove(arrivals[0])
        with pytest.raises(ValueError):
            trace_from_dict(doc)

    def test_corrupted_columns_rejected(self):
        doc = trace_to_dict(self._trace())
        first = doc["events"]["kind"].index(0)
        for col in doc["events"].values():
            del col[first]
        with pytest.raises(ValueError):
            trace_from_dict(doc)


class TestBinaryTraceCorruption:
    """A damaged binary trace never loads: every truncation and every
    single-bit flip raises ``ValueError`` naming the file."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        from repro.online import generate_trace

        tr = generate_trace("tree", events=40, seed=3, departure_prob=0.4,
                            tick_every=2.0, workload={"n": 16})
        path = tmp_path_factory.mktemp("bin") / "trace.bin"
        save_trace(tr, str(path))
        return tr, path.read_bytes()

    def _rejected(self, path, data):
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            load_trace(str(path))
        assert str(path) in str(exc.value)
        return str(exc.value)

    def test_every_truncation_is_rejected(self, saved, tmp_path):
        tr, data = saved
        path = tmp_path / "cut.bin"
        for n in range(len(data)):
            self._rejected(path, data[:n])
        path.write_bytes(data)
        assert load_trace(str(path)).events == tr.events

    def test_every_bit_flip_is_rejected(self, saved, tmp_path):
        _, data = saved
        path = tmp_path / "flip.bin"
        reasons = set()
        for i in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[i] ^= 1 << bit
                reason = self._rejected(path, bytes(flipped))
                reasons.add(reason.split(": ", 1)[1].split(" ", 1)[0])
        # The preamble's magic falls through to the JSON reader, its
        # version byte is checked, and the CRC catches everything else.
        assert {"unsupported", "binary"} <= reasons

    def test_intact_container_with_bad_columns_is_validated(self, saved,
                                                            tmp_path):
        import struct
        import zlib

        import numpy as np

        from repro.io import _column_header_payload, trace_to_columns

        doc = trace_to_columns(saved[0])
        profit = np.array(doc["problem"]["demands"]["profit"])
        profit[2] = np.nan
        doc["problem"]["demands"]["profit"] = profit
        payload = _column_header_payload(doc)
        path = tmp_path / "nan.bin"
        path.write_bytes(b"\x89RPT\x01" + payload
                         + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(ValueError,
                           match=r"nan\.bin: demand 2: profit must be "
                                 "finite"):
            load_trace(str(path))


class TestAtomicSaves:
    """save_* must never leave a truncated artifact, even when killed
    (simulated by a serializer that blows up mid-write)."""

    def test_failed_write_preserves_original(self, tmp_path, monkeypatch):
        import json as _json

        p = random_tree_problem(n=10, m=6, r=1, seed=5)
        path = tmp_path / "problem.json"
        save_problem(p, str(path))
        original = path.read_text()

        def boom(*args, **kwargs):
            raise RuntimeError("killed mid-write")

        monkeypatch.setattr(_json, "dump", boom)
        with pytest.raises(RuntimeError):
            save_problem(random_tree_problem(n=12, m=4, r=1, seed=6),
                         str(path))
        # The original document survives intact and no temp litter stays.
        assert path.read_text() == original
        assert [f.name for f in tmp_path.iterdir()] == ["problem.json"]

    def test_save_into_missing_file_cleans_up_on_failure(
            self, tmp_path, monkeypatch):
        import json as _json

        monkeypatch.setattr(
            _json, "dump",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        path = tmp_path / "fresh.json"
        with pytest.raises(RuntimeError):
            save_problem(random_tree_problem(n=8, m=3, r=1, seed=1),
                         str(path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_trace_write_preserves_original(self, tmp_path,
                                                   monkeypatch):
        import os

        from repro.online import poisson_trace

        path = tmp_path / "trace.bin"
        save_trace(poisson_trace("line", events=30, seed=2), str(path))
        original = path.read_bytes()

        def boom(fd):
            raise OSError("disk went away mid-write")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError, match="mid-write"):
            save_trace(poisson_trace("line", events=50, seed=3), str(path))
        assert path.read_bytes() == original
        assert [f.name for f in tmp_path.iterdir()] == ["trace.bin"]

    def test_all_savers_replace_atomically(self, tmp_path):
        """Every saver goes through the temp+replace path and yields a
        loadable document (trace and solution included)."""
        from repro import solve_tree_unit
        from repro.online import poisson_trace

        p = random_tree_problem(n=10, m=6, r=1, seed=3)
        sol = solve_tree_unit(p, epsilon=0.2, seed=1)
        tr = poisson_trace("line", events=30, seed=2)
        for saver, loader, obj in [
            (save_problem, load_problem, p),
            (save_solution, lambda q, pr=p: load_solution(q, pr), sol),
            (save_trace, load_trace, tr),
        ]:
            path = tmp_path / "artifact.json"
            saver(obj, str(path))
            saver(obj, str(path))  # overwrite goes through replace too
            loader(str(path))
            assert [f.name for f in tmp_path.iterdir()] == ["artifact.json"]
            path.unlink()


class TestSolutionRoundTrip:
    def test_tree_solution(self, tmp_path):
        p = random_tree_problem(n=14, m=10, r=2, seed=7)
        sol = solve_tree_unit(p, epsilon=0.2, seed=1)
        path = tmp_path / "solution.json"
        save_solution(sol, str(path))
        back = load_solution(str(path), p)
        assert back.profit == pytest.approx(sol.profit)
        assert sorted(d.demand_id for d in back.selected) == sorted(
            d.demand_id for d in sol.selected
        )
        # Routes are re-bound to the problem, so verification still works.
        from repro import verify_tree_solution

        verify_tree_solution(p, back)

    def test_unknown_selection_rejected(self):
        p = random_tree_problem(n=10, m=6, r=1, seed=8)
        sol = solve_tree_unit(p, epsilon=0.2, seed=2)
        doc = solution_to_dict(sol)
        doc["selected"].append(
            {"kind": "tree", "demand_id": 999, "network_id": 0, "u": 0, "v": 1}
        )
        with pytest.raises(ValueError, match="does not exist"):
            solution_from_dict(doc, p)

    def test_stats_survive_json(self):
        p = random_tree_problem(n=10, m=6, r=1, seed=9)
        sol = solve_tree_unit(p, epsilon=0.2, seed=3)
        doc = solution_to_dict(sol)
        import json

        json.dumps(doc)  # everything JSON-safe
        back = solution_from_dict(doc, p)
        assert back.stats["algorithm"] == sol.stats["algorithm"]
