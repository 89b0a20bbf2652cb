"""Tests for the command-line interface (driven through ``cli.main``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture
def tree_json(tmp_path):
    path = tmp_path / "tree.json"
    rc = main(["generate", "--kind", "tree", "--n", "16", "--m", "10",
               "--r", "2", "--seed", "1", "-o", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture
def line_json(tmp_path):
    path = tmp_path / "line.json"
    rc = main(["generate", "--kind", "line", "--n", "24", "--m", "10",
               "--r", "2", "--seed", "1", "--heights", "mixed",
               "-o", str(path)])
    assert rc == 0
    return str(path)


class TestGenerate:
    def test_tree_file_valid(self, tree_json):
        doc = json.load(open(tree_json))
        assert doc["kind"] == "tree"
        assert len(doc["demands"]["u"]) == 10

    def test_line_file_valid(self, line_json):
        doc = json.load(open(line_json))
        assert doc["kind"] == "line"
        assert doc["n_slots"] == 24


class TestSolve:
    def test_auto_tree(self, tree_json, capsys):
        assert main(["solve", tree_json, "--epsilon", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "profit" in out and "rounds" in out

    def test_auto_line_arbitrary(self, line_json, capsys):
        assert main(["solve", line_json, "--epsilon", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "line-arbitrary" in out

    def test_explicit_algorithm(self, tree_json, capsys):
        assert main(["solve", tree_json, "--algorithm", "sequential"]) == 0
        assert "sequential" in capsys.readouterr().out

    def test_exact(self, tree_json, capsys):
        assert main(["solve", tree_json, "--algorithm", "exact"]) == 0
        assert "milp" in capsys.readouterr().out

    def test_save_solution(self, tree_json, tmp_path, capsys):
        out_path = tmp_path / "sol.json"
        assert main(["solve", tree_json, "--save-solution", str(out_path)]) == 0
        doc = json.load(open(out_path))
        assert "selected" in doc and "profit" in doc

    def test_wrong_family_rejected(self, tree_json):
        with pytest.raises(SystemExit, match="needs a line problem"):
            main(["solve", tree_json, "--algorithm", "line-unit"])

    def test_mis_backends(self, tree_json, capsys):
        for mis in ["greedy", "priority", "luby"]:
            assert main(["solve", tree_json, "--mis", mis]) == 0


class TestCompare:
    def test_tree(self, tree_json, capsys):
        assert main(["compare", tree_json, "--epsilon", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "exact OPT" in out and "greedy" in out and "sequential" in out

    def test_line(self, line_json, capsys):
        assert main(["compare", line_json, "--epsilon", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Panconesi" in out


class TestDecompose:
    def test_table(self, capsys):
        assert main(["decompose", "--topology", "caterpillar", "--n", "20"]) == 0
        out = capsys.readouterr().out
        assert "ideal" in out and "root-fixing" in out and "depth" in out


class TestReplay:
    def test_generated_trace_end_to_end(self, capsys):
        assert main(["replay", "--policy", "dual-gated",
                     "--events", "150", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "dual-gated" in out and "events/s" in out
        assert "generated poisson line trace" in out

    def test_all_policies_and_processes(self, capsys):
        for policy in ["greedy-threshold", "batch-resolve"]:
            assert main(["replay", "--policy", policy, "--events", "80",
                         "--process", "bursty", "--kind", "tree"]) == 0
            assert policy in capsys.readouterr().out

    def test_save_and_reload_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["replay", "--events", "60", "--seed", "2",
                     "--save-trace", str(trace_path)]) == 0
        first = capsys.readouterr().out
        assert trace_path.exists()
        # Replaying the saved trace reproduces the exact same profit row.
        assert main(["replay", str(trace_path),
                     "--policy", "dual-gated"]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[-1].split()[5] == \
            second.splitlines()[-1].split()[5]

    def test_offline_columns_and_output(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        assert main(["replay", "--events", "60", "--seed", "3",
                     "--offline", "greedy", "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "ALG/OPT" in out and "c-ratio" in out
        doc = json.load(open(out_path))
        assert doc["offline_profit"] is not None
        assert "trace_meta" in doc

    def test_unknown_offline_solver_friendly(self):
        with pytest.raises(SystemExit, match="unknown solver"):
            main(["replay", "--events", "30", "--offline", "oracle"])

    def test_unknown_batch_solver_friendly(self):
        with pytest.raises(SystemExit, match="unknown solver"):
            main(["replay", "--events", "30", "--policy", "batch-resolve",
                  "--solver", "oracle"])

    def test_wrong_family_solver_friendly(self):
        # A tree solver on the default line trace must fail up front
        # with a message, not crash mid-flush with a traceback.
        with pytest.raises(SystemExit, match="needs a tree problem"):
            main(["replay", "--events", "30", "--policy", "batch-resolve",
                  "--solver", "tree-unit"])
        with pytest.raises(SystemExit, match="needs a tree problem"):
            main(["replay", "--events", "30", "--offline", "tree-unit"])

    def test_unknown_policy_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--policy", "oracle"])
        assert "invalid choice" in capsys.readouterr().err

    def test_preemptive_policies_end_to_end(self, capsys):
        for kind in ["line", "tree"]:
            assert main(["replay", "--policy", "preempt-density",
                         "--kind", kind, "--events", "200",
                         "--process", "bursty", "--seed", "3"]) == 0
            out = capsys.readouterr().out
            assert "preempt-density" in out
            assert "evict" in out and "adj profit" in out
        assert main(["replay", "--policy", "preempt-dual-gated",
                     "--events", "200", "--process", "bursty",
                     "--penalty", "0.2", "--seed", "3"]) == 0
        assert "preempt-dual-gated" in capsys.readouterr().out

    def test_misspelled_policy_kwarg_friendly(self, capsys):
        # The PR-2 friendly-error treatment extends to policy kwargs: a
        # misspelled --policy-arg exits with a message, not a TypeError
        # traceback — and before any trace is generated.
        with pytest.raises(SystemExit,
                           match="bad parameters for policy"):
            main(["replay", "--policy", "dual-gated",
                  "--policy-arg", "etaa=1.3"])
        assert "generated" not in capsys.readouterr().out

    def test_policy_arg_passthrough_and_format_check(self, capsys):
        assert main(["replay", "--policy", "dual-gated", "--events", "60",
                     "--policy-arg", "eta=2.0"]) == 0
        assert "dual-gated" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="KEY=VALUE"):
            main(["replay", "--policy", "dual-gated",
                  "--policy-arg", "eta"])


class TestFriendlyArgumentErrors:
    """Bad --seed/--processes/... values exit with a message, never a
    traceback (argparse.ArgumentTypeError -> SystemExit(2))."""

    def test_replay_bad_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--seed", "banana"])
        assert "seed must be an integer" in capsys.readouterr().err

    def test_replay_bad_events(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--events", "0"])
        assert "events must be >= 1" in capsys.readouterr().err

    def test_replay_negative_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--seed", "-3"])
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_replay_departures_out_of_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--departures", "1.5"])
        assert "departures must be in [0.0, 1.0]" in capsys.readouterr().err

    def test_sweep_negative_seed(self, tree_json, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", tree_json, "--seeds", "0,-1"])
        assert "non-negative" in capsys.readouterr().err

    def test_sweep_bad_seeds(self, tree_json, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", tree_json, "--seeds", "0,x"])
        assert "comma-separated integers" in capsys.readouterr().err

    def test_sweep_empty_seeds(self, tree_json, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", tree_json, "--seeds", ","])
        assert "at least one seed" in capsys.readouterr().err

    def test_sweep_bad_processes(self, tree_json, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", tree_json, "--processes", "-2"])
        assert "processes must be >= 0" in capsys.readouterr().err

    def test_sweep_unknown_solver_friendly(self, tree_json):
        with pytest.raises(SystemExit, match="unknown solver"):
            main(["sweep", tree_json, "--solvers", "oracle"])

    def test_journal_codec_options(self, tmp_path, capsys):
        """``serve --format`` takes only ``binary``; ``compact`` has no
        ``--format``."""
        journal = str(tmp_path / "j.journal")
        with pytest.raises(SystemExit):
            main(["serve", "--trace", "t.json", "--journal", journal,
                  "--format", "jsonl"])
        assert "invalid choice: 'jsonl'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["compact", "--journal", journal, "--format", "binary"])
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_sweep_still_accepts_valid_seeds(self, tree_json, capsys):
        assert main(["sweep", tree_json, "--solvers", "greedy",
                     "--seeds", "0,1", "--processes", "1"]) == 0
        out = capsys.readouterr().out
        assert "greedy" in out


class TestShardedReplay:
    @pytest.fixture
    def trace_json(self, tmp_path):
        path = tmp_path / "trace.json"
        rc = main(["replay", "--kind", "tree", "--events", "150",
                   "--seed", "3", "--policy", "greedy-threshold",
                   "--save-trace", str(path)])
        assert rc == 0
        return str(path)

    def test_sharded_replay_prints_merged_table(self, trace_json, capsys,
                                                tmp_path):
        out_path = tmp_path / "sharded.json"
        rc = main(["replay", trace_json, "--policy", "dual-gated",
                   "--shards", "2", "--shard-by", "subtree",
                   "--processes", "0", "-o", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "subtree plan" in out
        assert "merged" in out and "shard-0" in out
        doc = json.load(open(out_path))
        assert doc["plan"]["shards"] == 2
        assert len(doc["shards"]) == 2
        assert doc["merged"]["accepted"] >= 0
        assert doc["critical_path_events_per_sec"] > 0

    def test_shards_one_uses_single_ledger_driver(self, trace_json,
                                                  capsys):
        rc = main(["replay", trace_json, "--policy", "greedy-threshold",
                   "--shards", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan" not in out  # the unsharded table, unchanged

    def test_bad_shards_value(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--shards", "0"])
        assert "shards must be >= 1" in capsys.readouterr().err

    def test_dual_ub_column_in_replay_table(self, trace_json, capsys):
        rc = main(["replay", trace_json, "--policy", "dual-gated"])
        assert rc == 0
        assert "OPT≤(dual)" in capsys.readouterr().out


class TestServeResume:
    @pytest.fixture
    def trace_json(self, tmp_path):
        path = tmp_path / "trace.json"
        rc = main(["replay", "--events", "120", "--seed", "4",
                   "--save-trace", str(path)])
        assert rc == 0
        return str(path)

    def _requests(self, trace_path, upto=None, close=False):
        from repro.io import event_to_dict, load_trace

        events = load_trace(trace_path).events[:upto]
        lines = [json.dumps({"op": "submit", "event": event_to_dict(ev)})
                 for ev in events]
        if close:
            lines.append(json.dumps({"op": "close"}))
        return "\n".join(lines) + "\n"

    def test_serve_full_trace_over_stdin(self, trace_json, tmp_path,
                                         capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(
            self._requests(trace_json, close=True)
        ))
        assert main(["serve", "--trace", trace_json, "--policy",
                     "dual-gated",
                     "--journal", str(tmp_path / "j.log")]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(l) for l in captured.out.splitlines()]
        assert all(r["ok"] for r in responses)
        assert responses[-1]["op"] == "close"
        assert "serving" in captured.err

    def test_kill_then_resume_matches_plain_replay(
            self, trace_json, tmp_path, capsys, monkeypatch):
        import io

        from repro.online.metrics import deterministic_metrics

        plain_path = tmp_path / "plain.json"
        assert main(["replay", trace_json, "--policy", "dual-gated",
                     "-o", str(plain_path)]) == 0
        capsys.readouterr()
        journal = str(tmp_path / "j.log")
        # Serve only a prefix; the input stream ending plays the kill.
        monkeypatch.setattr("sys.stdin", io.StringIO(
            self._requests(trace_json, upto=50)
        ))
        assert main(["serve", "--trace", trace_json, "--policy",
                     "dual-gated", "--journal", journal]) == 0
        capsys.readouterr()
        out_path = tmp_path / "resumed.json"
        assert main(["resume", "--journal", journal,
                     "-o", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert "recovered 50 journaled events" in captured.err
        assert "dual-gated" in captured.out
        plain = json.load(open(plain_path))
        resumed = json.load(open(out_path))
        assert resumed.pop("resumed_at") == 50
        assert deterministic_metrics(
            {k: v for k, v in resumed.items()
             if k not in ("policy_stats", "trace_meta")}
        ) == deterministic_metrics(
            {k: v for k, v in plain.items()
             if k not in ("policy_stats", "trace_meta")}
        )
        assert resumed["policy_stats"] == plain["policy_stats"]

    def test_serve_policy_args_and_bad_policy_arg(self, trace_json,
                                                  tmp_path, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", "--trace", trace_json, "--policy",
                     "dual-gated", "--policy-arg", "eta=1.5"]) == 0
        with pytest.raises(SystemExit, match="bad parameters"):
            main(["serve", "--trace", trace_json, "--policy",
                  "dual-gated", "--policy-arg", "stiffness=2"])
        with pytest.raises(SystemExit, match="KEY=VALUE"):
            main(["serve", "--trace", trace_json, "--policy-arg", "eta"])

    def test_resume_missing_journal_friendly(self, tmp_path):
        with pytest.raises(SystemExit, match="resume"):
            main(["resume", "--journal", str(tmp_path / "nope.log")])

    def test_resume_upgrades_a_json_lines_journal(self, tmp_path, capsys):
        import pathlib
        import shutil

        from repro.io import scan_journal

        legacy = pathlib.Path(__file__).parent / "data" / "legacy_journals"
        want = json.loads((legacy / "expected.json").read_text())
        path = tmp_path / "j.journal"
        shutil.copyfile(legacy / "line-preempt-density-jsonl-tail.journal",
                        path)
        _h, ckpt, tail, _good, fmt = scan_journal(str(path))
        assert fmt == "jsonl"
        folded = ckpt["position"] + len(tail)
        outs = []
        for run in range(2):
            out = tmp_path / f"metrics-{run}.json"
            before = path.read_bytes()
            assert main(["resume", "--journal", str(path),
                         "-o", str(out)]) == 0
            err = capsys.readouterr().err
            outs.append(json.loads(out.read_text()))
            assert path.read_bytes()[:4] == b"\x89RPJ"
            if run == 0:
                assert (f"upgraded {path} to binary: {folded} events "
                        "folded into one checkpoint") in err
            else:  # already binary and finished: nothing to rewrite
                assert "upgraded" not in err
                assert path.read_bytes() == before
        assert outs[0]["resumed_at"] == folded
        assert (float(outs[0]["realized_profit"]).hex()
                == want["line-preempt-density"]["realized_profit"])
        assert outs[1]["realized_profit"] == outs[0]["realized_profit"]

    def test_history_certificate_via_policy_arg(self, trace_json, capsys):
        assert main(["replay", trace_json, "--policy", "dual-gated",
                     "--policy-arg", "history=true"]) == 0
        out = capsys.readouterr().out
        assert "OPT≤(dual)" in out and "OPT≤(peak)" in out


class TestSweepPreemption:
    @pytest.fixture
    def trace_json(self, tmp_path):
        path = tmp_path / "burst.json"
        rc = main(["replay", "--kind", "line", "--events", "120",
                   "--process", "bursty", "--seed", "3",
                   "--policy", "greedy-threshold",
                   "--save-trace", str(path)])
        assert rc == 0
        return str(path)

    def test_grid_runs_and_summarizes(self, trace_json, capsys, tmp_path):
        out_path = tmp_path / "grid.json"
        rc = main(["sweep-preemption", trace_json,
                   "--factors", "1.2", "--penalties", "0,0.25",
                   "--processes", "0", "-o", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "preempt-density" in out
        assert "factor 1.2" in out  # the break-even summary line
        rows = json.load(open(out_path))
        # One baseline + 1 factor × 2 penalties.
        assert len(rows) == 3

    def test_binary_and_json_traces_give_the_same_rows(self, trace_json,
                                                        capsys, tmp_path):
        from repro.io import load_trace
        from repro.online import deterministic_metrics
        from repro.runners.replay import ReplayJob

        from helpers import write_v2_trace

        assert open(trace_json, "rb").read(4) == b"\x89RPT"
        (tmp_path / "v2").mkdir()
        copy = tmp_path / "v2" / "burst.json"  # same stem, same labels
        write_v2_trace(load_trace(trace_json), copy)
        assert (ReplayJob(trace=trace_json, policy="dual-gated").trace_key()
                == ReplayJob(trace=str(copy),
                             policy="dual-gated").trace_key())

        def rows(path):
            out = tmp_path / "rows.json"
            assert main(["sweep-preemption", path, "--factors", "1.2",
                         "--penalties", "0,0.25", "--processes", "0",
                         "-o", str(out)]) == 0
            got = json.loads(out.read_text())
            for row in got:
                assert row.pop("error") is None
                del row["elapsed"]
                row["stats"] = deterministic_metrics(row["stats"])
            return got

        assert rows(trace_json) == rows(str(copy))
        capsys.readouterr()

    def test_dual_gated_variant_ignores_factors(self, trace_json, capsys):
        rc = main(["sweep-preemption", trace_json,
                   "--policy", "preempt-dual-gated",
                   "--factors", "1.5,2.0", "--penalties", "0.1",
                   "--processes", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "preempt-dual-gated" in out

    def test_bad_factors_friendly(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep-preemption", "x.json", "--factors", "fast"])
        assert "comma-separated numbers" in capsys.readouterr().err

    def test_missing_corpus_friendly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="no pinned corpus"):
            main(["sweep-preemption", "--processes", "0"])
