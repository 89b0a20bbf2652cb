"""The ``repro lint`` invariant checker: rules, runner, CLI, baseline.

Every rule is exercised through its own embedded fixtures (the same
snippets ``--explain`` prints), so a rule whose documentation and
behavior drift apart fails here.  The capstone is the baseline test:
``repro lint src/`` must exit 0 on the committed tree.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (Finding, get_rule, iter_rules, lint_fixture,
                            lint_paths, parse_suppressions, render_explain)
from repro.analysis.runner import LintReport

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

ALL_RULES = [rule.id for rule in iter_rules()]


# ----------------------------------------------------------------------
# Fixtures: every rule's bad snippet trips it, every good one is clean
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_rule_has_fixtures_and_metadata(rule_id):
    rule = get_rule(rule_id)
    assert rule.fixtures, f"{rule_id} has no fixtures"
    assert rule.rationale.strip()
    assert rule.name
    assert rule.scope in ("file", "project")


@pytest.mark.parametrize(
    "rule_id,idx",
    [(rule.id, i) for rule in iter_rules()
     for i in range(len(rule.fixtures))],
)
def test_bad_fixture_trips_rule(rule_id, idx):
    rule = get_rule(rule_id)
    findings = lint_fixture(rule, rule.fixtures[idx].bad)
    assert any(f.rule == rule_id for f in findings), (
        f"{rule_id} bad fixture {idx} produced no {rule_id} finding: "
        f"{[f.format() for f in findings]}"
    )


@pytest.mark.parametrize(
    "rule_id,idx",
    [(rule.id, i) for rule in iter_rules()
     for i in range(len(rule.fixtures))],
)
def test_good_fixture_stays_clean(rule_id, idx):
    rule = get_rule(rule_id)
    findings = lint_fixture(rule, rule.fixtures[idx].good)
    own = [f for f in findings if f.rule == rule_id]
    assert not own, (
        f"{rule_id} good fixture {idx} still trips: "
        f"{[f.format() for f in own]}"
    )


def test_explain_renders_every_rule():
    for rule in iter_rules():
        page = render_explain(rule)
        assert rule.id in page
        assert "bad" in page and "good" in page


# ----------------------------------------------------------------------
# Targeted rule behavior beyond the fixtures
# ----------------------------------------------------------------------


def test_det001_sorted_set_iteration_is_clean():
    rule = get_rule("DET001")
    clean = "def f(s):\n    return [x for x in sorted(set(s))]\n"
    assert not lint_fixture(rule, clean)


def test_det001_order_insensitive_reducers_are_clean():
    rule = get_rule("DET001")
    clean = (
        "import math\n"
        "def f(s):\n"
        "    a = sum(x for x in set(s))\n"
        "    b = math.fsum(x for x in frozenset(s))\n"
        "    c = max(set(s))\n"
        "    return a + b + c\n"
    )
    assert not lint_fixture(rule, clean)


def test_det001_scoped_to_ordered_packages():
    rule = get_rule("DET001")
    snippet = "def f(s):\n    return [x for x in set(s)]\n"
    assert lint_fixture(rule, {"core/x.py": snippet})
    assert not lint_fixture(rule, {"workloads/x.py": snippet})


def test_det002_seeded_instances_are_clean():
    rule = get_rule("DET002")
    clean = (
        "import random\n"
        "import numpy as np\n"
        "def f(seed):\n"
        "    r = random.Random(seed)\n"
        "    g = np.random.default_rng(seed)\n"
        "    return r.random() + g.random()\n"
    )
    assert not lint_fixture(rule, clean)


def test_det003_perf_counter_is_clean():
    rule = get_rule("DET003")
    clean = ("import time\n"
             "def f():\n"
             "    return time.perf_counter()\n")
    assert not lint_fixture(rule, clean)


def test_cert001_counting_sum_is_clean():
    rule = get_rule("CERT001")
    clean = ("def f(ledger, plan):\n"
             "    return sum(1 for d in ledger if plan.is_boundary(d))\n")
    assert not lint_fixture(rule, clean)


def test_cert001_fsum_is_clean():
    rule = get_rule("CERT001")
    clean = ("import math\n"
             "def f(rows):\n"
             "    return math.fsum(m.realized_profit for m in rows)\n")
    assert not lint_fixture(rule, clean)


def test_state001_super_delegation_must_be_symmetric():
    rule = get_rule("STATE001")
    bad = (
        "class P(Base):\n"
        "    def export_state(self):\n"
        "        state = super().export_state()\n"
        "        state['peak'] = self.peak\n"
        "        return state\n"
        "    def restore_state(self, state):\n"
        "        self.peak = state['peak']\n"
    )
    findings = lint_fixture(rule, bad)
    assert any("super()" in f.message for f in findings)
    good = bad.replace(
        "    def restore_state(self, state):\n",
        "    def restore_state(self, state):\n"
        "        super().restore_state(state)\n",
    )
    assert not lint_fixture(rule, good)


def test_loop001_only_applies_to_async_server():
    rule = get_rule("LOOP001")
    snippet = ("import time\n"
               "def f():\n"
               "    time.sleep(1)\n")
    assert not lint_fixture(rule, {"service/server.py": snippet})
    assert lint_fixture(rule, {"service/async_server.py": snippet})


def test_proto001_response_key_drift_detected():
    rule = get_rule("PROTO001")
    files = dict(rule.fixtures[0].good)
    files["README.md"] = files["README.md"].replace(
        "| `stats` | `ok`, `op`, `stats` |",
        "| `stats` | `ok`, `op`, `stats`, `phantom` |",
    )
    findings = lint_fixture(rule, files)
    assert any("phantom" in f.message for f in findings)


def test_api001_dynamic_all_is_skipped():
    rule = get_rule("API001")
    dynamic = ("import pkgutil\n"
               "__all__ = [m.name for m in pkgutil.iter_modules()]\n")
    assert not lint_fixture(rule, {"pkg/__init__.py": dynamic})


_LAZY_HOOK = ("import importlib\n"
              "def __getattr__(name):\n"
              "    return getattr(importlib.import_module(\n"
              "        _EXPORTS[name], __name__), name)\n")


def test_api001_lazy_package_with_dynamic_all_is_reported():
    rule = get_rule("API001")
    lazy = ("_EXPORTS = {'Decision': '.kernel'}\n"
            "__all__ = list(_EXPORTS)\n" + _LAZY_HOOK)
    findings = lint_fixture(rule, {"pkg/__init__.py": lazy})
    assert any("must be a literal" in f.message for f in findings)


def test_api001_lazy_hook_without_a_literal_table_is_reported():
    rule = get_rule("API001")
    built = ("_EXPORTS = dict(Decision='.kernel')\n"
             "__all__ = ['Decision']\n" + _LAZY_HOOK)
    findings = lint_fixture(rule, {"pkg/__init__.py": built})
    assert any("unprovable" in f.message for f in findings)


def test_api001_lazy_table_and_direct_bindings_both_count():
    rule = get_rule("API001")
    mixed = ("_EXPORTS = {'Decision': '.kernel'}\n"
             "__version__ = '1.0'\n"
             "__all__ = ['Decision', '__version__']\n" + _LAZY_HOOK)
    assert not lint_fixture(rule, {"pkg/__init__.py": mixed})


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_suppression_requires_justification():
    src = "x = 1  # repro: noqa[DET001]\n"
    table = parse_suppressions(src)
    assert not table.covers(1, "DET001")
    noqa = list(table.unjustified("f.py"))
    assert len(noqa) == 1 and noqa[0].rule == "NOQA001"


def test_justified_suppression_covers_line_and_next_line():
    src = (
        "a = 1  # repro: noqa[DET001] -- same-line reason\n"
        "# repro: noqa[CERT001] -- standalone comment covers next stmt\n"
        "b = 2\n"
    )
    table = parse_suppressions(src)
    assert table.covers(1, "DET001")
    assert table.covers(3, "CERT001")
    assert not table.covers(2, "CERT001")
    assert not list(table.unjustified("f.py"))


def test_multi_rule_suppression():
    src = "x = 1  # repro: noqa[DET001, CERT001] -- both safe here\n"
    table = parse_suppressions(src)
    assert table.covers(1, "DET001") and table.covers(1, "CERT001")


def test_suppressed_finding_dropped_from_report(tmp_path):
    bad = tmp_path / "core" / "mod.py"
    bad.parent.mkdir()
    bad.write_text(
        "def f(s):\n"
        "    # repro: noqa[DET001] -- test fixture, order irrelevant\n"
        "    return [x for x in set(s)]\n"
    )
    report = lint_paths([tmp_path])
    assert not [f for f in report.findings if f.rule == "DET001"]
    assert report.suppressed == 1


# ----------------------------------------------------------------------
# Runner plumbing
# ----------------------------------------------------------------------


def test_syntax_error_becomes_parse_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    report = lint_paths([tmp_path])
    assert [f.rule for f in report.findings] == ["PARSE000"]
    assert report.exit_code == 1


def test_select_and_ignore(tmp_path):
    mod = tmp_path / "core" / "mod.py"
    mod.parent.mkdir()
    mod.write_text("import random\n"
                   "def f(s):\n"
                   "    return [x for x in set(s)][random.randint(0, 1)]\n")
    both = lint_paths([tmp_path])
    assert {f.rule for f in both.findings} == {"DET001", "DET002"}
    only = lint_paths([tmp_path], select={"DET001"})
    assert {f.rule for f in only.findings} == {"DET001"}
    rest = lint_paths([tmp_path], ignore={"DET001"})
    assert {f.rule for f in rest.findings} == {"DET002"}


def test_report_json_round_trip(tmp_path):
    mod = tmp_path / "core" / "mod.py"
    mod.parent.mkdir()
    mod.write_text("def f(s):\n    return [x for x in set(s)]\n")
    report = lint_paths([tmp_path])
    doc = json.loads(report.to_json())
    assert doc["findings"] and doc["checked_files"] == 1
    f = Finding(**doc["findings"][0])
    assert f.rule == "DET001"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _run_cli(*argv):
    from repro.cli import main
    return main(list(argv))


def test_cli_explain_and_list_rules(capsys):
    assert _run_cli("lint", "--list-rules") == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULES:
        assert rule_id in out
    assert _run_cli("lint", "--explain", "CERT001") == 0
    page = capsys.readouterr().out
    assert "CERT001" in page and "fsum" in page


def test_cli_explain_unknown_rule_fails():
    with pytest.raises(SystemExit):
        _run_cli("lint", "--explain", "NOPE999")


def test_cli_unknown_select_fails():
    with pytest.raises(SystemExit):
        _run_cli("lint", "--select", "NOPE999", "src")


def test_cli_json_output_and_artifact(tmp_path, capsys):
    mod = tmp_path / "core" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("def f(s):\n    return [x for x in set(s)]\n")
    out_file = tmp_path / "findings.json"
    code = _run_cli("lint", "--format", "json", "-o", str(out_file),
                    str(tmp_path))
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"][0]["rule"] == "DET001"
    assert json.loads(out_file.read_text()) == doc


# ----------------------------------------------------------------------
# The committed tree stays clean (the CI gate, as a test)
# ----------------------------------------------------------------------


def test_lint_src_baseline_is_clean():
    report = lint_paths([SRC])
    assert report.findings == [], "\n" + "\n".join(
        f.format() for f in report.findings)


def test_lint_cli_exits_zero_on_src():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(SRC)],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# Regression tests for the baseline findings fixed in this change
# ----------------------------------------------------------------------


def _pathological():
    # sum() collapses these to 0.0 left-to-right; the exact total is 2.0.
    return [1e16, 1.0, 1.0, -1e16]


def test_solution_profit_is_exactly_rounded():
    from repro.core.demand import TreeDemandInstance
    from repro.core.solution import Solution

    selected = [
        TreeDemandInstance(instance_id=i, demand_id=i, network_id=0,
                           u=0, v=1, profit=p)
        for i, p in enumerate(_pathological())
    ]
    sol = Solution(selected=selected)
    assert sol.profit == math.fsum(_pathological()) == 2.0
    assert sol.profit != sum(_pathological())


def test_sharded_merge_certificate_uses_fsum():
    from repro.online.metrics import ReplayMetrics
    from repro.online.events import EventTrace, Arrival
    from repro.sharding.streaming import _merge
    from repro.workloads import random_tree_problem

    problem = random_tree_problem(n=4, m=4, r=1, seed=0)
    trace = EventTrace(problem=problem,
                       events=[Arrival(float(i), i) for i in range(4)])

    def row(profit, cert):
        return ReplayMetrics(
            policy="greedy", events=1, arrivals=1, departures=0, ticks=0,
            accepted=1, rejected=0, acceptance_ratio=1.0,
            realized_profit=profit, evictions=0, forfeited_profit=profit,
            penalty_paid=profit, penalty_adjusted_profit=0.0,
            elapsed_s=0.0, events_per_sec=0.0, latency_p50_us=0.0,
            latency_p90_us=0.0, latency_p99_us=0.0, latency_mean_us=0.0,
            dual_upper_bound=cert, dual_upper_bound_peak=None,
        )

    class _Result:
        def __init__(self, m):
            self.metrics = m

    rows = [_Result(row(p, c))
            for p, c in zip(_pathological(), _pathological())]
    merged = _merge(trace, rows, None, wall=1.0)
    assert merged.realized_profit == 2.0
    assert merged.forfeited_profit == 2.0
    assert merged.penalty_paid == 2.0
    assert merged.dual_upper_bound == 2.0


def test_ledger_verify_accepts_exact_logs():
    """verify()'s fsum cross-check holds on a replay with evictions."""
    from repro.online.driver import replay
    from repro.online.events import generate_trace
    from repro.online.policies import make_policy

    trace = generate_trace("tree", events=200, seed=7, departure_prob=0.5)
    result = replay(trace, make_policy("preempt-density"), verify=True)
    assert result.metrics.events == len(trace.events)
