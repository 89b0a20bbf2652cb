"""What the lazy package exports and the lazy CLI parser must keep.

``repro serve`` and ``repro resume --serve`` import only the online
engine: the offline solvers, SciPy, the decompositions, the agent
protocol, the runners, sharding and the report tables stay unloaded.
The module checks run in fresh interpreters and compare module names,
not times, so they are deterministic.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
TRACE = Path(__file__).resolve().parent / "data" / "trace_poisson_tree.json"

#: Modules the online commands must never load.
OFFLINE = ("scipy", "repro.algorithms", "repro.lp", "repro.capacitated",
           "repro.decomposition", "repro.distributed", "repro.runners",
           "repro.sharding", "repro.report")

_CHILD = """
import io, json, sys
from repro.cli import main
sys.stdin = io.StringIO(sys.argv[1])
sys.stdout = io.StringIO()
rc = main(json.loads(sys.argv[2]))
offline = json.loads(sys.argv[3])
loaded = sorted(m for m in sys.modules
                if any(m == p or m.startswith(p + ".") for p in offline))
print(json.dumps({"rc": rc, "loaded": loaded,
                  "out": sys.stdout.getvalue()}), file=sys.__stdout__)
"""


#: Modules stdio serving never runs: the TCP server, the dashboard's
#: client and what only they (or ``np.unique``) import.
TCP_ONLY = ("asyncio", "socket", "selectors", "numpy.ma",
            "repro.service.async_server", "repro.obs.dashboard")


def _run_cli(argv: list[str], stdin: str, unwanted=OFFLINE) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, stdin, json.dumps(argv),
         json.dumps(unwanted)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _requests(ops: list[dict]) -> str:
    return "".join(json.dumps(op) + "\n" for op in ops)


def test_serve_and_resume_load_no_offline_module(tmp_path):
    from repro.io import event_to_dict, load_trace

    events = [event_to_dict(ev) for ev in load_trace(str(TRACE)).events]
    journal = str(tmp_path / "j.bin")
    served = _run_cli(
        ["serve", "--trace", str(TRACE), "--policy", "dual-gated",
         "--journal", journal, "--format", "binary"],
        _requests([{"op": "feed", "events": events[:60]},
                   {"op": "close"}]),
    )
    assert served["rc"] == 0 and served["loaded"] == []
    assert json.loads(served["out"].splitlines()[-1])["op"] == "close"

    resumed = _run_cli(["resume", "--journal", journal, "--serve"],
                       _requests([{"op": "stats"}]))
    assert resumed["rc"] == 0 and resumed["loaded"] == []
    stats = json.loads(resumed["out"].splitlines()[-1])
    assert stats["ok"] and stats["stats"]["position"] == 60


def test_stdio_serve_and_resume_load_no_socket_module(tmp_path):
    from repro.io import event_to_dict, load_trace

    events = [event_to_dict(ev) for ev in load_trace(str(TRACE)).events]
    journal = str(tmp_path / "j.bin")
    served = _run_cli(
        ["serve", "--trace", str(TRACE), "--policy", "dual-gated",
         "--journal", journal, "--format", "binary"],
        _requests([{"op": "feed", "events": events[:60]},
                   {"op": "stats"}]), TCP_ONLY)
    assert served["rc"] == 0 and served["loaded"] == []
    assert json.loads(served["out"].splitlines()[-1])["ok"]

    resumed = _run_cli(["resume", "--journal", journal, "--serve"],
                       _requests([{"op": "stats"}]), TCP_ONLY)
    assert resumed["rc"] == 0 and resumed["loaded"] == []
    stats = json.loads(resumed["out"].splitlines()[-1])
    assert stats["ok"] and stats["stats"]["position"] == 60


def test_lazy_tcp_and_dashboard_names_still_import():
    probe = ("import sys\n"
             "from repro.service import AsyncLineServer, serve_async\n"
             "from repro.obs import fetch_stats, request_once, run_top\n"
             "import repro.service.async_server as a, repro.obs.dashboard as d\n"
             "assert AsyncLineServer is a.AsyncLineServer\n"
             "assert serve_async is a.serve_async and run_top is d.run_top\n"
             "ns = {}\n"
             "exec('from repro.service import *; from repro.obs import *', ns)\n"
             "assert ns['serve_async'] is serve_async\n"
             "assert ns['render_dashboard'] is d.render_dashboard\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ,
                                              PYTHONPATH=str(SRC)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# The lazy package exports
# ----------------------------------------------------------------------


def test_all_is_the_export_table():
    assert len(repro.__all__) == len(set(repro.__all__))
    assert set(repro.__all__) == set(repro._EXPORTS) | {"__version__"}


@pytest.mark.parametrize("name", sorted(repro._EXPORTS))
def test_every_export_is_its_defining_modules_object(name):
    module = importlib.import_module(repro._EXPORTS[name], "repro")
    assert getattr(repro, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["solve_optimal"] is repro.solve_optimal


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro, "no_such_name")


def test_bare_import_is_light_and_reaches_subpackages():
    probe = ("import sys, repro\n"
             "assert 'scipy' not in sys.modules\n"
             "assert 'repro.algorithms' not in sys.modules\n"
             "print(repro.algorithms.registry.get('greedy').name)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ,
                                              PYTHONPATH=str(SRC)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "greedy"


# ----------------------------------------------------------------------
# The parser behaviour the lazy choices and epilog must keep
# ----------------------------------------------------------------------


@pytest.mark.parametrize("command", ["solve", "replay"])
def test_help_lists_every_registered_solver(command, capsys):
    from repro.algorithms import registry

    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in registry.names():
        assert f"  {name} " in out


def test_unknown_algorithm_exits_2_and_lists_solvers(capsys):
    from repro.algorithms import registry

    with pytest.raises(SystemExit) as exc:
        main(["solve", "problem.json", "--algorithm", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(repr(name) in err for name in registry.names())


def test_unknown_shard_strategy_exits_2(capsys):
    from repro.sharding import SHARD_STRATEGIES

    with pytest.raises(SystemExit) as exc:
        main(["replay", "--shard-by", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(repr(s) in err for s in SHARD_STRATEGIES)


# ----------------------------------------------------------------------
# Usage and input errors of the online commands
# ----------------------------------------------------------------------


def _v1_arrival_without_demand() -> str:
    doc = json.loads(TRACE.read_text())  # the corpus file is format 1
    del doc["events"][2]["demand"]
    return json.dumps(doc)


def _v2_column_length_mismatch() -> str:
    from repro.io import load_trace, trace_to_dict

    doc = trace_to_dict(load_trace(str(TRACE)))
    del doc["events"]["time"][-1]
    return json.dumps(doc)


#: ``(file content or None for a missing file, the error's reason)``.
BAD_TRACES = [
    (None, "No such file"),
    ("{not json", "Expecting property name"),
    ('{"format": 99}', "unsupported trace format version 99"),
    pytest.param("[]", "trace must be a JSON object, got list",
                 id="json-array"),
    pytest.param(_v1_arrival_without_demand(),
                 r"events\[2\]: missing field 'demand'",
                 id="v1-arrival-without-demand"),
    pytest.param(_v2_column_length_mismatch(),
                 "events: column lengths differ: kind 120, time 119, "
                 "demand 120", id="v2-column-length-mismatch"),
]


@pytest.mark.parametrize("content, reason", BAD_TRACES)
def test_serve_bad_trace_is_a_friendly_error(tmp_path, content, reason):
    path = tmp_path / "trace.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit, match=f"^serve: .*{reason}"):
        main(["serve", "--trace", str(path)])


@pytest.mark.parametrize("content, reason", BAD_TRACES)
def test_replay_bad_trace_is_a_friendly_error(tmp_path, content, reason):
    path = tmp_path / "trace.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit, match=f"^replay: .*{reason}"):
        main(["replay", str(path)])


def _damaged(data: bytes, how: str) -> bytes:
    if how == "truncated":
        return data[:len(data) // 2]
    flipped = bytearray(data)
    flipped[{"magic": 0, "version": 4, "payload": len(data) // 2}[how]] ^= 4
    return bytes(flipped)


@pytest.mark.parametrize("command", ["serve", "replay"])
@pytest.mark.parametrize("how", ["truncated", "magic", "version", "payload"])
def test_damaged_binary_trace_is_a_one_line_error(tmp_path, command, how):
    from repro.io import load_trace, save_trace

    path = tmp_path / "trace.bin"
    save_trace(load_trace(str(TRACE)), str(path))
    path.write_bytes(_damaged(path.read_bytes(), how))
    argv = ["serve", "--trace", str(path)] if command == "serve" \
        else ["replay", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert message.startswith(f"{command}: {path}: ")
    assert "\n" not in message


@pytest.mark.parametrize("name", sorted(repro._SUBMODULES))
def test_each_submodule_imports_alone(name):
    """Every subpackage imports first in a fresh interpreter (no import
    cycle that only another import order hides)."""
    proc = subprocess.run([sys.executable, "-c", f"import repro.{name}"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_resume_port_without_serve_is_a_usage_error(tmp_path, capsys,
                                                    monkeypatch):
    import io

    from repro.io import event_to_dict, load_trace

    journal = tmp_path / "j.log"
    events = [event_to_dict(ev) for ev in load_trace(str(TRACE)).events]
    monkeypatch.setattr("sys.stdin", io.StringIO(
        _requests([{"op": "feed", "events": events[:30]}])))
    assert main(["serve", "--trace", str(TRACE), "--journal",
                 str(journal)]) == 0
    capsys.readouterr()
    before = journal.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["resume", "--journal", str(journal), "--port", "0"])
    assert exc.value.code == 2
    assert "--port requires --serve" in capsys.readouterr().err
    assert journal.read_bytes() == before
