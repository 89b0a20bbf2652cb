"""CI smoke: one trace in all three file formats through the ``repro`` CLI.

1. copy the committed format-1 corpus trace
   ``tests/data/trace_poisson_tree.json`` as a format-2 (columnar) JSON
   file (``helpers.write_v2_trace``, the layout the JSON writer used)
   and re-save it as a binary trace file (``save_trace``);
2. run ``repro replay <file> --policy dual-gated -o <report>`` on each
   file in a fresh process;
3. compare the decision fields of the three reports: the metrics minus
   wall-clock timing, the policy stats and the trace provenance.

Writes ``trace_formats_v1.json``, ``trace_formats_v2.json`` and
``trace_formats_binary.json`` (the three reports) to the working
directory.  Exit code 0 iff the decisions match.

Run from the repo root::

    PYTHONPATH=src python tests/smoke_trace_formats.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE = os.path.join(HERE, "data", "trace_poisson_tree.json")
POLICY = "dual-gated"


def replay_report(trace_path: str, out: str) -> dict:
    subprocess.run(
        [sys.executable, "-m", "repro", "replay", trace_path,
         "--policy", POLICY, "-o", out],
        check=True, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)


def decisions(report: dict) -> dict:
    from repro.online import deterministic_metrics

    doc = deterministic_metrics(report)
    return {"policy_stats": doc.pop("policy_stats"),
            "trace_meta": doc.pop("trace_meta"), "metrics": doc}


def main() -> int:
    from helpers import write_v2_trace
    from repro.io import load_trace, save_trace

    with open(TRACE) as fh:
        if json.load(fh)["format"] != 1:
            print(f"{TRACE} is expected to be a format-1 file")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        v2_path = os.path.join(tmp, "trace_v2.json")
        write_v2_trace(load_trace(TRACE), v2_path)
        with open(v2_path) as fh:
            assert json.load(fh)["format"] == 2
        bin_path = os.path.join(tmp, "trace.bin")
        save_trace(load_trace(v2_path), bin_path)
        with open(bin_path, "rb") as fh:
            assert fh.read(4) == b"\x89RPT"
        reports = {fmt: replay_report(path, f"trace_formats_{fmt}.json")
                   for fmt, path in (("v1", TRACE), ("v2", v2_path),
                                     ("binary", bin_path))}
    got = {fmt: decisions(r) for fmt, r in reports.items()}
    if not got["v1"] == got["v2"] == got["binary"]:
        print("the replays of the three formats disagree:")
        for key in got["v1"]:
            if not got["v1"][key] == got["v2"][key] == got["binary"][key]:
                for fmt, doc in got.items():
                    print(f"  {key} {fmt}: {doc[key]!r}")
        return 1
    m = got["v1"]["metrics"]
    print(f"all three formats: {m['events']} events, {m['accepted']} "
          f"accepted, realized profit {m['realized_profit']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
