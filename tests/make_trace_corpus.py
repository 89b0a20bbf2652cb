"""Regenerate the pinned replay-regression corpus under ``tests/data/``.

The corpus pins three small saved traces (bursty line, poisson tree,
diurnal line), written as format-1 JSON (one object per event: the
format-1 reader's fixtures, see ``test_trace_formats.py``), plus the
exact replay outcome of every admission policy on each of them
(``corpus_expected.json``).  ``test_trace_corpus.py``
replays the saved traces in CI and compares against the pinned numbers,
so any change to policy profit/eviction behaviour is change-detected
rather than silently absorbed.

Run from the repo root after an *intentional* behaviour change::

    PYTHONPATH=src python tests/make_trace_corpus.py

and commit the refreshed JSON together with the change that caused it.
"""

from __future__ import annotations

import json
import pathlib

from repro.io import _atomic_dump
from repro.online import generate_trace, make_policy, replay

from helpers import v1_trace_document

DATA_DIR = pathlib.Path(__file__).parent / "data"

#: (file stem, generate_trace keyword arguments) for each pinned trace.
TRACES = [
    ("trace_bursty_line",
     dict(kind="line", events=160, process="bursty", seed=3,
          departure_prob=0.3)),
    ("trace_poisson_tree",
     dict(kind="tree", events=120, process="poisson", seed=5,
          departure_prob=0.3, workload={"n": 64})),
    ("trace_diurnal_line",
     dict(kind="line", events=140, process="diurnal", seed=2,
          departure_prob=0.4)),
]

#: (policy name, constructor kwargs) replayed on every pinned trace.
POLICIES = [
    ("greedy-threshold", {}),
    ("dual-gated", {}),
    ("batch-resolve", {"solver": "greedy", "resolve_every": 32}),
    ("preempt-density", {"factor": 1.2}),
    ("preempt-dual-gated", {"penalty": 0.1}),
]


def build_corpus() -> dict:
    """(Re)write the format-1 trace JSONs (atomically); return the
    expected-outcome document."""
    DATA_DIR.mkdir(exist_ok=True)
    expected: dict = {}
    for stem, kwargs in TRACES:
        trace = generate_trace(**kwargs)
        text = json.dumps(v1_trace_document(trace), indent=1)
        _atomic_dump(text.encode(), str(DATA_DIR / f"{stem}.json"))
        expected[stem] = {}
        for name, params in POLICIES:
            result = replay(trace, make_policy(name, **params))
            m = result.metrics
            expected[stem][name] = {
                "params": params,
                "accepted": m.accepted,
                "evictions": m.evictions,
                "realized_profit": m.realized_profit,
                "forfeited_profit": m.forfeited_profit,
                "penalty_paid": m.penalty_paid,
                "penalty_adjusted_profit": m.penalty_adjusted_profit,
            }
    return expected


def main() -> int:
    expected = build_corpus()
    out = DATA_DIR / "corpus_expected.json"
    with open(out, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
    for stem, policies in expected.items():
        print(stem)
        for name, rec in policies.items():
            print(f"  {name:<19} profit {rec['realized_profit']:8.2f}  "
                  f"adj {rec['penalty_adjusted_profit']:8.2f}  "
                  f"evict {rec['evictions']}")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
