"""Regenerate the legacy-checkpoint journal fixtures under
``tests/data/legacy_journals/``.

Checkpoints written before the ``"edge_order"`` field existed store
their per-edge vectors (the ledger's ``load``, the dual-gated policy's
``peak`` and ``snapshots``) in the old first-appearance edge numbering.
``test_legacy_journals.py`` resumes these journals on the current code
and compares the finished run with ``expected.json``, so a resume that
reads an old checkpoint in the wrong edge order fails loudly.

The fixtures are only meaningful when written by code that predates the
field, so run this against a checkout of such a commit (the committed
files came from commit ``700e4dc``), from that checkout's root::

    PYTHONPATH=src python /path/to/tests/make_legacy_journals.py OUT_DIR

Per policy and codec it writes a journal whose last checkpoint is
followed by a tail of events (``*-tail.journal``) and the same journal
compacted to one checkpoint (``*-compact.journal``), then resumes a copy
of each and finishes the trace to record the expected outcome, one per
case (every journal of a case must reach it).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile

from repro.online import generate_trace
from repro.service.service import AdmissionService

#: (name, trace kwargs, policy, params): preempt-density covers
#: evictions on lines with two resources; dual-gated with history covers
#: the ``peak`` and ``snapshots`` vectors on trees with two networks.
CASES = [
    ("line-preempt-density",
     dict(kind="line", events=160, process="poisson", seed=11,
          departure_prob=0.3, workload={"n_slots": 48, "r": 2}),
     "preempt-density", {"factor": 1.2}),
    ("tree-dual-gated-history",
     dict(kind="tree", events=160, process="poisson", seed=12,
          departure_prob=0.3, workload={"n": 40, "r": 2}),
     "dual-gated", {"history": True}),
]

CODECS = ("jsonl", "binary")

#: Events fed before the simulated kill, in requests of ``BATCH``; with a
#: checkpoint every ``EVERY`` events the journal ends in a tail.
FED, BATCH, EVERY = 110, 16, 40


def _outcome(svc: AdmissionService) -> dict:
    """The finished run: logs, exact profit, and the per-edge vectors
    keyed by edge key (independent of any edge numbering)."""
    result = svc.run_remaining(verify=True)
    ledger = svc.session.ledger
    keys = ledger.index._edge_keys
    doc = {
        "admission_log": [list(p) for p in result.admission_log],
        "eviction_log": [list(p) for p in result.eviction_log],
        "realized_profit": float(result.metrics.realized_profit).hex(),
        "load": {repr(keys[e]): x.hex() for e, x in
                 enumerate(ledger.active._load.tolist()) if x},
    }
    policy = svc.session.policy
    if hasattr(policy, "_peak"):
        doc["peak"] = {repr(keys[e]): x.hex() for e, x in
                       enumerate(policy._peak.tolist()) if x}
        doc["snapshots"] = len(policy._snapshots)
        doc["upper_bound"] = policy.price_certificate()["upper_bound"]
    return doc


def main(out: str) -> None:
    out_dir = pathlib.Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    expected = {}
    for name, kwargs, policy, params in CASES:
        trace = generate_trace(**kwargs)
        for codec in CODECS:
            tail = out_dir / f"{name}-{codec}-tail.journal"
            svc = AdmissionService(trace, policy, params,
                                   journal_path=str(tail), fmt=codec,
                                   checkpoint_every=EVERY)
            for i in range(0, FED, BATCH):
                svc.feed_events(trace.events[i:min(i + BATCH, FED)])
            svc.journal.close()
            compact = out_dir / f"{name}-{codec}-compact.journal"
            shutil.copyfile(tail, compact)
            AdmissionService.compact(str(compact))
            for path in (tail, compact):
                with tempfile.TemporaryDirectory() as tmp:
                    copy = pathlib.Path(tmp) / path.name
                    shutil.copyfile(path, copy)
                    outcome = _outcome(AdmissionService.resume(str(copy)))
                # Every journal of a case resumes to one outcome.
                assert expected.setdefault(name, outcome) == outcome, path
    with open(out_dir / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
