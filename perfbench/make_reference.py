"""Record the reference decisions every benchmark run is checked against.

For each workload and seed, generates the trace and runs the workload's
in-process pipeline once (the serve workload: the in-process replay its
served session must equal), then stores the decision digest and the
exact realized profit in ``reference.json``.  Run from the repository
root after a change that is *meant* to alter decisions::

    python3 perfbench/make_reference.py --seeds 0-49
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-49")
    args = ap.parse_args(argv)
    path = os.path.join(HERE, "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    scratch = os.path.join(harness.ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=scratch)
    try:
        for seed in parse_seeds(args.seeds):
            for w in WORKLOADS:
                trace = os.path.join(work, f"{w.name}.json")
                harness.run_worker(["gen", "--workload", w.name, "--seed",
                                    str(seed), "--out", trace],
                                   pinned=False)
                doc, _ = harness.run_worker(
                    ["rep", "--workload", w.name, "--trace", trace],
                    pinned=False)
                ref.setdefault(w.name, {})[str(seed)] = {
                    "digest": doc["digest"],
                    "realized_profit": doc["realized_profit"],
                }
                print(f"{w.name} seed {seed}: {doc['digest']} "
                      f"{doc['realized_profit']!r}", flush=True)
            with open(path, "w") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
