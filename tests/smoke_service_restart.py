"""CI smoke: serve a trace, ``kill -9`` mid-stream, resume, diff metrics.

The end-to-end warm-restart story across real process boundaries:

1. generate + save a short trace, record the plain ``repro replay``
   metrics for it;
2. start ``repro serve --journal`` as a subprocess, feed
   it the first half of the trace's events as stdin requests (batched
   ``feed`` ops, reading each response), then SIGKILL it — no shutdown
   hooks, exactly the failure the journal exists for;
3. ``repro compact`` the torn journal in a fresh process — recovery
   plus checkpointing folded into one file;
4. ``repro resume --journal`` in another fresh process: restore the
   checkpoint, finish the trace, write the final metrics;
5. diff the resumed metrics (and policy stats) against the plain
   replay, ignoring only wall-clock timing fields;
6. ``repro resume`` a copy of a committed JSON-lines journal (the codec
   earlier writers emitted): it must be upgraded to binary and finish
   with the profit the writing code recorded.

Exit code 0 iff the metrics match exactly and the legacy journal
resumes.

Run from the repo root::

    PYTHONPATH=src python tests/smoke_service_restart.py
"""

from __future__ import annotations

import json
import os
import signal
import shutil
import subprocess
import sys
import tempfile

POLICY = "dual-gated"
EVENTS = 300
KILL_AFTER = 140
FEED_BATCH = 20
SYNC_WINDOW = 8
#: 8 does not divide 140: the SIGKILL lands with 4 events accepted but
#: not yet committed, so the resume must recover to the last group
#: commit boundary — the crash the sync window trades durability for.
COMMITTED = KILL_AFTER - KILL_AFTER % SYNC_WINDOW

LEGACY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "legacy_journals")


def resume_legacy_jsonl(env: dict, tmp: str, case: str) -> int:
    """``repro resume`` a copy of ``case``'s committed JSON-lines
    journal: it must report and perform the upgrade to binary and
    finish with the realized profit recorded in ``expected.json``."""
    journal = os.path.join(tmp, f"{case}-jsonl.journal")
    shutil.copyfile(os.path.join(LEGACY, f"{case}-jsonl-tail.journal"),
                    journal)
    resumed_path = os.path.join(tmp, f"{case}-resumed.json")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "resume", "--journal", journal,
         "-o", resumed_path],
        env=env, check=True, capture_output=True, text=True,
    )
    upgraded = [line for line in proc.stderr.splitlines()
                if line.startswith(f"upgraded {journal} to binary")]
    with open(journal, "rb") as fh:
        magic = fh.read(4)
    if not upgraded or magic != b"\x89RPJ":
        print(f"FAIL(legacy jsonl): {case} was not upgraded to binary "
              f"(stderr: {proc.stderr!r})")
        return 1
    with open(os.path.join(LEGACY, "expected.json")) as fh:
        want = json.load(fh)[case]["realized_profit"]
    with open(resumed_path) as fh:
        got = float(json.load(fh)["realized_profit"]).hex()
    if got != want:
        print(f"FAIL(legacy jsonl): {case} finished with profit {got}, "
              f"the writing code recorded {want}")
        return 1
    print(f"[legacy jsonl] OK: {upgraded[0]}; {case} finished with the "
          "recorded profit")
    return 0


def run_binary(env: dict, trace, trace_path: str,
               plain: dict, tmp: str) -> int:
    from repro.io import event_to_dict
    from repro.online import deterministic_metrics

    def deterministic(doc: dict) -> dict:
        doc = deterministic_metrics(doc)
        doc.pop("resumed_at", None)
        return doc

    journal = os.path.join(tmp, "smoke.journal")
    resumed_path = os.path.join(tmp, "resumed.json")

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--trace", trace_path,
         "--policy", POLICY, "--journal", journal,
         "--sync-window", str(SYNC_WINDOW)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env=env, text=True,
    )
    for i in range(0, KILL_AFTER, FEED_BATCH):
        batch = [event_to_dict(ev)
                 for ev in trace.events[i:i + FEED_BATCH]]
        server.stdin.write(json.dumps(
            {"op": "feed", "events": batch}) + "\n")
        server.stdin.flush()
        resp = json.loads(server.stdout.readline())
        if not resp.get("ok"):
            print(f"FAIL(binary): server refused a batch: {resp}")
            server.kill()
            return 1
    if resp.get("seq") != KILL_AFTER or resp.get("commit_seq") != COMMITTED:
        print(f"FAIL(binary): expected seq {KILL_AFTER} / commit_seq "
              f"{COMMITTED}, got {resp.get('seq')} / "
              f"{resp.get('commit_seq')}")
        server.kill()
        return 1
    server.send_signal(signal.SIGKILL)
    server.wait()
    print(f"[binary] served {KILL_AFTER}/{len(trace.events)} events "
          f"in feed batches ({COMMITTED} committed), killed the "
          "service with SIGKILL")

    compacted = subprocess.run(
        [sys.executable, "-m", "repro", "compact", "--journal", journal],
        env=env, check=True, capture_output=True, text=True,
    )
    print(f"[binary] {compacted.stdout.strip()}")

    subprocess.run(
        [sys.executable, "-m", "repro", "resume", "--journal", journal,
         "-o", resumed_path],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    with open(resumed_path) as fh:
        resumed = json.load(fh)
    if resumed.get("resumed_at") != COMMITTED:
        print(f"FAIL(binary): expected resume at the commit boundary "
              f"{COMMITTED}, got {resumed.get('resumed_at')}")
        return 1
    a, b = deterministic(plain), deterministic(resumed)
    if a != b:
        diff = {k for k in set(a) | set(b) if a.get(k) != b.get(k)}
        print(f"FAIL(binary): resumed metrics diverge on {sorted(diff)}")
        for k in sorted(diff):
            print(f"  {k}: plain={a.get(k)!r} resumed={b.get(k)!r}")
        return 1
    print(f"[binary] OK: warm restart reproduced the uninterrupted "
          f"replay (profit {plain['realized_profit']:.2f}, "
          f"{plain['accepted']}/{plain['arrivals']} accepted)")
    return 0


def main() -> int:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    sys.path.insert(0, src)
    from repro.io import save_trace
    from repro.online import generate_trace

    with tempfile.TemporaryDirectory() as tmp:
        trace = generate_trace("line", events=EVENTS, seed=9,
                               departure_prob=0.4)
        trace_path = os.path.join(tmp, "trace.json")
        save_trace(trace, trace_path)
        plain_path = os.path.join(tmp, "plain.json")

        subprocess.run(
            [sys.executable, "-m", "repro", "replay", trace_path,
             "--policy", POLICY, "-o", plain_path],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        with open(plain_path) as fh:
            plain = json.load(fh)

        return (run_binary(env, trace, trace_path, plain, tmp)
                or resume_legacy_jsonl(env, tmp, "line-preempt-density"))


if __name__ == "__main__":
    sys.exit(main())
