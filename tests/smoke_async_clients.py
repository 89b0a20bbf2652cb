"""CI smoke: 8 concurrent clients, ``kill -9`` mid-stream, resume.

The async front door's crash story across real process boundaries:

1. generate + save a short trace, record the plain ``repro replay``
   metrics for it;
2. start ``repro serve --port 0`` as a subprocess and connect
   **8 concurrent TCP clients**; the clients pump the first part of
   the trace through batched ``feed`` requests (globally ordered, so
   the journal stays a prefix of the trace — each request is ack'd
   before the next client sends), confirm the server sees all 8
   connections in ``stats``, then SIGKILL the server mid-stream with
   every client still connected — no shutdown hooks;
3. ``repro resume --journal`` in a fresh process: recovery must land
   exactly on the last group-commit boundary, finish the trace, and
   write final metrics;
4. diff the resumed metrics against the plain replay, ignoring only
   wall-clock timing fields;
5. ``repro resume`` a copy of a committed JSON-lines journal, which must
   be upgraded to binary and finish with the recorded profit
   (``smoke_service_restart.resume_legacy_jsonl``).

Exit code 0 iff the served journal recovers to the exact commit
boundary and reproduces the uninterrupted replay byte-for-byte, and the
legacy journal resumes.

Run from the repo root::

    PYTHONPATH=src python tests/smoke_async_clients.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading

POLICY = "dual-gated"
EVENTS = 400
CLIENTS = 8
FEED_BATCH = 12
BATCHES = 19           # 228 events fed before the kill
SYNC_WINDOW = 8
FED = BATCHES * FEED_BATCH
#: 8 does not divide 228: the SIGKILL lands with 4 events accepted but
#: not yet committed, so the resume must recover to the last group
#: commit boundary.
COMMITTED = FED - FED % SYNC_WINDOW


def _spawn_server(env, trace_path, journal):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--trace", trace_path,
         "--policy", POLICY, "--journal", journal,
         "--sync-window", str(SYNC_WINDOW), "--port", "0",
         "--max-clients", "16"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=env, text=True,
    )
    addr = None
    for line in proc.stderr:
        m = re.search(r"listening on ([\d.]+):(\d+)", line)
        if m:
            addr = (m.group(1), int(m.group(2)))
            break
    if addr is None:
        proc.kill()
        raise RuntimeError("server never announced its port")
    # Leave stderr draining in the background so the server never
    # blocks on a full pipe.
    threading.Thread(target=proc.stderr.read, daemon=True).start()
    return proc, addr


def run_binary(env: dict, trace, trace_path: str,
               plain: dict, tmp: str) -> int:
    from repro.io import event_to_dict
    from repro.online import deterministic_metrics

    def deterministic(doc: dict) -> dict:
        doc = deterministic_metrics(doc)
        doc.pop("resumed_at", None)
        return doc

    journal = os.path.join(tmp, "smoke-async.journal")
    resumed_path = os.path.join(tmp, "resumed-async.json")
    server, addr = _spawn_server(env, trace_path, journal)

    batches = [
        [event_to_dict(ev)
         for ev in trace.events[i * FEED_BATCH:(i + 1) * FEED_BATCH]]
        for i in range(BATCHES)
    ]
    order = threading.Lock()     # serializes the globally-ordered feed
    cursor = {"next": 0}
    hold = threading.Event()     # keeps every client connected post-feed
    failures: list[str] = []
    connected = threading.Barrier(CLIENTS + 1, timeout=30)

    def client(i: int) -> None:
        try:
            sock = socket.create_connection(addr, timeout=30)
            f = sock.makefile("rw", encoding="utf-8")
            connected.wait()
            while True:
                with order:
                    j = cursor["next"]
                    if j >= BATCHES:
                        break
                    cursor["next"] = j + 1
                    f.write(json.dumps({"op": "feed", "events": batches[j],
                                        "id": [i, j]}) + "\n")
                    f.flush()
                    resp = json.loads(f.readline())
                    if not resp.get("ok") or resp.get("id") != [i, j]:
                        failures.append(f"client {i} batch {j}: {resp}")
                        break
            hold.wait(30)
            sock.close()
        except Exception as exc:  # noqa: BLE001 — reported below
            failures.append(f"client {i}: {exc!r}")
            hold.set()

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    connected.wait()

    # All 8 clients are connected and fed: the server must report them.
    probe = socket.create_connection(addr, timeout=30)
    pf = probe.makefile("rw", encoding="utf-8")
    while True:  # wait for the feed to finish (acks happen under the
        with order:  # lock, so cursor == BATCHES means all are in)
            if cursor["next"] >= BATCHES or failures:
                break
    pf.write(json.dumps({"op": "stats"}) + "\n")
    pf.flush()
    stats = json.loads(pf.readline())
    server_block = stats["stats"]["server"]
    if failures:
        print(f"FAIL(binary): {failures[:3]}")
        server.kill()
        return 1
    if server_block["clients"] < CLIENTS + 1:
        print(f"FAIL(binary): expected >= {CLIENTS + 1} connected "
              f"clients, server saw {server_block['clients']}")
        server.kill()
        return 1
    if stats["stats"]["position"] != FED:
        print(f"FAIL(binary): expected position {FED}, got "
              f"{stats['stats']['position']}")
        server.kill()
        return 1

    server.send_signal(signal.SIGKILL)
    server.wait()
    hold.set()
    for t in threads:
        t.join(30)
    probe.close()
    print(f"[binary] {CLIENTS} concurrent clients fed {FED}/"
          f"{len(trace.events)} events ({COMMITTED} committed), killed "
          "the async server with SIGKILL")

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
    print(f"[binary] OK: resume from the torn multi-client journal "
          f"reproduced the uninterrupted replay (profit "
          f"{plain['realized_profit']:.2f}, {plain['accepted']}/"
          f"{plain['arrivals']} accepted)")
    return 0


def main() -> int:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    sys.path.insert(0, src)
    from smoke_service_restart import resume_legacy_jsonl

    from repro.io import save_trace
    from repro.online import generate_trace

    with tempfile.TemporaryDirectory() as tmp:
        trace = generate_trace("tree", events=EVENTS, process="poisson",
                               seed=31, departure_prob=0.35,
                               workload={"n": 96, "boundary_fraction": 0.1,
                                         "parts": 2})
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
                or resume_legacy_jsonl(env, tmp, "tree-dual-gated-history"))


if __name__ == "__main__":
    sys.exit(main())
