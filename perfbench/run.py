"""The repository benchmark: end-to-end admission workloads, checked.

Run from the repository root::

    python3 perfbench/run.py --workload line-preempt --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 1

Each run generates its workload's trace from ``--seed`` once, outside
every timed window, then repeats the measured pipeline in a fresh
interpreter per repetition until ``--seconds`` have passed, and reports
medians.  ``--workload all`` interleaves the workloads round-robin.
Every repetition's decisions are checked against ``reference.json``
(or, for a seed it does not list, against the run's other repetitions).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics, the
layer budget with its ``unaccounted`` remainder, coverage and tracing
overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from host import host_block  # noqa: E402
from instrument import LAYERS, layer_budget  # noqa: E402
from workloads import select  # noqa: E402

#: Fewest repetitions a run takes, however long they last.
MIN_REPS = 3
#: A run that has not finished by then kills its children and fails.
DEADLINE_S = 175

def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(values, q: float) -> float:
    """The ``q`` quantile by nearest rank (``q=0.99``: p99)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -int(-q * len(ordered) // 1) - 1))
    return ordered[k]


# ----------------------------------------------------------------------
# Preparation: inputs made once per seed, before any clock starts
# ----------------------------------------------------------------------


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def prepare(w, seed: int, work: str, reference: dict) -> dict:
    d = os.path.join(work, w.name)
    os.makedirs(d, exist_ok=True)
    files = {"dir": d, "trace": os.path.join(d, "trace.json")}
    args = ["gen", "--workload", w.name, "--seed", str(seed),
            "--out", files["trace"]]
    if w.pipeline == "serve":
        files["requests_path"] = os.path.join(d, "requests.jsonl")
        args += ["--requests", files["requests_path"]]
    doc, _ = harness.run_worker(args, pinned=False)
    files["events"] = doc["events"]
    files["numpy"] = doc["numpy"]
    files["trace_mb"] = os.path.getsize(files["trace"]) / 2**20
    if w.pipeline == "serve":
        with open(files["requests_path"], "rb") as fh:
            files["requests"] = fh.readlines()
        # The in-process replay the served session must agree with.
        inproc, _ = harness.run_worker(
            ["rep", "--workload", w.name, "--trace", files["trace"]])
        files["inprocess"] = inproc
    files["reference"] = reference.get(w.name, {}).get(str(seed))
    return files


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------


def run_rep(w, files: dict, traced: bool, tag: str) -> dict:
    spans = (os.path.join(files["dir"], f"spans-{tag}.json")
             if traced else None)
    try:
        if w.pipeline == "serve":
            doc = harness.rep_serve(w, files, spans, tag)
            if traced:
                doc["summaries"] = []
                for part in ("serve", "resume"):
                    with open(f"{spans}.{part}") as fh:
                        doc["summaries"].append(json.load(fh))
        else:
            doc = harness.rep_inprocess(w, files, spans)
            if traced:
                doc["summaries"] = [doc.pop("tracer")]
    except (harness.RunFailed, OSError, ValueError) as exc:
        print(f"# {w.name} rep {tag} failed: {exc}", file=sys.stderr)
        return {"error": str(exc), "attempted": files["events"],
                "failed": files["events"], "traced": traced}
    doc["traced"] = traced
    return doc


def check_rep(w, files: dict, doc: dict, digests: set) -> bool:
    """Did this repetition apply every event and do its decisions match
    the reference?  A mismatch counts all of its operations as failed."""
    if "error" in doc:
        return False
    ref = files["reference"]
    if w.pipeline == "serve":
        inproc = files["inprocess"]
        ok = (all(doc["checks"].values())
              and doc["decisions"] == {k: inproc["metrics"].get(k)
                                       for k in harness.DECISION_FIELDS})
        digest, profit = inproc["digest"], inproc["realized_profit"]
    else:
        ok = True
        digest, profit = doc["digest"], doc["realized_profit"]
    if ref is not None:
        ok = ok and digest == ref["digest"] and profit == ref[
            "realized_profit"]
    else:
        digests.add(digest)
        ok = ok and len(digests) == 1
    ok = (ok and doc["realized_profit"] == profit
          and doc["events"] == files["events"])
    if not ok:
        doc["failed"] = doc["attempted"]
    return ok


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(reps: list[dict]) -> dict:
    return {
        "events_per_s": median([r["events"] / r["wall_s"] for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["rss_mb"] for r in reps]),
        "realized_profit": reps[0]["realized_profit"],
    }


def client_view(reps: list[dict]) -> dict:
    """The serve workload's client-side latencies, pooled over reps."""
    feed = [x for r in reps for x in r.get("feed_ms", [])]
    stats = [x for r in reps for x in r.get("stats_ms", [])]
    return {
        "client.feed_p50_ms": nearest_rank(feed, 0.50),
        "client.feed_p99_ms": nearest_rank(feed, 0.99),
        "client.stats_p50_ms": nearest_rank(stats, 0.50),
        "client.resume_s": median([r["resume_s"] for r in reps
                                   if "resume_s" in r]),
        "client.feed_samples": len(feed),
        "client.stats_samples": len(stats),
    }


def layer_metrics(w, files: dict, doc: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    summaries = doc["summaries"]

    def incl(*keys) -> float:
        return sum(s["calls"].get(k, [0.0, 0, 0.0])[0]
                   for s in summaries for k in keys)

    def count(key) -> int:
        return sum(s["calls"].get(key, [0.0, 0, 0.0])[1] for s in summaries)

    def self_of(key) -> float:
        return sum(s["calls"].get(key, [0.0, 0, 0.0])[2] for s in summaries)

    def counter(key) -> float:
        return max([s["counters"].get(key, 0) for s in summaries] or [0])

    events = files["events"]
    fp = doc.get("fastpath") or {}
    admits = doc.get("admits") or 0
    feed_s = incl("session.kernel:feed_many")
    m = {
        "cli.import_s": summaries[0]["calls"].get(
            "cli:import", [0.0])[0] if w.pipeline == "serve" else 0.0,
        "io.trace_decode_s": incl("io:load_trace", "io:trace_from_dict"),
        "io.trace_mb": files["trace_mb"],
        "io.journal_write_s": incl("io:journal_append", "io:journal_commit"),
        "io.journal_mb": doc.get("journal_mb", 0.0),
        "io.journal_commits": count("io:journal_commit"),
        "io.journal_scan_s": incl("io:scan_journal"),
        "io.tail_events": counter("tail_events"),
        "core.instance.expand_s": incl("core.instance:instances"),
        "core.instance.instances": counter("instances"),
        "core.conflict.index_build_s": incl("core.conflict:ConflictIndex",
                                            "core.conflict:global_edges_of"),
        "core.conflict.edges": counter("edges"),
        "online.state.ledger_build_s": self_of("online.state:CapacityLedger"),
        "online.state.verify_s": incl("online.state:verify"),
        "online.state.admits": admits,
        "online.state.evictions": doc.get("evictions") or 0,
        "online.state.evictions_per_admit": ((doc.get("evictions") or 0)
                                             / admits if admits else 0.0),
        "online.policies.bind_s": incl("online.policies:bind"),
        "online.fastpath.geometry_s": incl("online.fastpath:geometry"),
        "online.fastpath.batched_share": (fp.get("batched_events", 0)
                                          / events),
        "online.fastpath.mean_run_len": (fp.get("batched_events", 0)
                                         / fp["runs"] if fp.get("runs")
                                         else 0.0),
        "online.fastpath.scalar_fallbacks": fp.get("scalar_fallbacks", 0),
        "session.kernel.feed_s": feed_s,
        "session.kernel.us_per_event": feed_s * 1e6 / events,
        "session.kernel.close_s": incl("session.kernel:close"),
        "service.service.init_s": self_of(
            "service.service:AdmissionService"),
        "service.service.feed_s": incl("service.service:handle:feed"),
        "service.service.stats_s": incl("service.service:handle:stats"),
        "service.service.resume_s": incl("service.service:resume"),
        "service.service.checkpoints": count("service.service:checkpoint"),
        "service.server.decode_s": incl("service.server:decode"),
        "service.server.encode_s": incl("service.server:encode"),
        "service.server.request_mb": sum(s.get("request_bytes", 0)
                                         for s in summaries) / 2**20,
        "service.server.response_mb": sum(s.get("response_bytes", 0)
                                          for s in summaries) / 2**20,
        "sharding.planner.plan_s": incl("sharding.planner:plan"),
        "sharding.planner.boundary_frac": doc.get("boundary_frac", 0.0),
        "sharding.streaming.geometry_s": incl(
            "sharding.streaming:SharedGeometry",
            "sharding.streaming:shard_view"),
        "sharding.streaming.run_s": incl("sharding.streaming:run"),
        "sharding.streaming.shard_skew": doc.get("shard_skew", 0.0),
    }
    # Serve: the layers' windows are the served session and the resume.
    wall = doc["wall_s"] + doc.get("resume_s", 0.0)
    self_s: dict = {}
    for s in summaries:
        for layer, secs in s["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + secs
    budget = layer_budget(self_s, wall)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = budget["rows"][layer]
    m["trace.unaccounted_s"] = budget["rows"]["unaccounted"]
    m["trace.coverage"] = budget["coverage"]
    m["trace.wall_s"] = wall
    return m


def summarize(w, files: dict, reps: list[dict], trace: bool) -> dict:
    good = [r for r in reps if "error" not in r and not r["traced"]]
    out = {"reps": len(good), "attempted": sum(r["attempted"] for r in reps),
           "failed": sum(r["failed"] for r in reps)}
    if not good:
        return out
    out["end_to_end"] = end_to_end(good)
    if w.pipeline == "serve":
        out["client"] = client_view(good)
    out["host"] = [r["host"] for r in reps if "host" in r]
    out["walls"] = [r["wall_s"] for r in good]
    if trace:
        traced = [r for r in reps if r["traced"] and "error" not in r]
        rows = [layer_metrics(w, files, r) for r in traced]
        layers = {k: median([row[k] for row in rows]) for k in rows[0]} \
            if rows else {}
        if rows:
            layers["trace.overhead"] = (median([r["wall_s"] for r in traced])
                                        / median(out["walls"]))
        client = out.get("client") or {}
        for k in ("client.feed_p50_ms", "client.feed_p99_ms",
                  "client.stats_p50_ms", "client.resume_s"):
            layers[k] = client.get(k, 0.0)
        layers["sharding.streaming.vs_unsharded"] = files.get(
            "vs_unsharded", 0.0)
        out["layers"] = layers
    return out


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def measure(workloads, seed: int, seconds: float, trace: bool,
            work: str) -> tuple[dict, dict]:
    reference = load_reference()
    files = {w.name: prepare(w, seed, work, reference) for w in workloads}
    host = host_block(harness.CPUS, files[workloads[0].name]["numpy"])
    reps: dict[str, list] = {w.name: [] for w in workloads}
    digests: dict[str, set] = {w.name: set() for w in workloads}
    ok = {w.name: True for w in workloads}
    t_start = time.perf_counter()
    budget = seconds * len(workloads)
    i = 0
    # Round-robin: one repetition of every workload per round, so host
    # drift during the run hits all of them alike.
    while True:
        done = time.perf_counter() - t_start >= budget
        if done and i >= (2 * MIN_REPS if trace else MIN_REPS):
            break
        traced = trace and i % 2 == 1
        for w in workloads:
            doc = run_rep(w, files[w.name], traced, f"{i}")
            ok[w.name] &= check_rep(w, files[w.name], doc, digests[w.name])
            reps[w.name].append(doc)
        i += 1
    if trace:
        for w in workloads:
            if w.pipeline == "sharded":
                # The same trace replayed unsharded in one process: the
                # base of ``sharding.streaming.vs_unsharded``.
                base, _ = harness.run_worker(
                    ["rep", "--workload", w.name, "--trace",
                     files[w.name]["trace"], "--pipeline", "replay"])
                walls = [r["wall_s"] for r in reps[w.name]
                         if not r["traced"] and "error" not in r]
                files[w.name]["vs_unsharded"] = median(walls) / base[
                    "wall_s"]
    return host, {w.name: {"ok": ok[w.name],
                           **summarize(w, files[w.name], reps[w.name], trace)}
                  for w in workloads}


def report(results: dict, trace: bool, host: dict) -> dict:
    print(f"# host {json.dumps(host)}")
    metrics: dict = {}
    correct = True
    attempted = failed = 0
    single = len(results) == 1
    for name, res in results.items():
        correct &= res["ok"] and "end_to_end" in res
        attempted += res["attempted"]
        failed += res["failed"]
        if "end_to_end" not in res:
            continue
        print(f"# {name}: {res['reps']} reps, walls "
              + " ".join(f"{x:.3f}" for x in res["walls"]))
        print(f"#   per-rep host: {json.dumps(res['host'])}")
        rows = dict(res["end_to_end"])
        rows["failed_frac"] = res["failed"] / max(res["attempted"], 1)
        rows.update(res.get("client") or {})
        units = dict(UNITS, failed_frac="ratio", **{
            "client.feed_samples": "count", "client.stats_samples": "count"})
        for key, value in rows.items():
            print(f"#   {key:<24} {value:>14.6g} {units[key]}")
        if trace:
            layers = res["layers"]
            print(f"#   layer budget (self seconds, median of traced reps, wall "
                  f"{layers.get('trace.wall_s', 0.0):.3f} s):")
            for layer in LAYERS:
                print(f"#     {layer:<20} "
                      f"{layers.get(layer + '.self_s', 0.0):>9.4f}")
            print(f"#     {'unaccounted':<20} "
                  f"{layers.get('trace.unaccounted_s', 0.0):>9.4f}")
            for key, value in layers.items():
                print(f"#   {key:<36} {value:>14.6g}")
            chosen = {k: v for k, v in layers.items()
                      if not k.startswith("trace.wall")}
        else:
            chosen = res["end_to_end"]
        for key, value in chosen.items():
            metrics[key if single else f"{name}/{key}"] = {
                "value": value, "unit": UNITS[key]}
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _units_from_benchmark() -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


UNITS = _units_from_benchmark()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="workload name, or all (round-robin)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "repro",
                                       "__init__.py")):
        print(f"perfbench: no program to measure under {harness.SRC}",
              file=sys.stderr)
        return 2
    workloads = select(args.workload.split(","))

    def on_alarm(signum, frame):
        harness.kill_all()
        print("perfbench: run exceeded its deadline", file=sys.stderr)
        os._exit(3)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S * len(workloads))
    harness.pin_harness()
    work = os.path.join(harness.ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        host, results = measure(workloads, args.seed, args.seconds,
                                bool(args.trace), work)
        doc = report(results, bool(args.trace), host)
    finally:
        signal.alarm(0)
        harness.kill_all()
        keep = os.path.join(harness.ROOT, ".perfbench", "spans")
        os.makedirs(keep, exist_ok=True)
        for w in workloads:
            d = os.path.join(work, w.name)
            for f in sorted(os.listdir(d)) if os.path.isdir(d) else []:
                if f.startswith("spans-"):
                    shutil.move(os.path.join(d, f), os.path.join(
                        keep, f"{w.name}-seed{args.seed}-{f}"))
        shutil.rmtree(work, ignore_errors=True)
    if not any("end_to_end" in r for r in results.values()):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
