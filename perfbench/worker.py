"""Child-process side of the benchmark: one fresh interpreter per step.

Subcommands (the harness in ``harness.py`` runs them; each prints one
JSON object on its last stdout line):

``gen``     generate a workload's trace from the seed and save it as a
            file (plus the serve workload's pre-encoded request lines);
``rep``     one measured pass of the ``replay`` or ``sharded`` pipeline
            over a trace file, optionally traced (``--spans``);
``cli``     the ``repro`` command line under the layer tracer (the
            traced ``serve`` and ``resume --serve`` children).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import BY_NAME  # noqa: E402


def log_digest(admission_log, eviction_log, profit: float) -> str:
    """Digest of the decisions: admission and eviction logs plus the
    exact realized profit."""
    h = hashlib.sha256()
    h.update(json.dumps([[list(p) for p in admission_log],
                         [list(p) for p in eviction_log]]).encode())
    h.update(repr(float(profit)).encode())
    return h.hexdigest()[:32]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cmd_gen(args) -> dict:
    # Importing every module a measured child loads also compiles their
    # bytecode caches, so no repetition pays that one-time cost.
    import numpy
    import repro.cli  # noqa: F401
    import repro.sharding  # noqa: F401
    from repro.io import event_to_dict, save_trace
    from repro.online import generate_trace

    w = BY_NAME[args.workload]
    trace = generate_trace(**w.trace_kwargs(args.seed))
    save_trace(trace, args.out)
    doc = {"events": len(trace.events), "arrivals": trace.num_arrivals,
           "numpy": numpy.__version__}
    if args.requests:
        batch = w.settings["feed_batch"]
        with open(args.requests, "w") as fh:
            for i in range(0, len(trace.events), batch):
                fh.write(json.dumps({"op": "feed", "events": [
                    event_to_dict(ev) for ev in trace.events[i:i + batch]]})
                    + "\n")
    return doc


def _replay(w, path: str) -> dict:
    import repro.io as rio
    from repro.online import make_policy
    from repro.session.kernel import AdmissionSession

    policy = make_policy(w.policy, **w.params)
    t0 = time.perf_counter()
    trace = rio.load_trace(path)
    session = AdmissionSession(trace.problem, policy, trace_meta=trace.meta)
    t1 = time.perf_counter()
    session.feed_many(trace.events)
    result = session.close(verify=True)
    t2 = time.perf_counter()
    m = result.metrics
    return {
        "t0": t0, "t_end": t2, "wall_s": t2 - t0, "setup_s": t1 - t0,
        "events": m.events, "realized_profit": m.realized_profit,
        "digest": log_digest(result.admission_log, result.eviction_log,
                             m.realized_profit),
        "admits": m.accepted, "evictions": m.evictions,
        "instances": len(trace.problem.instances()),
        "fastpath": dict(session.fastpath_stats),
        "metrics": m.to_dict(),
    }


def _sharded(w, path: str) -> dict:
    import repro.io as rio
    from repro.sharding import StreamedShardedDriver

    st = w.settings
    t0 = time.perf_counter()
    trace = rio.load_trace(path)
    driver = StreamedShardedDriver(st["shards"], st["shard_by"],
                                   processes=st["processes"],
                                   boundary="two-phase")
    t1 = time.perf_counter()
    res = driver.run(trace, w.policy, w.params, verify=True)
    t2 = time.perf_counter()
    m = res.merged
    parts = [(r.admission_log, r.eviction_log) for r in res.shard_results]
    if res.boundary_result is not None:
        parts.append((res.boundary_result.admission_log,
                      res.boundary_result.eviction_log))
    h = hashlib.sha256()
    for adm, ev in parts:
        h.update(log_digest(adm, ev, 0.0).encode())
    h.update(json.dumps(sorted(i.instance_id for i in
                               res.merged_solution.selected)).encode())
    h.update(repr(float(m.realized_profit)).encode())
    shard_events = [r.metrics.events for r in res.shard_results]
    # Events the shard and boundary sessions applied (the merged record
    # counts the trace, not what ran).
    applied = sum(shard_events) + (res.boundary_result.metrics.events
                                   if res.boundary_result else 0)
    return {
        "t0": t0, "t_end": t2, "wall_s": t2 - t0, "setup_s": t1 - t0,
        "events": applied, "realized_profit": m.realized_profit,
        "digest": h.hexdigest()[:32],
        "admits": m.accepted, "evictions": m.evictions,
        "boundary_frac": res.plan["boundary_fraction"],
        "shard_skew": (max(shard_events) * len(shard_events)
                       / max(sum(shard_events), 1)),
        "workers_rss_mb": peak_rss_mb(children=True),
    }


def cmd_rep(args) -> dict:
    w = BY_NAME[args.workload]
    # Import everything the pipeline touches before any clock starts: a
    # library user pays the import once per process, not per trace.
    import repro.io  # noqa: F401
    import repro.online  # noqa: F401
    import repro.session.kernel  # noqa: F401
    import repro.sharding  # noqa: F401

    tracer = None
    if args.spans:
        from instrument import Tracer, install

        tracer = Tracer()
        install(tracer)
    # The replay pipeline also serves the serve workload's in-process
    # reference (same trace and policy, no wire, no journal).
    pipeline = args.pipeline or w.pipeline
    run = _sharded if pipeline == "sharded" else _replay
    doc = run(w, args.trace)
    doc["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.dump(args.spans, {"window": [doc["t0"], doc["t_end"]]})
        doc["tracer"] = tracer.summary()
    return doc


def cmd_cli(args) -> dict | None:
    """Run ``repro <argv>`` with the layer tracer installed; the spans
    (from interpreter start, which the parent passes as ``--t-spawn``)
    are written to ``--spans`` when the command returns."""
    from instrument import TimedJson, TimedLines, TimedWriter, Tracer

    tracer = Tracer()
    t_main = time.perf_counter()
    if args.t_spawn:
        tracer.add("cli", "interpreter_start", args.t_spawn, t_main)
    with tracer.span("cli", "import"):
        import repro.cli
    from instrument import install
    import repro.service.server as server

    install(tracer)
    server.json = TimedJson(tracer)
    stdin = TimedLines(tracer, sys.stdin)
    stdout = TimedWriter(tracer, sys.stdout)
    sys.stdin, sys.stdout = stdin, stdout
    try:
        repro.cli.main(args.argv)
    finally:
        sys.stdin, sys.stdout = stdin.stream, stdout.stream
        tracer.dump(args.spans, {"request_bytes": stdin.bytes,
                                 "response_bytes": stdout.bytes})
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("--workload", required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--requests", default=None)
    rep = sub.add_parser("rep")
    rep.add_argument("--workload", required=True)
    rep.add_argument("--trace", required=True)
    rep.add_argument("--spans", default=None)
    rep.add_argument("--pipeline", default=None,
                     help="override the workload's pipeline (replay: the "
                          "unsharded base of a sharded workload)")
    cli = sub.add_parser("cli")
    cli.add_argument("--spans", required=True)
    cli.add_argument("--t-spawn", type=float, default=None)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.cmd == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        cmd_cli(args)
        return 0
    doc = cmd_gen(args) if args.cmd == "gen" else cmd_rep(args)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
