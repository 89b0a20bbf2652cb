"""Online admission-control throughput benchmark.

Replays seeded Poisson traces of 10k and 100k events (2k in smoke mode)
through each admission policy — non-preemptive and preemptive alike —
and records events/second, per-event latency percentiles, acceptance,
realized profit, and for the preemptive policies eviction counts,
forfeited profit and penalty-adjusted profit.  Results are written as
JSON (``BENCH_online.json``) so later changes can track the online hot
path the way ``BENCH_hotpath.json`` tracks the offline one.

The batch-resolve policy runs with the ``greedy`` registry solver at a
1024-arrival cadence — the exact solver is an offline benchmark, not a
throughput policy.  Verification of the final admitted set stays ON:
feasibility checking is part of the work a production admission layer
cannot skip.

A second table tracks the **service layer**: the same trace is pushed
through :class:`~repro.service.AdmissionService` one request/response
round trip at a time — once without a journal and once journaling every
event to a temp file — and compared against the in-process replay, so
the dict-protocol and write-ahead-journal overheads are tracked
explicitly.

An **observability** row replays the same trace with the flight
recorder off and on (interleaved, best-of-N) and records
``obs_overhead_ratio`` — the CI smoke gate fails above 1.25×, keeping
the always-compiled-in instrumentation honest about its cost.  (The
columnar fast path cut the converged overhead from ~1.10× to ~1.03×,
but it also cut the smoke replay under 20ms, where shared CI runners
cannot resolve better than ±10–15%; the gate is sized to catch real
instrumentation regressions, which cost 1.5× and up.)

A third table tracks the **sharded admission engine**: one Poisson
tree trace with a targeted boundary fraction (the shard-aware
``boundary_fraction`` workload knob) is replayed through
:class:`~repro.sharding.StreamedShardedDriver` at 1/2/4 shards and
through the unsharded :func:`~repro.online.replay`, each timed end to
end around the public call.  ``vs_unsharded`` is the sharded / unsharded
wall-time ratio (above 1 means sharding is slower on this host).  The
modeled critical path (slowest shard replay plus the serialized absorb
hand-off and boundary phase) is kept as a labelled secondary column.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_online.py [--smoke] [-o OUT]
"""

from __future__ import annotations

import argparse
import json
import sys

POLICIES = [
    ("greedy-threshold", {}),
    ("dual-gated", {}),
    ("batch-resolve", {"solver": "greedy", "resolve_every": 1024}),
    ("preempt-density", {"factor": 1.2}),
    ("preempt-dual-gated", {"penalty": 0.1}),
]


#: Policies with a registered columnar batch kernel: these rows run
#: twice (fast path on and off, interleaved best-of-N) and report the
#: on/off speedup the CI gate tracks.
FASTPATH_POLICIES = {"greedy-threshold", "dual-gated", "preempt-density"}

#: Interleaved repetitions for the fastpath on/off cells (both sides
#: measured back to back inside each rep, so machine drift cancels).
FASTPATH_REPS = 3


def run_online_bench(smoke: bool = False, out_path: str | None = None) -> dict:
    """Run every policy over every trace size; return the report dict."""
    from repro.online import generate_trace, make_policy, replay

    sizes = [2_000] if smoke else [10_000, 100_000]
    report: dict = {"smoke": smoke, "cases": {}}
    scalar_total = fast_total = 0.0
    for events in sizes:
        trace = generate_trace(
            "line", events=events, process="poisson", seed=0,
            departure_prob=0.35,
            # Scale the timeline with the stream so the benchmark keeps
            # exercising admissions, not just saturated-reject probes.
            workload={"n_slots": max(512, events // 8)},
        )
        case: dict = {
            "events": len(trace.events),
            "arrivals": trace.num_arrivals,
            "departures": trace.num_departures,
            "instances": len(trace.problem.instances()),
            "policies": {},
        }
        for name, kwargs in POLICIES:
            if name in FASTPATH_POLICIES:
                # Fast path on vs off, interleaved: decisions are
                # byte-identical, so the off row is purely the scalar
                # baseline cost of the same stream.
                result = scalar = None
                fast_s = scalar_s = float("inf")
                for _ in range(FASTPATH_REPS):
                    r = replay(trace, make_policy(name, **kwargs),
                               fastpath=True)
                    if r.metrics.elapsed_s < fast_s:
                        fast_s, result = r.metrics.elapsed_s, r
                    r = replay(trace, make_policy(name, **kwargs),
                               fastpath=False)
                    if r.metrics.elapsed_s < scalar_s:
                        scalar_s, scalar = r.metrics.elapsed_s, r
                scalar_total += scalar_s
                fast_total += fast_s
            else:
                result, scalar = replay(trace, make_policy(name, **kwargs)), None
            m = result.metrics
            case["policies"][name] = {
                "events_per_sec": m.events_per_sec,
                "elapsed_s": m.elapsed_s,
                "accepted": m.accepted,
                "acceptance_ratio": m.acceptance_ratio,
                "realized_profit": m.realized_profit,
                "evictions": m.evictions,
                "forfeited_profit": m.forfeited_profit,
                "penalty_paid": m.penalty_paid,
                "penalty_adjusted_profit": m.penalty_adjusted_profit,
                "latency_p50_us": m.latency_p50_us,
                "latency_p99_us": m.latency_p99_us,
            }
            if scalar is not None:
                sm = scalar.metrics
                case["policies"][name].update({
                    "scalar_events_per_sec": sm.events_per_sec,
                    "fastpath_speedup": (sm.elapsed_s / m.elapsed_s
                                         if m.elapsed_s > 0 else None),
                })
                assert sm.accepted == m.accepted
                assert sm.realized_profit == m.realized_profit
        report["cases"][str(events)] = case
    # The headline the CI gate tracks: aggregate scalar / fast feed
    # time over the full corpus (every kernel policy at every size) —
    # per-cell ratios ride in the rows above.
    report["fastpath_speedup_ratio"] = (
        scalar_total / fast_total if fast_total > 0 else None)
    report["service"] = run_service_bench(smoke=smoke)
    report["obs"] = run_obs_overhead_bench(smoke=smoke)
    report["sharding"] = run_sharding_bench(smoke=smoke)
    report["serving"] = run_concurrent_clients_bench(smoke=smoke)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
    return report


#: Batch size of the ``feed`` op rows (matches run_remaining's default).
FEED_BATCH = 256

#: Group-commit window of the fast-durability rows.
SYNC_WINDOW = 64


def run_service_bench(smoke: bool = False) -> dict:
    """Sustained request/response throughput vs in-process replay.

    Every event crosses the service's dict protocol; journaled rows
    additionally write-ahead-log each event to a temp file.  The
    ``overhead`` ratios are (in-process rate) / (service rate) — how
    much the request/response framing and the journal cost on top of
    the raw kernel.  The rows walk the durability fast path one
    optimization at a time: JSON-lines journal committed per record
    (the PR-5 baseline), the binary codec, a group-commit window, and
    finally the batched ``feed`` op — whose ratio is recorded as
    ``journal_overhead_ratio``, the number the CI gate tracks
    (target <= 2.0x, fail > 2.5x).  The gate was 1.5x when the
    in-process denominator was the scalar event loop (~65k ev/s, ratio
    1.22x); the columnar fast path tripled the denominator while the
    batched-feed row "only" doubled (journal fsync + codec are
    per-batch fixed costs the kernel speedup cannot shrink), so the
    same serving path now measures ~1.7x.  The gate is re-anchored to
    that baseline — it still catches a journaling regression, which
    moves the ratio multiplicatively.

    A ``resume`` section times the warm restart against the same
    journal three ways — full-history replay, checkpoint + tail, and
    compacted — showing restart cost proportional to the
    post-checkpoint tail, not total journal length.
    """
    import os
    import tempfile
    import time

    from repro.io import event_to_dict, scan_journal
    from repro.online import generate_trace, make_policy, replay
    from repro.service import AdmissionService

    events = 2_000 if smoke else 20_000
    reps = 3  # best-of-N: the rates here gate CI, so damp scheduler noise
    trace = generate_trace(
        "line", events=events, process="poisson", seed=0,
        departure_prob=0.35, workload={"n_slots": max(512, events // 8)},
    )
    event_dicts = [event_to_dict(ev) for ev in trace.events]
    submit_reqs = [{"op": "submit", "event": d} for d in event_dicts]
    feed_reqs = [{"op": "feed", "events": event_dicts[i:i + FEED_BATCH]}
                 for i in range(0, len(event_dicts), FEED_BATCH)]
    configs = [
        ("service", False, {}, submit_reqs),
        ("service+journal", True, {}, submit_reqs),
        ("service+journal-binary", True, {"fmt": "binary"}, submit_reqs),
        ("service+group-commit", True,
         {"fmt": "binary", "sync_window": SYNC_WINDOW}, submit_reqs),
        ("service+batched-feed", True,
         {"fmt": "binary", "sync_window": SYNC_WINDOW}, feed_reqs),
    ]
    out: dict = {
        "events": len(trace.events),
        "policy": "greedy-threshold",
        "feed_batch": FEED_BATCH,
        "sync_window": SYNC_WINDOW,
        "reps": reps,
        "rows": [],
    }
    # Interleave the baseline and every config within each rep (rather
    # than measuring them minutes apart) so machine-load drift hits all
    # rows of a rep equally and best-of-N compares like with like.
    base_rate = 0.0
    rates = {label: 0.0 for label, *_ in configs}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(reps):
            base_rate = max(
                base_rate,
                replay(trace,
                       make_policy("greedy-threshold")).metrics.events_per_sec,
            )
            for i, (label, journaled, kwargs, requests) in enumerate(configs):
                journal = (os.path.join(tmp, f"bench-{i}-{rep}.journal")
                           if journaled else None)
                svc = AdmissionService(trace, "greedy-threshold",
                                       journal_path=journal, **kwargs)
                # Time the request loop itself: sustained throughput,
                # not per-run setup/teardown.
                t0 = time.perf_counter()
                for req in requests:
                    resp = svc.handle(req)
                    assert resp["ok"], resp
                dt = time.perf_counter() - t0
                results[label] = svc.close()
                rates[label] = max(rates[label], len(trace.events) / dt)
    out["in_process_events_per_sec"] = base_rate
    for label, *_ in configs:
        rate = rates[label]
        out["rows"].append({
            "mode": label,
            "events_per_sec": rate,
            "overhead": base_rate / rate if rate > 0 else None,
            "accepted": results[label].metrics.accepted,
            "realized_profit": results[label].metrics.realized_profit,
        })
    out["journal_overhead_ratio"] = out["rows"][-1]["overhead"]

    # Warm-restart cost: full replay vs checkpoint + tail vs compacted.
    def build(path: str, checkpoint_every: int = 0) -> None:
        svc = AdmissionService(trace, "greedy-threshold", journal_path=path,
                               fmt="binary", sync_window=SYNC_WINDOW,
                               checkpoint_every=checkpoint_every)
        # Feed in wire-sized batches so checkpoints land on cadence
        # (a checkpoint fires after the batch that crosses it).
        for i in range(0, len(trace.events), FEED_BATCH):
            svc.feed_events(trace.events[i:i + FEED_BATCH])
        svc.journal.close()  # no session close: the killed-writer shape

    resume_rows = []
    with tempfile.TemporaryDirectory() as tmp:
        # A single checkpoint at the 3/4 mark leaves a quarter-length
        # tail — between full replay (whole history) and compacted
        # (empty tail), showing resume cost tracks the tail.
        three_quarters = max((3 * len(trace.events)) // 4, 1)
        shapes = [("full-replay", 0, False),
                  ("checkpoint+tail", three_quarters, False),
                  ("compacted", 0, True)]
        for label, every, compacted in shapes:
            path = os.path.join(tmp, f"{label}.journal")
            build(path, checkpoint_every=every)
            if compacted:
                AdmissionService.compact(path)
            _h, ckpt, tail, _g, _f = scan_journal(path)
            t0 = time.perf_counter()
            svc = AdmissionService.resume(path)
            dt = time.perf_counter() - t0
            assert svc.position == len(trace.events)
            svc.journal.close()
            resume_rows.append({
                "mode": label,
                "tail_events": len(tail),
                "checkpointed": ckpt is not None,
                "resume_s": dt,
            })
    out["resume"] = {"events": len(trace.events), "rows": resume_rows}
    return out


def run_obs_overhead_bench(smoke: bool = False) -> dict:
    """Flight-recorder overhead on the in-process hot path.

    The same greedy-threshold replay, observability off vs on
    (recorder enabled, every decision / admit / evict span landing in
    the ring), interleaved within each rep and best-of-N so machine
    drift hits both rows equally.  ``obs_overhead_ratio`` is
    (obs-off rate) / (obs-on rate); the CI smoke gate fails above
    1.25x — instrumentation this cheap is the license to leave it
    compiled into the hot path.  The converged ratio on a quiet
    machine is ~1.03x (chunk-aggregated batch spans); the gate sits
    well above that because the fast path's ~15ms smoke replay is at
    the scheduler-jitter floor of shared runners, where paired
    measurements swing ±10-15% — a real instrumentation regression
    (per-event span recording in the kernel loop, unconditional args
    construction) costs 1.5x and up and still trips it.
    """
    from repro.obs import tracing
    from repro.online import generate_trace, make_policy, replay

    events = 2_000 if smoke else 20_000
    # The columnar fast path cut the smoke rep to ~15ms, which is down
    # in scheduler-jitter territory on small CI machines; best-of-3 was
    # no longer enough to converge and the 1.05x gate got flaky.  More
    # interleaved reps — each side sampled back to back — keeps the
    # best-of estimate honest without lengthening the full run much.
    reps = 15 if smoke else 5
    trace = generate_trace(
        "line", events=events, process="poisson", seed=0,
        departure_prob=0.35, workload={"n_slots": max(512, events // 8)},
    )
    off_rate = on_rate = 0.0
    spans = 0
    try:
        for _ in range(reps):
            tracing.disable()
            off_rate = max(
                off_rate,
                replay(trace,
                       make_policy("greedy-threshold")).metrics.events_per_sec,
            )
            tracing.enable()
            tracing.RECORDER.clear()
            on_rate = max(
                on_rate,
                replay(trace,
                       make_policy("greedy-threshold")).metrics.events_per_sec,
            )
            spans = tracing.RECORDER.total
    finally:
        tracing.disable()
        tracing.RECORDER.clear()
    return {
        "events": len(trace.events),
        "policy": "greedy-threshold",
        "reps": reps,
        "spans_recorded": spans,
        "obs_off_events_per_sec": off_rate,
        "obs_on_events_per_sec": on_rate,
        "obs_overhead_ratio": off_rate / on_rate if on_rate > 0 else None,
    }


#: Sharding benchmark trace: demands confined to the balancer-cut parts
#: with a directly targeted boundary (cut-crossing) fraction — the
#: shard-aware workload knob — so the scaling rows control the variable
#: that actually prices the serialized boundary phase.
SHARDING_TRACE = dict(kind="tree", process="poisson", seed=0,
                      departure_prob=0.3,
                      workload={"n": 768, "boundary_fraction": 0.05,
                                "parts": 4})


def run_sharding_bench(smoke: bool = False) -> dict:
    """Sharded vs unsharded replay on the Poisson tree trace, end to end.

    Every rate is total events over the wall time of the whole public
    call (:meth:`~repro.sharding.StreamedShardedDriver.run` with its
    plan, stream split, shared geometry build, shard workers, absorb,
    boundary pass and verify; :func:`~repro.online.replay` with its
    ledger build and verify), best of 2 per cell.
    ``critical_path_events_per_sec`` is the modeled rate of a
    deployment with one core per shard, not a measurement.
    """
    import time

    from repro.online import generate_trace, make_policy, replay
    from repro.sharding import StreamedShardedDriver

    events = 4_000 if smoke else 20_000
    spec = dict(SHARDING_TRACE)
    kind = spec.pop("kind")
    trace = generate_trace(kind, events=events, **spec)
    reps = 2

    def best_wall(run):
        best, result = float("inf"), None
        for _ in range(reps):
            t0 = time.perf_counter()
            res = run()
            dt = time.perf_counter() - t0
            if dt < best:
                best, result = dt, res
        return best, result

    base_s, _ = best_wall(
        lambda: replay(trace, make_policy("greedy-threshold")))
    out: dict = {
        "trace": {"kind": kind, "events": len(trace.events), **{
            k: v for k, v in spec.items() if k != "workload"
        }, "workload": spec["workload"]},
        "target_boundary_fraction":
            spec["workload"].get("boundary_fraction"),
        "policy": "greedy-threshold",
        "unsharded_wall_events_per_sec": len(trace.events) / base_s,
        "note": ("wall rates are total events / wall time of the whole "
                 "public call; vs_unsharded is sharded / unsharded wall "
                 "time; critical_path_events_per_sec is modeled"),
        "rows": [],
    }
    for shards in (1, 2, 4):
        wall_s, res = best_wall(
            lambda: StreamedShardedDriver(shards, "subtree").run(
                trace, "greedy-threshold", {}))
        out["rows"].append({
            "shards": shards,
            "wall_events_per_sec": len(trace.events) / wall_s,
            "vs_unsharded": wall_s / base_s,
            "critical_path_events_per_sec":
                res.critical_path_events_per_sec,
            "boundary_demands": res.plan["boundary_demands"],
            "boundary_fraction": res.plan["boundary_fraction"],
            "local_demands": res.plan["local_demands"],
            "accepted": res.merged.accepted,
            "realized_profit": res.merged.realized_profit,
        })
    return out


#: Concurrent-clients benchmark grid: front-door fan-in.
CLIENT_COUNTS = (1, 8, 64)


def run_concurrent_clients_bench(smoke: bool = False) -> dict:
    """Async front-door throughput: N concurrent clients, one service.

    Each cell starts an :class:`~repro.service.async_server.
    AsyncLineServer` over a journaled service (binary codec, group
    commit) and drives it with N concurrent TCP clients, each feeding
    its demand-partitioned slice of the trace in batched ``feed``
    requests.  ``wall_events_per_sec`` is total events over the
    first-request-to-last-response wall time — the number that shows
    one event loop sustaining many pipelined clients without falling
    over (the per-event work is the same shared session either way).
    """
    import os
    import socket
    import tempfile
    import threading
    import time

    from repro.io import event_to_dict
    from repro.online import generate_trace
    from repro.service import AdmissionService, AsyncLineServer

    events = 2_000 if smoke else 8_000
    spec = dict(SHARDING_TRACE)
    kind = spec.pop("kind")
    trace = generate_trace(kind, events=events, **spec)
    feed_batch = 64
    out: dict = {
        "events": len(trace.events),
        "policy": "greedy-threshold",
        "feed_batch": feed_batch,
        "journal": {"fmt": "binary", "sync_window": SYNC_WINDOW},
        "rows": [],
    }

    def partition(n: int) -> list[list]:
        streams: list[list] = [[] for _ in range(n)]
        for ev in trace.events:
            d = getattr(ev, "demand_id", None)
            streams[0 if d is None else d % n].append(ev)
        return [[{"op": "feed",
                  "events": [event_to_dict(e) for e in s[i:i + feed_batch]]}
                 for i in range(0, len(s), feed_batch)]
                for s in streams]

    for clients in CLIENT_COUNTS:
        with tempfile.TemporaryDirectory() as tmp:
            svc = AdmissionService(
                trace, "greedy-threshold",
                journal_path=os.path.join(tmp, "bench.journal"),
                fmt="binary", sync_window=SYNC_WINDOW)
            box: dict = {}
            ready = threading.Event()
            server = AsyncLineServer(
                svc, max_clients=clients + 8,
                announce=lambda a: (box.update(addr=a), ready.set()))
            st = threading.Thread(target=server.serve_forever,
                                  daemon=True)
            st.start()
            ready.wait(10)
            requests = partition(clients)

            def run_client(reqs):
                import json as _json
                sock = socket.create_connection(box["addr"], timeout=60)
                f = sock.makefile("rw", encoding="utf-8")
                for req in reqs:
                    f.write(_json.dumps(req) + "\n")
                    f.flush()
                    resp = _json.loads(f.readline())
                    assert resp["ok"], resp
                sock.close()

            threads = [threading.Thread(target=run_client, args=(r,))
                       for r in requests]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            dt = time.perf_counter() - t0
            server.request_shutdown()
            st.join(10)
            out["rows"].append({
                "clients": clients,
                "wall_events_per_sec": len(trace.events) / dt,
                "requests": sum(len(r) for r in requests),
            })
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="one small trace, seconds instead of minutes")
    ap.add_argument("-o", "--output", default="BENCH_online.json")
    ap.add_argument("--check-overhead", action="store_true",
                    help="exit nonzero if the journaled fast path "
                         "(binary + group commit + batched feed) runs "
                         "slower than 2.5x the in-process replay rate, "
                         "the enabled flight recorder costs the "
                         "in-process hot path more than 25%, or the "
                         "columnar batch fast path fails to beat the "
                         "scalar event loop (speedup below 1.0x)")
    args = ap.parse_args(argv)
    report = run_online_bench(smoke=args.smoke, out_path=args.output)
    for events, case in report["cases"].items():
        print(f"{events} events ({case['arrivals']} arrivals, "
              f"{case['instances']} instances):")
        for name, rec in case["policies"].items():
            line = (f"  {name:<19} {rec['events_per_sec']:>9.0f} ev/s  "
                    f"acc {100 * rec['acceptance_ratio']:.1f}%  "
                    f"profit {rec['realized_profit']:.1f}  ")
            if rec.get("evictions"):
                line += (f"evict {rec['evictions']}  "
                         f"adj {rec['penalty_adjusted_profit']:.1f}  ")
            line += f"p99 {rec['latency_p99_us']:.0f}µs"
            if "fastpath_speedup" in rec:
                line += (f"  scalar {rec['scalar_events_per_sec']:>9.0f} "
                         f"ev/s  fastpath x{rec['fastpath_speedup']:.2f}")
            print(line)
    fp_ratio = report["fastpath_speedup_ratio"]
    print(f"fastpath_speedup_ratio x{fp_ratio:.2f} "
          f"(aggregate scalar/fast feed time over the kernel-policy "
          f"corpus; target >= 3.0, gate at 1.0)")
    service = report["service"]
    print(f"service ({service['events']} events, "
          f"{service['in_process_events_per_sec']:.0f} ev/s in-process):")
    for row in service["rows"]:
        print(f"  {row['mode']:<24} {row['events_per_sec']:>9.0f} ev/s  "
              f"overhead x{row['overhead']:.2f}")
    ratio = service["journal_overhead_ratio"]
    print(f"  journal_overhead_ratio x{ratio:.2f} "
          f"(fast path vs in-process; target <= 2.0, gate at 2.5)")
    print("resume (warm restart of "
          f"{service['resume']['events']} journaled events):")
    for row in service["resume"]["rows"]:
        print(f"  {row['mode']:<16} tail {row['tail_events']:>6} events  "
              f"{1e3 * row['resume_s']:>8.1f} ms")
    obs = report["obs"]
    obs_ratio = obs["obs_overhead_ratio"]
    print(f"obs ({obs['events']} events, {obs['spans_recorded']} spans): "
          f"off {obs['obs_off_events_per_sec']:.0f} ev/s  "
          f"on {obs['obs_on_events_per_sec']:.0f} ev/s  "
          f"obs_overhead_ratio x{obs_ratio:.3f} (gate at 1.25)")
    sharding = report["sharding"]
    print(f"sharding ({sharding['trace']['events']} events, poisson tree, "
          f"{sharding['unsharded_wall_events_per_sec']:.0f} ev/s unsharded "
          f"wall):")
    for row in sharding["rows"]:
        print(f"  shards={row['shards']}  wall "
              f"{row['wall_events_per_sec']:>9.0f} ev/s  "
              f"vs unsharded x{row['vs_unsharded']:.2f} wall time  "
              f"boundary {100 * row['boundary_fraction']:.1f}%  "
              f"modeled critical path "
              f"{row['critical_path_events_per_sec']:.0f} ev/s")
    serving = report["serving"]
    print(f"serving ({serving['events']} events via the async front "
          f"door, batched feed, binary journal):")
    for row in serving["rows"]:
        print(f"  clients={row['clients']:<3}  "
              f"wall {row['wall_events_per_sec']:>9.0f} ev/s")
    print(f"written to {args.output}")
    if args.check_overhead and ratio > 2.5:
        print(f"FAIL: journal_overhead_ratio x{ratio:.2f} exceeds the "
              f"2.5x gate", file=sys.stderr)
        return 1
    if args.check_overhead and obs_ratio > 1.25:
        print(f"FAIL: obs_overhead_ratio x{obs_ratio:.3f} exceeds the "
              f"1.25x gate", file=sys.stderr)
        return 1
    if args.check_overhead and fp_ratio < 1.0:
        print(f"FAIL: fastpath_speedup_ratio x{fp_ratio:.2f} below the "
              f"1.0x gate (batch kernels slower than the scalar loop)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
