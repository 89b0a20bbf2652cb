"""Tests for the columnar batch-decision fast path.

Three contracts, each pinned property-style:

* **Byte identity** — the fast path must reproduce the scalar event
  loop bit for bit: admission and eviction logs, float-exact profit
  accumulation, policy stats (including the dual ``max_gate``
  trajectory and the preemption ``preempt_pruned`` count), final
  loads, dual certificates, journal bytes — across seeds, policies,
  batch splits, mid-stream checkpoints and shard-sliced views.
* **Conflict-closure windows** — a window must commit exactly the
  events its conflict closure clears, checked against a brute-force
  reference over explicit read, write and holder-route sets read off
  the scalar loop, for every kernel: committing more would let a
  verdict read stale state, committing less wastes batching.
* **Batched ledger ops** — ``admit_many`` / ``release_many`` must be
  whole-batch atomic (a failing entry leaves no half-applied load) and
  leave the ledger in a state its own ``verify()`` accepts.
"""

from __future__ import annotations

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest

from repro import Demand, TreeNetwork, TreeProblem
from repro.online import (
    Arrival,
    CapacityLedger,
    Departure,
    EventView,
    TraceArrays,
    generate_trace,
    geometry_of,
    make_policy,
)
from repro.online import fastpath as fastpath_module
from repro.online.events import ARRIVAL
from repro.session.kernel import AdmissionSession, certificate_of
from repro.sharding.planner import ShardPlanner

POLICIES = [
    ("greedy-threshold", {}),
    ("greedy-threshold", {"threshold": 0.5}),
    ("dual-gated", {}),
    ("dual-gated", {"eta": 0.5}),
]


def _trace(topology="line", events=1500, seed=0, **kw):
    wl = {"n_slots": 256} if topology == "line" else {"n": 256}
    return generate_trace(topology, events=events, process="poisson",
                          seed=seed, departure_prob=0.35, workload=wl, **kw)


def _signature(session, policy_name):
    """Everything decision-dependent about a finished feed, bit-exact."""
    led = session.ledger
    sig = {
        "log": list(led.admission_log),
        "profit": led._profit_admitted.hex(),
        "stats": dict(session.policy.stats),
        "admitted": sorted(led._admitted.items()),
        "load": led.load.tobytes(),
        "ever": sorted(led._ever_admitted),
    }
    if policy_name == "dual-gated":
        sig["cert"] = repr(certificate_of(session))
    return sig


def _feed_sig(trace, policy_name, params, *, fastpath, splits=None):
    policy = make_policy(policy_name, **params)
    session = AdmissionSession(trace.problem, policy,
                               trace_meta=trace.meta, fastpath=fastpath)
    events = trace.events
    if splits is None:
        session.feed_many(events)
    else:
        lo = 0
        for size in splits:
            session.feed_many(events[lo:lo + size])
            lo += size
        session.feed_many(events[lo:])
    sig = _signature(session, policy_name)
    session.close(verify=True)
    return sig


# ----------------------------------------------------------------------
# Byte identity
# ----------------------------------------------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("policy_name,params", POLICIES)
    @pytest.mark.parametrize("topology", ["line", "tree"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replay_identity(self, topology, seed, policy_name, params):
        trace = _trace(topology, seed=seed)
        scalar = _feed_sig(trace, policy_name, params, fastpath=False)
        fast = _feed_sig(trace, policy_name, params, fastpath=True)
        assert fast == scalar

    @pytest.mark.parametrize("policy_name,params",
                             [("greedy-threshold", {}), ("dual-gated", {})])
    def test_batch_split_invariance(self, policy_name, params):
        """Identical bytes no matter how the stream is chopped into
        feed_many calls (chunk boundaries are forced run boundaries —
        a finer split, which must not change a single decision)."""
        trace = _trace("line", seed=4)
        ref = _feed_sig(trace, policy_name, params, fastpath=False)
        for splits in ([1, 2, 3, 5, 8], [7] * 50, [1] * 40, [900]):
            got = _feed_sig(trace, policy_name, params,
                            fastpath=True, splits=splits)
            assert got == ref, f"splits {splits[:5]}... diverged"

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("policy_name,params",
                             [("greedy-threshold", {}), ("dual-gated", {})])
    def test_shard_sliced_views(self, shards, policy_name, params):
        """The fast path is byte-identical on shard-sliced subproblems
        (densified demand ids, sliced conflict index) — the exact views
        the streamed sharded driver feeds."""
        trace = _trace("tree", seed=5)
        plan = ShardPlanner("subtree").plan(trace.problem, shards)
        for s in range(shards):
            sub = plan.subtrace(s, trace)
            if not sub.events:
                continue
            scalar = _feed_sig(sub, policy_name, params, fastpath=False)
            fast = _feed_sig(sub, policy_name, params, fastpath=True)
            assert fast == scalar, f"shard {s}/{shards} diverged"

    def test_journal_bytes_stable(self, tmp_path):
        """The service's journal writes the same bytes whether or not
        the session engages the fast path (events are journaled before
        any state changes; checkpoints snapshot identical decisions)."""
        from repro.io import event_to_dict
        from repro.service import AdmissionService

        trace = _trace("line", events=600, seed=6)
        dicts = [event_to_dict(ev) for ev in trace.events]
        paths = {}
        for label, force_scalar in (("fast", False), ("scalar", True)):
            path = tmp_path / f"{label}.bin"
            svc = AdmissionService(trace, "greedy-threshold",
                                   journal_path=str(path),
                                   checkpoint_every=200)
            if force_scalar:
                svc.session._fast = None
            for i in range(0, len(dicts), 64):
                resp = svc.handle({"op": "feed",
                                   "events": dicts[i:i + 64]})
                assert resp["ok"], resp
            svc.close(verify=True)
            paths[label] = path
        assert paths["fast"].read_bytes() == paths["scalar"].read_bytes()

    def test_fastpath_engages_and_counts(self):
        trace = _trace("line", seed=7)
        policy = make_policy("greedy-threshold")
        session = AdmissionSession(trace.problem, policy,
                                   trace_meta=trace.meta, fastpath=True)
        session.feed_many(trace.events)
        stats = session.fastpath_stats
        assert stats["enabled"]
        assert stats["runs"] > 0
        assert stats["batched_events"] > 0
        assert stats["max_run_len"] >= 2
        assert (stats["batched_events"] + stats["scalar_fallbacks"]
                == len(trace.events))
        session.close(verify=True)

    def test_scalar_session_reports_disabled(self):
        trace = _trace("line", events=200, seed=7)
        policy = make_policy("greedy-threshold")
        session = AdmissionSession(trace.problem, policy,
                                   trace_meta=trace.meta, fastpath=False)
        session.feed_many(trace.events)
        stats = session.fastpath_stats
        assert not stats["enabled"]
        assert stats["runs"] == 0 and stats["batched_events"] == 0
        session.close(verify=True)

    def test_failed_scalar_fallback_leaves_the_scalar_state(self):
        """An arrival of an unknown demand mid-chunk raises on both
        paths; the events before it must be counted the same way, so
        the fast path's chunk counters flush before the error leaves."""
        trace = _trace("line", events=200, seed=7)
        kind = trace.events.kind[:40].copy()
        demand = trace.events.demand[:40].copy()
        kind[20], demand[20] = ARRIVAL, 10 ** 6
        events = EventView(kind, trace.events.time[:40], demand)
        states = []
        for fastpath in (True, False):
            session = AdmissionSession(trace.problem,
                                       make_policy("greedy-threshold"),
                                       fastpath=fastpath)
            with pytest.raises(KeyError):
                session.feed_many(events)
            states.append((session.snapshot(),
                           list(session.ledger.admission_log),
                           list(session.ledger.eviction_log)))
        assert states[0][0]["events"] == 20
        assert states[0][1]  # the events before the error did admit
        assert states[0] == states[1]

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_non_event_rejects_the_batch_whole(self, fastpath):
        trace = _trace("line", events=200, seed=7)
        session = AdmissionSession(trace.problem,
                                   make_policy("greedy-threshold"),
                                   fastpath=fastpath)
        before = (session.snapshot(), session.ledger.export_state())
        batch = (list(trace.events[:20]) + [object()]
                 + list(trace.events[20:40]))
        with pytest.raises(TypeError,
                           match=r"^events\[20\]: unknown event type object$"):
            session.feed_many(batch)
        assert (session.snapshot(), session.ledger.export_state()) == before

    def test_history_policy_stays_scalar(self):
        """dual-gated with history snapshots must not engage (the batch
        kernel cannot reproduce per-event history)."""
        trace = _trace("line", events=200, seed=8)
        policy = make_policy("dual-gated", history=True)
        session = AdmissionSession(trace.problem, policy,
                                   trace_meta=trace.meta, fastpath=True)
        session.feed_many(trace.events)
        assert not session.fastpath_stats["enabled"]
        session.close(verify=True)


# ----------------------------------------------------------------------
# preempt-density: the batch kernel against the scalar loop
# ----------------------------------------------------------------------


PREEMPT_GRID = [
    {"factor": f, "penalty": p, "threshold": t}
    for f, p, t in itertools.product((0.8, 1.2, 2.0), (0.0, 0.5),
                                     (0.0, 0.5))
]


def _preempt_sig(session):
    """Everything decision-dependent about a preemptive feed."""
    led = session.ledger
    return {
        "log": list(led.admission_log),
        "evictions": list(led.eviction_log),
        "admitted": led._profit_admitted.hex(),
        "forfeited": led._profit_forfeited.hex(),
        "penalty": led._penalty_paid.hex(),
        "stats": dict(session.policy.stats),
        "load": led.load.tobytes(),
        "cheapest": led._cheapest.tobytes(),
    }


def _preempt_run(trace, params, *, fastpath, splits=None):
    session = AdmissionSession(trace.problem,
                               make_policy("preempt-density", **params),
                               trace_meta=trace.meta, fastpath=fastpath)
    events = trace.events
    step = splits or len(events) or 1
    for lo in range(0, len(events), step):
        session.feed_many(events[lo:lo + step])
    sig = _preempt_sig(session)
    session.close(verify=True)
    return sig, session.fastpath_stats


def test_hard_arrivals_stay_in_the_kernel():
    """A fixed 10k-event line trace under ``preempt-density``: the
    kernel decides the arrivals that must evict as well, so only a
    handful of lone leftovers reach the scalar dispatcher, and every
    decision equals the scalar run's.  It counts events, not time."""
    trace = generate_trace("line", events=10_000, process="poisson",
                           seed=1, departure_prob=0.35,
                           workload={"n_slots": 1250})
    params = {"factor": 1.2}
    scalar, _ = _preempt_run(trace, params, fastpath=False)
    fast, fp = _preempt_run(trace, params, fastpath=True)
    assert fast == scalar
    assert fast["stats"]["preempt_admits"] > 100
    assert fp["scalar_fallbacks"] <= 10, fp


class TestPreemptDensityIdentity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("topology", ["line", "tree"])
    def test_replay_identity(self, topology, seed):
        """The whole parameter grid, fast against scalar, bit for bit;
        the kernel really decides (most events batched)."""
        trace = _trace(topology, events=500, seed=seed)
        for params in PREEMPT_GRID:
            scalar, _ = _preempt_run(trace, params, fastpath=False)
            fast, fp = _preempt_run(trace, params, fastpath=True)
            assert fast == scalar, params
            assert fp["enabled"]
            assert (fp["batched_events"] + fp["scalar_fallbacks"]
                    == len(trace.events))
            assert fp["batched_events"] > len(trace.events) // 2

    @pytest.mark.parametrize("topology", ["line", "tree"])
    def test_batch_split_invariance(self, topology):
        trace = _trace(topology, events=800, seed=4)
        params = {"factor": 1.2, "penalty": 0.5, "threshold": 0.0}
        ref, _ = _preempt_run(trace, params, fastpath=False)
        for step in (1, 7, 64, None):
            got, _ = _preempt_run(trace, params, fastpath=True, splits=step)
            assert got == ref, f"feed_many step {step} diverged"

    @pytest.mark.parametrize("topology", ["line", "tree"])
    def test_mid_stream_export_restore(self, topology):
        """A checkpoint taken mid-stream (JSON round trip) restores into
        a fresh fast session that finishes bit-identically."""
        trace = _trace(topology, events=800, seed=5)
        params = {"factor": 1.2, "penalty": 0.5, "threshold": 0.5}
        ref, _ = _preempt_run(trace, params, fastpath=False)
        events = trace.events
        half = len(events) // 2
        first = AdmissionSession(trace.problem,
                                 make_policy("preempt-density", **params),
                                 trace_meta=trace.meta)
        first.feed_many(events[:half])
        ckpt = json.loads(json.dumps({
            "ledger": first.ledger.export_state(),
            "policy": first.policy.export_state(),
            "counters": first.export_counters(),
        }))
        second = AdmissionSession(trace.problem,
                                  make_policy("preempt-density", **params),
                                  trace_meta=trace.meta)
        second.restore_counters(ckpt["counters"])
        second.ledger.restore_state(ckpt["ledger"])
        second.policy.restore_state(ckpt["policy"])
        second.feed_many(events[half:])
        assert _preempt_sig(second) == ref
        second.close(verify=True)

    def test_journal_bytes_stable(self, tmp_path):
        from repro.io import event_to_dict
        from repro.service import AdmissionService

        trace = _trace("line", events=600, seed=6)
        dicts = [event_to_dict(ev) for ev in trace.events]
        paths = {}
        for label, force_scalar in (("fast", False), ("scalar", True)):
            path = tmp_path / f"{label}.bin"
            svc = AdmissionService(trace, "preempt-density",
                                   params={"factor": 1.2},
                                   journal_path=str(path),
                                   checkpoint_every=200)
            if force_scalar:
                svc.session._fast = None
            else:
                assert svc.session._fast is not None
            for i in range(0, len(dicts), 64):
                resp = svc.handle({"op": "feed",
                                   "events": dicts[i:i + 64]})
                assert resp["ok"], resp
            svc.close(verify=True)
            paths[label] = path
        assert paths["fast"].read_bytes() == paths["scalar"].read_bytes()

    def test_service_reports_the_window_counters(self):
        """``stats`` echoes every fast-path counter, ``discarded``
        included, and exports each as a ``repro_fastpath_*`` gauge."""
        from repro.io import event_to_dict
        from repro.service import AdmissionService

        trace = _trace("line", events=400, seed=2)
        svc = AdmissionService(trace, "preempt-density")
        svc.handle({"op": "feed", "events": [event_to_dict(ev)
                                             for ev in trace.events]})
        stats = svc.stats()
        fp = stats["fastpath"]
        assert fp["discarded"] > 0
        assert fp["batched_events"] + fp["scalar_fallbacks"] == 400
        for key in ("runs", "batched_events", "scalar_fallbacks",
                    "discarded"):
            gauge = stats["metrics"][f"repro_fastpath_{key}_total"]
            assert gauge["value"] == fp[key]
        svc.close(verify=True)

    def test_bulk_rejects_count_pruned_candidates(self):
        """One edge, full: the arrival's only candidate is hot with a
        holder whose profit prunes it, so the kernel rejects it in bulk
        with exactly the scalar ``preempt_pruned`` increment."""
        problem = _one_edge([(3.0, 0.5), (6.0, 0.9), (1.0, 0.2)])
        events = [Arrival(0.0, 0), Arrival(1.0, 1), Arrival(2.0, 2)]
        fast = _feed_events(problem, "preempt-density", events,
                            factor=2.0)
        scalar = _feed_events(problem, "preempt-density", events,
                              factor=2.0, fastpath=False)
        assert fast.policy.stats == scalar.policy.stats
        assert fast.policy.stats["preempt_pruned"] == 1
        assert fast.fastpath_stats["scalar_fallbacks"] == 0


# ----------------------------------------------------------------------
# Conflict-closure windows
# ----------------------------------------------------------------------


def _one_edge(demands):
    """A two-vertex tree whose every demand ``(profit, height)`` routes
    over its single edge."""
    net = TreeNetwork(2, [(0, 1)], network_id=0)
    return TreeProblem(
        n=2, networks=[net],
        demands=[Demand(d, 0, 1, p, height=h)
                 for d, (p, h) in enumerate(demands)],
    )


def _path(demands):
    """A path ``0 - 1 - ... - 4``; demands are ``(u, v, profit,
    height)``."""
    net = TreeNetwork(5, [(0, 1), (1, 2), (2, 3), (3, 4)], network_id=0)
    return TreeProblem(
        n=5, networks=[net],
        demands=[Demand(d, u, v, p, height=h)
                 for d, (u, v, p, h) in enumerate(demands)],
    )


def _feed_events(problem, name, events, fastpath=True, **params):
    session = AdmissionSession(problem, make_policy(name, **params),
                               fastpath=fastpath)
    session.feed_many(events)
    return session


def _closure(session, events, lo=0, hi=None, rounds=None):
    """The fast path's split of ``events[lo:hi]``, evaluated as one
    window against the session's current ledger (nothing is
    committed): the offsets it commits, from ``lo``.  The closure runs
    at most ``rounds`` rounds (default: as many as it needs)."""
    feeder = session._fast
    feeder._load_chunk(TraceArrays.from_events(EventView.of(events),
                                               feeder.geom))
    hi = len(events) if hi is None else hi
    win = np.arange(lo, hi, dtype=np.int64)
    with mock.patch.object(fastpath_module, "MAX_ROUNDS", rounds or len(win) + 1):
        later = set(feeder._closure(win).later.tolist())
    return [i - lo for i in win.tolist() if i not in later]


def _routes(led, iid, demand):
    """An admitted instance's route edges plus its demand's sentinel."""
    return set(led._route_edge_list(iid)) | {led.index.num_edges + demand}


def _reference_closure(scalar, events, geom, params):
    """Brute-force closure over explicit sets, the events dispatched one
    at a time through ``scalar`` (a scalar session at the window's entry
    state).  Each event's read set is its footprint (plus its victims'
    routes and sentinels); its write set, where the scalar loop changed
    the ledger (an admission, a release, a preemption), its footprint
    plus its victims' routes and sentinels.  In event order, an event
    meeting the dirty set is deferred and dirties its footprint — and a ``preempt-density`` arrival the routes
    and sentinels of the entry-time holders of its footprint edges whose
    profit times the gate is below one of its candidates' (above the
    density floor) — else it is committed and dirties its writes.
    Returns the committed offsets."""
    led = scalar.ledger
    E = geom.num_edges
    holders = [set(h) for h in led._holders_by_edge]
    admitted = dict(led._admitted)
    ever = set(led._ever_admitted)
    policy = scalar.policy
    ta = TraceArrays.from_events(EventView.of(events), geom)
    dirty: set = set()
    committed = []
    for i, ev in enumerate(events):
        footprint = set(ta.fp_edges[ta.fp_indptr[i]:ta.fp_indptr[i + 1]]
                        .tolist())
        adm0, ev0 = len(led.admission_log), len(led.eviction_log)
        gone = (isinstance(ev, Departure)
                and led.admitted_instance(ev.demand_id) is not None)
        scalar.feed(ev)
        victims: set = set()
        for d, iid in led.eviction_log[ev0:]:
            victims |= _routes(led, iid, d)
        writes = (footprint | victims
                  if gone or len(led.admission_log) > adm0 else set())
        if (footprint | victims) & dirty:
            dirty |= footprint
            if policy.name == "preempt-density" and isinstance(
                    ev, Arrival) and ev.demand_id not in ever:
                gate = policy.factor + policy.penalty
                top = max((led._profit[c] for c in
                           led.candidates(ev.demand_id).tolist()
                           if led._profit[c] / led.route_length(c)
                           >= policy.threshold), default=-math.inf)
                for e in footprint:
                    for h in (holders[e] if e < E else ()):
                        if gate * led._profit[admitted[h]] < top:
                            dirty |= _routes(led, admitted[h], h)
        else:
            committed.append(i)
            dirty |= writes
    return committed


def _check_windows(problem, events, name, windows, start=0, params=None,
                   rounds=None):
    """Split every window ``[lo, lo + w)`` of ``events`` and compare the
    committed set with the brute-force closure; returns how many events
    the windows deferred.

    With ``rounds=None`` the closure runs every round it needs and must
    commit exactly the brute-force set.  With a round cap, the last
    round cuts the window at its first deferral: the committed set is
    the brute-force set up to its last member."""
    params = params or {}
    fast = AdmissionSession(problem, make_policy(name, **params))
    scalar = AdmissionSession(problem, make_policy(name, **params),
                              fastpath=False)
    fast.feed_many(events[:start])
    scalar.feed_many(events[:start])
    geom = fast._fast.geom
    lo = start
    deferred = 0
    for w in itertools.cycle(windows):
        if lo >= len(events):
            break
        chunk = events[lo:lo + w]
        got = _closure(fast, chunk, rounds=rounds)
        ref = _reference_closure(scalar, chunk, geom, params)
        if rounds is None:
            assert got == ref, (lo, w)
        else:
            assert got and got == [i for i in ref if i <= got[-1]], (lo, w)
        deferred += len(chunk) - len(got)
        fast.feed_many(chunk)
        lo += w
    assert fast.ledger.admission_log == scalar.ledger.admission_log
    assert fast.ledger.eviction_log == scalar.ledger.eviction_log
    return deferred


class TestRunSegmenter:
    @pytest.mark.parametrize("topology", ["line", "tree"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exactly_maximal(self, topology, seed):
        trace = _trace(topology, seed=seed)
        for name, params in (("greedy-threshold", {}), ("dual-gated", {}),
                             ("preempt-density", {"factor": 1.2}),
                             ("preempt-density", {"factor": 0.8,
                                                  "penalty": 0.5,
                                                  "threshold": 0.5})):
            deferred = _check_windows(trace.problem, trace.events, name,
                                      [64, 17, 128], params=params)
            assert deferred > 0  # the traces do defer events

    @pytest.mark.parametrize("rounds", [1, 2, fastpath_module.MAX_ROUNDS])
    @pytest.mark.parametrize("topology", ["line", "tree"])
    def test_round_cap_cuts_at_its_first_deferral(self, topology, rounds):
        """A capped closure commits the exact closure up to the cut, and
        the windows still decide every event as the scalar loop does."""
        trace = _trace(topology, seed=4)
        for name, params in (("greedy-threshold", {}), ("dual-gated", {}),
                             ("preempt-density", {"factor": 1.2})):
            _check_windows(trace.problem, trace.events, name, [128, 33],
                           params=params, rounds=rounds)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_exactly_maximal_on_stretches(self, seed):
        """Windows that start inside a loaded chunk: the closure's
        offsets into the chunk columns must line up."""
        trace = _trace("line", events=400, seed=seed)
        events = trace.events
        session = AdmissionSession(trace.problem,
                                   make_policy("preempt-density"))
        scalar = AdmissionSession(trace.problem,
                                  make_policy("preempt-density"),
                                  fastpath=False)
        geom = session._fast.geom
        base = 100
        session.feed_many(events[:base])
        scalar.feed_many(events[:base])
        chunk = events[base:base + 200]
        for lo, hi in [(0, 200), (5, 37), (37, 101), (101, 200)]:
            got = _closure(session, chunk, lo, hi)
            ref = _reference_closure(scalar, chunk[lo:hi], geom, {})
            assert got == ref, (lo, hi)
            session.feed_many(chunk[lo:hi])

    def test_shard_sliced_views(self):
        trace = _trace("tree", seed=9)
        plan = ShardPlanner("subtree").plan(trace.problem, 2)
        for s in range(2):
            sub = plan.subtrace(s, trace)
            if sub.events:
                _check_windows(sub.problem, sub.events, "greedy-threshold",
                               [64, 9])

    def test_single_edge_degenerate_routes(self):
        """Every route is the same single edge: an admission defers
        every later event, while rejections commit."""
        problem = _one_edge([(1.0, 0.3)] * 4)
        events = [Arrival(float(t), t % 4) for t in range(8)]
        _check_windows(problem, events, "greedy-threshold", [8])
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        assert _closure(session, events) == [0]
        session.feed_many(events[:3])  # three admits fill 0.9 of 1.0
        # Demand 3 no longer fits, 0-2 are repeats: five rejections.
        assert _closure(session, events[3:]) == [0, 1, 2, 3, 4]

    def test_same_demand_always_conflicts(self):
        """The sentinel pseudo-edge: two events of one demand always
        have meeting footprints, so the departure of a demand the window
        admits is deferred, as is a repeated arrival after it."""
        trace = _trace("line", events=50, seed=3)
        geom = geometry_of(CapacityLedger(trace.problem))
        events = [Arrival(0.0, 0), Departure(1.0, 0),
                  Arrival(2.0, 0), Departure(3.0, 0)]
        ta = TraceArrays.from_events(EventView.of(events), geom)
        fps = [set(ta.fp_edges[ta.fp_indptr[i]:ta.fp_indptr[i + 1]]
                   .tolist()) for i in range(4)]
        assert all(a & b for a, b in itertools.combinations(fps, 2))
        session = AdmissionSession(trace.problem,
                                   make_policy("greedy-threshold"))
        assert _closure(session, events) == [0]
        _check_windows(trace.problem, events, "greedy-threshold", [4])

    def test_disjoint_stream_is_one_run(self):
        """Arrivals of pairwise route-disjoint demands all commit in one
        window (a finer split would be sound but is a regression)."""
        problem = _path([(0, 1, 1.0, 0.3), (1, 2, 1.0, 0.3),
                         (2, 3, 1.0, 0.3), (3, 4, 1.0, 0.3)])
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        events = [Arrival(float(d), d) for d in range(4)]
        assert _closure(session, events) == [0, 1, 2, 3]

    def test_non_mutator_before_a_later_mutator_stays(self):
        """A rejection read the entry state, which a *later* overlapping
        release does not change: both commit.  The scalar loop agrees
        (the arrival is rejected before the edge frees)."""
        problem = _one_edge([(1.0, 0.8), (1.0, 0.5)])
        events = [Arrival(0.0, 0), Arrival(1.0, 1), Departure(2.0, 0)]
        fast = AdmissionSession(problem, make_policy("greedy-threshold"))
        fast.feed_many(events[:1])
        assert _closure(fast, events[1:]) == [0, 1]
        _check_windows(problem, events, "greedy-threshold", [3])
        fast.feed_many(events[1:])
        scalar = _feed_events(problem, "greedy-threshold", events,
                              fastpath=False)
        assert fast.ledger.admission_log == scalar.ledger.admission_log
        assert fast.ledger.num_admitted == 0

    def test_mutator_then_overlapping_event_cuts(self):
        """Demand 1 shares edge (1, 2) with the admitted demand 0 and is
        deferred; demand 2 meets neither demand 0's route nor demand 1's
        footprint, so it commits past the deferred event."""
        problem = _path([(0, 2, 1.0, 0.6), (1, 3, 1.0, 0.6),
                         (3, 4, 1.0, 0.6)])
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        events = [Arrival(0.0, 0), Arrival(1.0, 1), Arrival(2.0, 2)]
        assert _closure(session, events) == [0, 2]
        _check_windows(problem, events, "greedy-threshold", [3])

    def test_deferred_event_defers_what_meets_its_footprint(self):
        """A deferred event dirties its whole footprint: demand 2 meets
        only the deferred demand 1, and is deferred too."""
        problem = _path([(0, 2, 1.0, 0.6), (1, 3, 1.0, 0.6),
                         (2, 4, 1.0, 0.3)])
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        events = [Arrival(0.0, 0), Arrival(1.0, 1), Arrival(2.0, 2)]
        assert _closure(session, events) == [0]
        _check_windows(problem, events, "greedy-threshold", [3])

    def test_arrival_and_departure_of_one_demand(self):
        """The departure of a demand the window admits meets the
        admission (the sentinel edge): it is deferred, and the next
        window, evaluated after the admit is committed, releases it."""
        problem = _path([(0, 2, 1.0, 0.6), (2, 4, 1.0, 0.6)])
        events = [Arrival(0.0, 0), Departure(1.0, 0), Arrival(2.0, 1)]
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        assert _closure(session, events) == [0, 2]
        session.feed_many(events)
        # One window, then the lone deferred event goes to the scalar
        # dispatcher.
        assert session.fastpath_stats["runs"] == 1
        assert session.fastpath_stats["discarded"] == 1
        assert session.fastpath_stats["scalar_fallbacks"] == 1
        assert session.ledger.admission_log == [
            (0, int(session.ledger.candidates(0)[0])),
            (1, int(session.ledger.candidates(1)[0]))]
        assert not session.ledger.is_admitted(0)
        session.ledger.verify()

    def test_departure_of_never_admitted_demand(self):
        """A departure of a demand never in the system changes nothing,
        so a later overlapping admission commits with it."""
        problem = _one_edge([(1.0, 0.5), (1.0, 0.5)])
        events = [Departure(0.0, 1), Arrival(1.0, 0), Arrival(2.0, 1)]
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        assert _closure(session, events) == [0, 1]
        _check_windows(problem, events, "greedy-threshold", [3])

    @pytest.mark.parametrize("profit,preempts", [(2.0, False), (5.0, True)])
    def test_hard_arrival(self, profit, preempts):
        """An arrival whose plan reaches the eviction walk is hard: the
        kernel walks and commits it.  Rejected after the walk, it
        changed nothing; preempting, it defers the later event that
        meets what it changed, and the events past it still commit."""
        problem = _path([(0, 1, 1.0, 0.3), (0, 1, 1.0, 0.3),
                         (0, 1, profit, 0.9), (2, 3, 1.0, 0.3),
                         (0, 1, 1.0, 0.1), (3, 4, 1.0, 0.3)])
        events = [Arrival(float(d), d) for d in range(6)]
        fast = AdmissionSession(problem, make_policy("preempt-density"))
        fast.feed_many(events[:2])
        assert _closure(fast, events[2:]) == ([0, 1, 3] if preempts
                                              else [0, 1, 2, 3])
        before = dict(fast.fastpath_stats)
        fast.feed_many(events[2:])
        scalar = _feed_events(problem, "preempt-density", events,
                              fastpath=False)
        assert _preempt_sig(fast) == _preempt_sig(scalar)
        assert (fast.ledger.num_evicted == 2) == preempts
        after = fast.fastpath_stats
        assert after["scalar_fallbacks"] - before["scalar_fallbacks"] == (
            1 if preempts else 0)
        assert after["batched_events"] - before["batched_events"] == (
            3 if preempts else 4)
        assert after["runs"] - before["runs"] == 1

    @pytest.mark.parametrize("order", [[2, 3, 4, 5], [3, 2, 5, 4]])
    def test_failed_preemption_probe_stops_where_the_scalar_loop_does(
            self, order, monkeypatch):
        """Should a preempting route not fit once its victims are gone
        (the walk's deficits and the post-eviction loads round
        differently), the scalar loop evicts the victims and its
        admission raises.  The fast path commits the events before the
        arrival and hands it to the scalar dispatcher, so at the error
        the ledger, its logs and its profits are the scalar loop's.
        Demand 2 preempts demands 0 and 1; demand 3 commits before it
        in the second order, and demands 4 and 5 come after it."""
        problem = _path([(0, 1, 1.0, 0.3), (0, 1, 1.0, 0.3),
                         (0, 1, 5.0, 0.9), (2, 3, 1.0, 0.3),
                         (0, 1, 1.0, 0.1), (3, 4, 1.0, 0.3)])
        events = [Arrival(float(t), d)
                  for t, d in enumerate([0, 1] + order)]
        target = int(CapacityLedger(problem).candidates(2)[0])
        admit = CapacityLedger.admit

        def admit_but_target(self, iid):
            if iid == target:
                raise ValueError(f"instance {iid} no longer fits the "
                                 f"residual capacity")
            admit(self, iid)

        monkeypatch.setattr(CapacityLedger, "admit", admit_but_target)
        monkeypatch.setattr(
            fastpath_module.FastFeeder, "_misfit",
            lambda self, cl: next((int(cl.plan.event[cl.i0 + a])
                                   for a, move in cl.c_mov
                                   if move[0] == target), None))
        sessions = []
        for fast in (True, False):
            session = AdmissionSession(problem,
                                       make_policy("preempt-density"),
                                       fastpath=fast)
            session.feed_many(events[:2])
            with pytest.raises(ValueError, match="no longer fits"):
                session.feed_many(events[2:])
            sessions.append(session)
        fast, scalar = sessions
        assert _preempt_sig(fast) == _preempt_sig(scalar)
        assert fast.ledger._evicted == scalar.ledger._evicted == {0, 1}
        assert not fast.ledger.is_admitted(2)
        assert fast.ledger.is_admitted(3) == (order[0] == 3)
        fast.ledger.verify()

    def test_deferred_arrival_dirties_the_routes_it_may_evict(self):
        """A deferred ``preempt-density`` arrival may evict any holder of
        its footprint once evaluated again, so it dirties their routes.

        V (demand 0, on (0, 2)) holds edges (0, 1) and (1, 2) before the
        window.  Demand 1 fits on (2, 3) and dirties it; demand 2, worth
        far more, meets that and is deferred — evaluated again, it
        evicts V and demand 1.  Demand 3 on (0, 1) is blocked by V at
        window entry (and its plan pruned), but the scalar loop admits
        it once V is gone: it must be deferred, though its footprint
        meets neither demand 1's write nor demand 2's footprint."""
        problem = _path([(0, 2, 1.0, 0.6), (2, 3, 1.0, 0.5),
                         (1, 3, 5.0, 0.6), (0, 1, 0.5, 0.6)])
        events = [Arrival(float(d), d) for d in range(4)]
        fast = AdmissionSession(problem, make_policy("preempt-density"))
        fast.feed_many(events[:1])
        assert _closure(fast, events[1:]) == [0]
        fast.feed_many(events[1:])
        scalar = _feed_events(problem, "preempt-density", events,
                              fastpath=False)
        assert _preempt_sig(fast) == _preempt_sig(scalar)
        assert [d for d, _ in fast.ledger.eviction_log] == [0, 1]
        assert fast.ledger.is_admitted(3)
        _check_windows(problem, events, "preempt-density", [1, 3])


# ----------------------------------------------------------------------
# Batched ledger ops: atomicity + verify() cross-check
# ----------------------------------------------------------------------


def _ledger_state(led):
    return (led.load.tobytes(), sorted(led._admitted.items()),
            list(led.admission_log), led._profit_admitted.hex())


class TestBatchedLedgerOps:
    def _disjoint_batch(self, ledger, k=8):
        """Up to ``k`` admissible instances with pairwise-disjoint
        routes and distinct demands (the admit_many contract)."""
        taken: set = set()
        batch = []
        for d in range(ledger.problem.num_demands):
            if len(batch) >= k:
                break
            cands = ledger.candidates(d)
            if not len(cands):
                continue
            iid = int(cands[0])
            route = set(ledger.index.edge_ids(iid).tolist())
            if route & taken or not route:
                continue
            if not ledger.feasible([iid])[0]:
                continue
            taken |= route
            batch.append((d, iid))
        return batch

    def test_admit_many_then_verify(self):
        trace = _trace("line", events=100, seed=11)
        ledger = CapacityLedger(trace.problem)
        batch = self._disjoint_batch(ledger)
        assert len(batch) >= 2
        ledger.admit_many([iid for _, iid in batch])
        ledger.verify()
        for d, iid in batch:
            assert ledger.is_admitted(d)
            assert ledger.admitted_instance(d) == iid

    def test_release_many_then_verify(self):
        trace = _trace("line", events=100, seed=11)
        ledger = CapacityLedger(trace.problem)
        batch = self._disjoint_batch(ledger)
        ledger.admit_many([iid for _, iid in batch])
        released = [d for d, _ in batch[::2]]
        ledger.release_many(released)
        ledger.verify()
        for d in released:
            assert not ledger.is_admitted(d)
            assert ledger.was_admitted(d)
        for d, _ in batch[1::2]:
            assert ledger.is_admitted(d)

    def test_admit_many_matches_scalar_admits(self):
        """One batched admit == the same admits one at a time, bit for
        bit (loads, logs, profit float sequence)."""
        trace = _trace("line", events=100, seed=12)
        batch = self._disjoint_batch(CapacityLedger(trace.problem))
        iids = [iid for _, iid in batch]
        led_batch = CapacityLedger(trace.problem)
        led_batch.admit_many(iids)
        led_scalar = CapacityLedger(trace.problem)
        for iid in iids:
            led_scalar.admit(iid)
        assert _ledger_state(led_batch) == _ledger_state(led_scalar)

    def test_admit_many_rejects_duplicate_demand_atomically(self):
        trace = _trace("line", events=100, seed=13)
        ledger = CapacityLedger(trace.problem)
        batch = self._disjoint_batch(ledger)
        d0, iid0 = batch[0]
        ledger.admit(iid0)
        before = _ledger_state(ledger)
        with pytest.raises(ValueError, match="already admitted"):
            ledger.admit_many([iid for _, iid in batch])
        assert _ledger_state(ledger) == before
        ledger.verify()

    def test_admit_many_rejects_infeasible_atomically(self):
        """A mid-batch capacity failure must leave no half-applied
        load: the single-edge problem is saturated first, then a batch
        whose later entry no longer fits is rejected whole."""
        net = TreeNetwork(2, [(0, 1)], network_id=0)
        problem = TreeProblem(
            n=2, networks=[net],
            demands=[Demand(i, 0, 1, 1.0, height=0.6) for i in range(3)],
        )
        ledger = CapacityLedger(problem)
        cand = {d: int(ledger.candidates(d)[0]) for d in range(3)}
        ledger.admit(cand[0])  # load 0.6 of 1.0
        before = _ledger_state(ledger)
        # Demand 1 alone would fit nothing (0.6 + 0.6 > 1), so the
        # batch [1, 2] must fail validation and change nothing.
        with pytest.raises(ValueError, match="no longer fits"):
            ledger.admit_many([cand[1], cand[2]])
        assert _ledger_state(ledger) == before
        ledger.verify()

    def test_release_many_rejects_unknown_atomically(self):
        trace = _trace("line", events=100, seed=14)
        ledger = CapacityLedger(trace.problem)
        batch = self._disjoint_batch(ledger)
        ledger.admit_many([iid for _, iid in batch])
        before = _ledger_state(ledger)
        bogus = [batch[0][0], 10_000_000]
        with pytest.raises(KeyError, match="not admitted"):
            ledger.release_many(bogus)
        assert _ledger_state(ledger) == before
        ledger.verify()


# ----------------------------------------------------------------------
# The dual certificate cache
# ----------------------------------------------------------------------


@pytest.mark.parametrize("history", [False, True])
def test_certificate_cache_tracks_every_input(history, monkeypatch):
    """``price_certificate`` recomputes only when the peaks, snapshots
    or (with history) live loads moved, and its ``upper_bound`` is
    bit-identical to a fresh computation after feeds, releases and a
    restore."""
    from repro.online.policies import DualGated

    trace = _trace("tree", events=600, seed=4)
    events = trace.events
    session = AdmissionSession(trace.problem,
                               make_policy("dual-gated", history=history))
    policy = session.policy
    calls = []
    certify = DualGated._certify
    monkeypatch.setattr(DualGated, "_certify",
                        lambda self: calls.append(1) or certify(self))

    def fresh(pol):
        return certify(pol)["upper_bound"].hex()

    session.feed_many(events[:300])
    first = policy.price_certificate()
    assert policy.price_certificate() == first
    assert len(calls) == 1  # served from the cache
    assert first["upper_bound"].hex() == fresh(policy)
    # A release moves only the live loads: the peak bound stands, the
    # history bound is recomputed.
    held = next(iter(session.ledger._admitted))
    session.ledger.release(held)
    assert policy.price_certificate()["upper_bound"].hex() == fresh(policy)
    assert len(calls) == (2 if history else 1)
    session.feed_many(events[300:])
    cert = policy.price_certificate()
    assert cert["upper_bound"].hex() == fresh(policy)
    restored = AdmissionSession(trace.problem,
                                make_policy("dual-gated", history=history))
    restored.ledger.restore_state(json.loads(json.dumps(
        session.ledger.export_state())))
    restored.policy.restore_state(json.loads(json.dumps(
        policy.export_state())))
    again = restored.policy.price_certificate()
    assert again == cert
    assert again["upper_bound"].hex() == fresh(restored.policy)
