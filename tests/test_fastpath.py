"""Tests for the columnar batch-decision fast path.

Three contracts, each pinned property-style:

* **Byte identity** — the fast path must reproduce the scalar event
  loop bit for bit: admission and eviction logs, float-exact profit
  accumulation, policy stats (including the dual ``max_gate``
  trajectory and the preemption ``preempt_pruned`` count), final
  loads, dual certificates, journal bytes — across seeds, policies,
  batch splits, mid-stream checkpoints and shard-sliced views.
* **Mutation-aware segmentation** — a window must cut exactly at the
  first event whose footprint meets an earlier *mutator*'s (an
  admitting arrival or a release), checked against a brute-force
  reference over explicit footprint sets and mutators read off the
  scalar loop: any later cut would let a verdict read stale state, any
  earlier one wastes batching.
* **Batched ledger ops** — ``admit_many`` / ``release_many`` must be
  whole-batch atomic (a failing entry leaves no half-applied load) and
  leave the ledger in a state its own ``verify()`` accepts.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro import Demand, TreeNetwork, TreeProblem
from repro.online import (
    Arrival,
    CapacityLedger,
    Departure,
    TraceArrays,
    generate_trace,
    geometry_of,
    make_policy,
)
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
        "load": led.active._load.tobytes(),
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
                                   journal_path=str(path), fmt="binary",
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
        "load": led.active._load.tobytes(),
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
                                   journal_path=str(path), fmt="binary",
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
# Mutation-aware segmentation
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


def _segment(session, events):
    """The fast path's segmentation of ``events`` against the session's
    current ledger (nothing is committed)."""
    feeder = session._fast
    feeder._load_chunk(TraceArrays.from_events(events, feeder.geom))
    return feeder._segment(0, len(events))


def _reference_cut(ta, mutator):
    """Brute-force cut over explicit footprint sets: the first event
    whose footprint meets an earlier mutator's.  ``mutator`` holds
    per-event flags read off the scalar loop."""
    seen: set = set()
    for i in range(len(ta)):
        fp = set(ta.fp_edges[ta.fp_indptr[i]:ta.fp_indptr[i + 1]].tolist())
        if fp & seen:
            return i
        if mutator[i]:
            seen |= fp
    return len(ta)


def _scalar_mutators(session, events):
    """Dispatch ``events`` one at a time; flag each event that changed
    the ledger (an admission or a release)."""
    led = session.ledger
    mutator = []
    for ev in events:
        n_adm = len(led.admission_log)
        releases = (isinstance(ev, Departure)
                    and led.is_admitted(ev.demand_id))
        session.feed(ev)
        mutator.append(releases or len(led.admission_log) > n_adm)
    return mutator


def _check_windows(problem, events, name, windows, start=0):
    """Cut every window ``[lo, lo + w)`` of ``events`` against the
    scalar-determined reference; returns the number of cuts checked
    that fell strictly inside their window."""
    fast = AdmissionSession(problem, make_policy(name))
    scalar = AdmissionSession(problem, make_policy(name), fastpath=False)
    fast.feed_many(events[:start])
    scalar.feed_many(events[:start])
    lo = start
    inner = 0
    for w in itertools.cycle(windows):
        if lo >= len(events):
            break
        chunk = events[lo:lo + w]
        seg = _segment(fast, chunk)
        mutator = _scalar_mutators(scalar, chunk)
        ta = TraceArrays.from_events(chunk, fast._fast.geom)
        assert seg.cut == _reference_cut(ta, mutator), (lo, w)
        assert not seg.hard_events
        inner += seg.cut < len(chunk)
        fast.feed_many(chunk)
        lo += w
    assert fast.ledger.admission_log == scalar.ledger.admission_log
    return inner


class TestRunSegmenter:
    @pytest.mark.parametrize("topology", ["line", "tree"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exactly_maximal(self, topology, seed):
        trace = _trace(topology, seed=seed)
        for name in ("greedy-threshold", "dual-gated"):
            inner = _check_windows(trace.problem, trace.events, name,
                                   [64, 17, 128])
            assert inner > 0  # the traces do make cuts

    @pytest.mark.parametrize("seed", [0, 2])
    def test_exactly_maximal_on_stretches(self, seed):
        """Windows that start inside a loaded chunk: the segmenter's
        offsets into the chunk columns must line up."""
        trace = _trace("line", events=400, seed=seed)
        events = trace.events
        session = AdmissionSession(trace.problem,
                                   make_policy("greedy-threshold"))
        scalar = AdmissionSession(trace.problem,
                                  make_policy("greedy-threshold"),
                                  fastpath=False)
        feeder = session._fast
        base = 100
        session.feed_many(events[:base])
        scalar.feed_many(events[:base])
        chunk = events[base:base + 200]
        for lo, hi in [(0, 200), (5, 37), (37, 101), (101, 200)]:
            feeder._load_chunk(TraceArrays.from_events(chunk, feeder.geom))
            seg = feeder._segment(lo, hi)
            mutator = _scalar_mutators(scalar, chunk[lo:hi])
            ta = TraceArrays.from_events(chunk[lo:hi], feeder.geom)
            assert seg.cut - lo == _reference_cut(ta, mutator)
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
        """Every route is the same single edge: each admission cuts the
        next event, while a window of rejections runs through."""
        problem = _one_edge([(1.0, 0.3)] * 4)
        events = [Arrival(float(t), t % 4) for t in range(8)]
        _check_windows(problem, events, "greedy-threshold", [8])
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        assert _segment(session, events).cut == 1
        session.feed_many(events[:3])  # three admits fill 0.9 of 1.0
        # Demand 3 no longer fits, 0-2 are repeats: four rejections.
        assert _segment(session, events[3:]).cut == 5

    def test_same_demand_always_conflicts(self):
        """The sentinel pseudo-edge: two events of one demand always
        have meeting footprints, so the departure of a demand the window
        admits cuts, as does a repeated arrival after an admission."""
        trace = _trace("line", events=50, seed=3)
        geom = geometry_of(CapacityLedger(trace.problem))
        events = [Arrival(0.0, 0), Departure(1.0, 0),
                  Arrival(2.0, 0), Departure(3.0, 0)]
        ta = TraceArrays.from_events(events, geom)
        fps = [set(ta.fp_edges[ta.fp_indptr[i]:ta.fp_indptr[i + 1]]
                   .tolist()) for i in range(4)]
        assert all(a & b for a, b in itertools.combinations(fps, 2))
        session = AdmissionSession(trace.problem,
                                   make_policy("greedy-threshold"))
        seg = _segment(session, events)
        assert seg.cut == 1
        _check_windows(trace.problem, events, "greedy-threshold", [4])

    def test_disjoint_stream_is_one_run(self):
        """Arrivals of pairwise route-disjoint demands batch into one
        window (a finer split would be sound but is a regression)."""
        problem = _path([(0, 1, 1.0, 0.3), (1, 2, 1.0, 0.3),
                         (2, 3, 1.0, 0.3), (3, 4, 1.0, 0.3)])
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        events = [Arrival(float(d), d) for d in range(4)]
        assert _segment(session, events).cut == 4

    def test_non_mutator_before_a_later_mutator_stays(self):
        """A rejection read the run-entry state, which a *later*
        overlapping release does not change: no cut.  The scalar loop
        agrees (the arrival is rejected before the edge frees)."""
        problem = _one_edge([(1.0, 0.8), (1.0, 0.5)])
        events = [Arrival(0.0, 0), Arrival(1.0, 1), Departure(2.0, 0)]
        fast = AdmissionSession(problem, make_policy("greedy-threshold"))
        fast.feed_many(events[:1])
        assert _segment(fast, events[1:]).cut == 2
        _check_windows(problem, events, "greedy-threshold", [3])
        fast.feed_many(events[1:])
        scalar = _feed_events(problem, "greedy-threshold", events,
                              fastpath=False)
        assert fast.ledger.admission_log == scalar.ledger.admission_log
        assert fast.ledger.num_admitted == 0

    def test_mutator_then_overlapping_event_cuts(self):
        problem = _path([(0, 2, 1.0, 0.6), (1, 3, 1.0, 0.6),
                         (3, 4, 1.0, 0.6)])
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        events = [Arrival(0.0, 0), Arrival(1.0, 1), Arrival(2.0, 2)]
        seg = _segment(session, events)
        assert seg.cut == 1  # demand 1 shares edge (1, 2) with demand 0
        _check_windows(problem, events, "greedy-threshold", [3])

    def test_arrival_and_departure_of_one_demand(self):
        """The departure of a demand the window admits meets the
        admission (the sentinel edge): it cuts, and the next window,
        evaluated after the admit is committed, releases it."""
        problem = _path([(0, 2, 1.0, 0.6), (2, 4, 1.0, 0.6)])
        events = [Arrival(0.0, 0), Departure(1.0, 0), Arrival(2.0, 1)]
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        seg = _segment(session, events)
        assert seg.cut == 1 and not seg.rel
        session.feed_many(events)
        assert session.fastpath_stats["runs"] == 2
        assert session.ledger.admission_log == [
            (0, int(session.ledger.candidates(0)[0])),
            (1, int(session.ledger.candidates(1)[0]))]
        assert not session.ledger.is_admitted(0)
        session.ledger.verify()

    def test_departure_of_never_admitted_demand(self):
        """A departure of a demand never in the system changes nothing:
        not a mutator, so a later overlapping admission stays in the
        run."""
        problem = _one_edge([(1.0, 0.5), (1.0, 0.5)])
        events = [Departure(0.0, 1), Arrival(1.0, 0), Arrival(2.0, 1)]
        session = AdmissionSession(problem, make_policy("greedy-threshold"))
        seg = _segment(session, events)
        assert seg.cut == 2 and not seg.rel
        _check_windows(problem, events, "greedy-threshold", [3])

    @pytest.mark.parametrize("profit,preempts", [(2.0, False), (5.0, True)])
    def test_hard_arrival(self, profit, preempts):
        """An arrival whose plan reaches the eviction walk is hard: the
        scalar dispatcher decides it.  Rejected after the walk, it
        changed nothing and the window runs on past it; preempting, it
        cuts the window at the next event that meets what it changed."""
        problem = _path([(0, 1, 1.0, 0.3), (0, 1, 1.0, 0.3),
                         (0, 1, profit, 0.9), (2, 3, 1.0, 0.3),
                         (0, 1, 1.0, 0.1), (3, 4, 1.0, 0.3)])
        events = [Arrival(float(d), d) for d in range(6)]
        fast = AdmissionSession(problem, make_policy("preempt-density"))
        fast.feed_many(events[:2])
        seg = _segment(fast, events[2:])
        assert seg.hard_events == [0]
        before = dict(fast.fastpath_stats)
        fast.feed_many(events[2:])
        scalar = _feed_events(problem, "preempt-density", events,
                              fastpath=False)
        assert _preempt_sig(fast) == _preempt_sig(scalar)
        assert (fast.ledger.num_evicted == 2) == preempts
        after = fast.fastpath_stats
        assert after["scalar_fallbacks"] - before["scalar_fallbacks"] == 1
        assert after["batched_events"] - before["batched_events"] == 3
        # Rejected: one window decides every later event; preempting:
        # demand 4 meets the route it took, so a second window starts.
        assert after["runs"] - before["runs"] == (2 if preempts else 1)


# ----------------------------------------------------------------------
# Batched ledger ops: atomicity + verify() cross-check
# ----------------------------------------------------------------------


def _ledger_state(led):
    return (led.active._load.tobytes(), sorted(led._admitted.items()),
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
            if ledger.active.blocked(iid):
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
