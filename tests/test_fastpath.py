"""Tests for the columnar batch-decision fast path.

Three contracts, each pinned property-style:

* **Byte identity** — the fast path must reproduce the scalar event
  loop bit for bit: admission logs, float-exact profit accumulation,
  policy stats (including the dual ``max_gate`` trajectory), final
  loads, dual certificates, journal bytes — across seeds, policies,
  batch splits and shard-sliced views.
* **Exact-maximal segmentation** — :func:`conflict_free_runs` must cut
  exactly at the first footprint overlap: any finer split is sound but
  wastes batching, any coarser split would reorder conflicting
  decisions.
* **Batched ledger ops** — ``admit_many`` / ``release_many`` must be
  whole-batch atomic (a failing entry leaves no half-applied load) and
  leave the ledger in a state its own ``verify()`` accepts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Demand, TreeNetwork, TreeProblem
from repro.online import (
    CapacityLedger,
    TraceArrays,
    conflict_free_runs,
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
# Exact-maximal run segmentation
# ----------------------------------------------------------------------


def _reference_runs(ta, lo, hi):
    """Brute-force greedy segmentation over explicit footprint sets:
    cut exactly when an event's footprint intersects the running
    union.  The definitional reference the vectorized segmenter must
    match run for run."""
    indptr = ta.fp_indptr
    runs = []
    start = lo
    seen: set = set()
    for i in range(lo, hi):
        fp = set(ta.fp_edges[indptr[i]:indptr[i + 1]].tolist())
        if seen & fp:
            runs.append((start, i))
            start = i
            seen = set()
        seen |= fp
    runs.append((start, hi))
    return runs


class TestRunSegmenter:
    @pytest.mark.parametrize("topology", ["line", "tree"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exactly_maximal(self, topology, seed):
        trace = _trace(topology, seed=seed)
        geom = geometry_of(CapacityLedger(trace.problem))
        ta = TraceArrays.from_events(trace.events, geom)
        got = conflict_free_runs(ta)
        assert got == _reference_runs(ta, 0, len(ta))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_exactly_maximal_on_stretches(self, seed):
        """The segmenter is called on sub-stretches between unbatchable
        events; maximality must hold for arbitrary [lo, hi)."""
        trace = _trace("line", events=400, seed=seed)
        geom = geometry_of(CapacityLedger(trace.problem))
        ta = TraceArrays.from_events(trace.events, geom)
        n = len(ta)
        for lo, hi in [(0, n), (1, n - 1), (n // 3, 2 * n // 3),
                       (5, 6), (0, 1)]:
            assert conflict_free_runs(ta, lo, hi) == \
                _reference_runs(ta, lo, hi)

    def test_shard_sliced_views(self):
        trace = _trace("tree", seed=9)
        plan = ShardPlanner("subtree").plan(trace.problem, 2)
        for s in range(2):
            sub = plan.subtrace(s, trace)
            if not sub.events:
                continue
            geom = geometry_of(CapacityLedger(sub.problem))
            ta = TraceArrays.from_events(sub.events, geom)
            assert conflict_free_runs(ta) == _reference_runs(ta, 0, len(ta))

    def test_single_edge_degenerate_routes(self):
        """Every route is the same single edge: every pair of demand
        events conflicts, so every run has length exactly one."""
        from repro.online.events import Arrival

        net = TreeNetwork(2, [(0, 1)], network_id=0)
        problem = TreeProblem(
            n=2, networks=[net],
            demands=[Demand(i, 0, 1, 1.0, height=0.3) for i in range(4)],
        )
        geom = geometry_of(CapacityLedger(problem))
        events = [Arrival(float(t), t % 4) for t in range(8)]
        ta = TraceArrays.from_events(events, geom)
        runs = conflict_free_runs(ta)
        assert runs == [(i, i + 1) for i in range(8)]
        assert runs == _reference_runs(ta, 0, len(ta))

    def test_same_demand_always_conflicts(self):
        """The sentinel pseudo-edge: an arrival and departure of one
        demand must never share a run even if its route is empty-ish or
        conflicts with nothing else."""
        from repro.online.events import Arrival, Departure

        trace = _trace("line", events=50, seed=3)
        geom = geometry_of(CapacityLedger(trace.problem))
        events = [Arrival(0.0, 0), Departure(1.0, 0),
                  Arrival(2.0, 0), Departure(3.0, 0)]
        ta = TraceArrays.from_events(events, geom)
        assert conflict_free_runs(ta) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_disjoint_stream_is_one_run(self):
        """Arrivals of pairwise route-disjoint demands batch into one
        maximal run (a finer split would be sound but is a regression)."""
        from repro.online.events import Arrival

        net = TreeNetwork(5, [(0, 1), (1, 2), (2, 3), (3, 4)],
                          network_id=0)
        problem = TreeProblem(
            n=5, networks=[net],
            demands=[Demand(0, 0, 1, 1.0, height=0.3),
                     Demand(1, 1, 2, 1.0, height=0.3),
                     Demand(2, 2, 3, 1.0, height=0.3),
                     Demand(3, 3, 4, 1.0, height=0.3)],
        )
        geom = geometry_of(CapacityLedger(problem))
        events = [Arrival(float(d), d) for d in range(4)]
        ta = TraceArrays.from_events(events, geom)
        assert conflict_free_runs(ta) == [(0, 4)]


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
