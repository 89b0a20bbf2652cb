"""Overhead gates: the relative costs the project commits to.

Each test runs two configurations of the same work back to back per
repetition (so machine drift hits both alike), keeps the best time of
each, and asserts one ratio.  End-to-end wall time, from trace file to
result, is measured by ``perfbench/``.
"""

from __future__ import annotations

import functools
import itertools
import time

import numpy as np

from repro.core.conflict import ConflictIndex
from repro.core.duals import DualState
from repro.distributed.mis import greedy_mis
from repro.io import event_to_dict
from repro.obs import tracing
from repro.online import generate_trace, make_policy, replay
from repro.service import AdmissionService
from repro.session.kernel import AdmissionSession
from repro.workloads import random_line_problem, random_tree_problem

import helpers


@functools.cache
def _trace(events: int):
    """Poisson line events on a timeline that grows with the stream, so
    the replay keeps admitting instead of rejecting a saturated line."""
    return generate_trace("line", events=events, process="poisson", seed=0,
                          departure_prob=0.35,
                          workload={"n_slots": max(512, events // 8)})


def _best(reps: int, **sides) -> dict:
    """Best-of-``reps`` seconds per side; each side is a callable that
    returns the seconds it measured, and all sides run once per rep."""
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(reps):
        for name, run in sides.items():
            best[name] = min(best[name], run())
    return best


def _replay_s(trace, name="greedy-threshold", params=None, **kw) -> float:
    return replay(trace, make_policy(name, **(params or {})),
                  **kw).metrics.elapsed_s


def test_fastpath_beats_scalar_loop():
    """Aggregate scalar / fast feed time over the kernel policies on 10k
    events (at 2k ``preempt-density`` alone sits at ~1.0x)."""
    trace, fast, scalar = _trace(10_000), 0.0, 0.0
    for name, params in (("greedy-threshold", {}), ("dual-gated", {}),
                         ("preempt-density", {"factor": 1.2})):
        best = _best(3, fast=lambda: _replay_s(trace, name, params),
                     scalar=lambda: _replay_s(trace, name, params,
                                              fastpath=False))
        fast += best["fast"]
        scalar += best["scalar"]
    assert scalar / fast >= 1.0, f"fast path x{scalar / fast:.2f}"


def test_flight_recorder_overhead():
    trace = _trace(10_000)

    def timed(on: bool) -> float:
        tracing.enable() if on else tracing.disable()
        tracing.RECORDER.clear()
        return _replay_s(trace)

    try:
        best = _best(7, off=lambda: timed(False), on=lambda: timed(True))
    finally:
        tracing.disable()
        tracing.RECORDER.clear()
    ratio = best["on"] / best["off"]
    assert ratio <= 1.25, f"obs_overhead_ratio x{ratio:.3f}"


def test_journaled_feed_overhead(tmp_path):
    """Binary journal, 64-record group commit, 256-event ``feed``
    batches vs in-process replay, on the 10k-event trace: the service's
    per-batch work (validation, journal) is O(batch), so the ratio must
    hold at a length where the kernel has amortized its windows.  Best
    of 9, since the replay side is only ~40 ms."""
    trace = _trace(10_000)
    dicts = [event_to_dict(ev) for ev in trace.events]
    requests = [{"op": "feed", "events": dicts[i:i + 256]}
                for i in range(0, len(dicts), 256)]
    journals = itertools.count()

    def served() -> float:
        svc = AdmissionService(
            trace, "greedy-threshold", sync_window=64,
            journal_path=str(tmp_path / f"{next(journals)}.log"))
        t0 = time.perf_counter()
        for req in requests:
            assert svc.handle(req)["ok"]
        dt = time.perf_counter() - t0
        svc.close()
        return dt

    best = _best(9, replay=lambda: _replay_s(trace), served=served)
    ratio = best["served"] / best["replay"]
    assert ratio <= 2.5, f"journal_overhead_ratio x{ratio:.2f}"


# ----------------------------------------------------------------------
# Engine hot path vs the frozen scalar reference
# ----------------------------------------------------------------------


def _hot_path_s(problem, trees, pop_cap: int) -> dict:
    """Best-of-3 seconds, vectorized vs scalar, of the engine's inner
    loop on one population: conflict adjacency, the phase-2 probe
    against a half-grown active set, and two rounds of ten
    unsatisfied-constraint filters followed by a whole-MIS dual raise."""
    insts = problem.instances()
    edges_of = [frozenset(problem.global_edges_of(d)) for d in insts]
    pop = sorted(np.random.default_rng(0).choice(
        len(insts), size=min(pop_cap, len(insts)), replace=False).tolist())
    ci = ConflictIndex(insts, edges_of, trees=trees)
    sci = helpers.ScalarConflictIndex(insts, edges_of)
    mis = sorted(greedy_mis(ci.adjacency(pop))[0])
    half, rest = mis[:len(mis) // 2], mis[len(mis) // 2:]
    duals = ([d.profit for d in insts], [d.height for d in insts],
             [d.demand_id for d in insts], edges_of)
    crit = {i: tuple(sorted(e))[:3] for i, e in enumerate(edges_of)}
    pop_a, mis_a, rest_a = (np.asarray(x, dtype=np.int64)
                            for x in (pop, mis, rest))

    def vectorized() -> float:
        ds = DualState(*duals, log_raises=False)
        ds.set_critical(crit)
        t0 = time.perf_counter()
        ci.adjacency(pop)
        act = ci.active_set()
        act.add_all(half)
        act.blocked_mask(pop_a)
        plan = ds.make_plan(pop_a)
        for target, raised in ((0.9, mis_a), (0.95, rest_a)):
            for _ in range(10):
                ds.unsatisfied_mask(pop_a, target, plan=plan)
            ds.raise_unit_batch(raised)
        return time.perf_counter() - t0

    def scalar() -> float:
        ds = helpers.ScalarDualState(*duals)
        t0 = time.perf_counter()
        sci.subgraph(pop)
        used_edges, used_demands = set(), set()
        for iid in half:
            used_edges |= edges_of[iid]
            used_demands.add(insts[iid].demand_id)
        [insts[iid].demand_id in used_demands
         or bool(edges_of[iid] & used_edges) for iid in pop]
        for raised in (mis, rest):
            for _ in range(10):
                for iid in pop:
                    ds.lhs(iid)
            for iid in raised:
                ds.raise_unit(iid, crit[iid])
        return time.perf_counter() - t0

    return _best(3, vectorized=vectorized, scalar=scalar)


def test_hot_path_beats_scalar_reference():
    """Combined over a 5k-demand line with pinned jobs of 16-63 slots
    (~7x) and 200 demands on a 400-vertex path-shaped tree, whose long
    routes favour the Euler-tour index (~20x; at 1200 demands on 2500
    vertices the scalar side alone takes ~50 s)."""
    line = _hot_path_s(random_line_problem(
        20_000, 5000, seed=0, min_len=16, max_len=63, window_slack=0.0),
        None, pop_cap=1500)
    problem = random_tree_problem(400, 200, topology="path", seed=0)
    tree = _hot_path_s(problem, dict(enumerate(problem.networks)),
                       pop_cap=300)
    speedup = ((line["scalar"] + tree["scalar"])
               / (line["vectorized"] + tree["vectorized"]))
    assert speedup >= 5.0, (
        f"combined x{speedup:.1f} (line "
        f"x{line['scalar'] / line['vectorized']:.1f}, tree "
        f"x{tree['scalar'] / tree['vectorized']:.1f})")


def test_closure_windows_decide_line_preempt_in_few_windows():
    """Counters, not time: the benchmark's ``line-preempt`` trace shape
    under ``preempt-density``.  Closure windows commit every verdict no
    conflict invalidated, so the replay needs few windows and evaluates
    few events twice (at the contiguous-cut parent: 1,099 windows and
    23,669 events evaluated again)."""
    trace = generate_trace(kind="line", events=24_000, process="poisson",
                           seed=1, departure_prob=0.35,
                           workload={"n_slots": 3000})
    session = AdmissionSession(trace.problem,
                               make_policy("preempt-density", factor=1.2))
    session.feed_many(trace.events)
    fp = session.fastpath_stats
    assert fp["runs"] <= 300, fp
    assert fp["discarded"] <= 18_000, fp
