"""Tests for the sharded driver (``repro.sharding.streaming``).

The load-bearing guarantees:

* the driver is *byte-identical* to a two-phase reference assembled
  from public primitives (per-shard :func:`~repro.online.replay` of
  ``plan.subtrace``, absorb into a fresh coordinator ledger, a delta
  session over ``plan.boundary_events``) — per-shard results, boundary
  result and final admitted set — at shards ∈ {1, 2, 4}, both
  strategies, for every registered policy (the shared-geometry fast
  path changes cost, never outcome);
* forked and inline shard workers decide identically, and a worker
  that dies makes ``run()`` raise instead of hanging;
* the shared :class:`~repro.core.conflict.ConflictIndex` slices answer
  exactly as from-scratch per-shard builds;
* ``_split_streams`` routes the trace event-for-event identically to
  ``plan.subtrace`` / ``plan.boundary_events``.
"""

from __future__ import annotations

import math
import pathlib

import pytest

from repro.io import load_trace
from repro.online import make_policy, replay
from repro.online.metrics import deterministic_metrics as _deterministic
from repro.online.state import CapacityLedger
from repro.session import AdmissionSession
from repro.sharding import (
    ShardPlanner,
    SharedGeometry,
    StreamedShardedDriver,
)
from repro.sharding import streaming
from repro.sharding.streaming import _split_streams

DATA_DIR = pathlib.Path(__file__).parent / "data"

#: The corpus policy grid (mirrors tests/make_trace_corpus.py).
POLICIES = [
    ("greedy-threshold", {}),
    ("dual-gated", {}),
    ("batch-resolve", {"solver": "greedy", "resolve_every": 32}),
    ("preempt-density", {"factor": 1.2}),
    ("preempt-dual-gated", {"penalty": 0.1}),
]


@pytest.fixture(scope="module")
def tree_trace():
    return load_trace(str(DATA_DIR / "trace_poisson_tree.json"))


@pytest.fixture(scope="module")
def line_trace():
    return load_trace(str(DATA_DIR / "trace_bursty_line.json"))


def _sharded_driver_reference(trace, shards, by, policy, params):
    """The two-phase sharded replay, built only from public primitives:
    ``(shard_results, boundary_result, coordinator_snapshot)``."""
    plan = ShardPlanner(by).plan(trace.problem, shards)
    shard_results = [replay(plan.subtrace(s, trace),
                            make_policy(policy, **params))
                     for s in range(plan.n_shards)]
    coordinator = CapacityLedger(trace.problem)
    for s, result in enumerate(shard_results):
        for inst in result.final_solution.selected:
            coordinator.admit(plan.global_instance_of(s, inst.instance_id))
    events = plan.boundary_events(trace)
    session = AdmissionSession.over_ledger(
        coordinator, make_policy(policy, **params), trace_meta=trace.meta)
    session.feed_many(events)
    boundary = session.close()
    return (shard_results, boundary if events else None,
            coordinator.snapshot())


def _row(result) -> dict:
    return {
        "metrics": _deterministic(result.metrics),
        "admissions": result.admission_log,
        "evictions": result.eviction_log,
        "selected": sorted(
            (i.demand_id, i.instance_id)
            for i in result.final_solution.selected
        ) if result.final_solution is not None else None,
    }


def _selected(solution) -> list:
    return sorted((i.demand_id, i.instance_id) for i in solution.selected)


def _result_fingerprint(result) -> dict:
    """Everything deterministic a sharded replay produced."""
    return {
        "merged": _deterministic(result.merged),
        "plan": result.plan,
        "shards": [_row(r) for r in result.shard_results],
        "boundary": (None if result.boundary_result is None
                     else _row(result.boundary_result)),
        "selected": _selected(result.merged_solution),
    }


def _assert_matches_reference(trace, shards, by, policy, params):
    result = StreamedShardedDriver(shards, by, processes=1).run(
        trace, policy, params)
    shard_results, boundary, snapshot = _sharded_driver_reference(
        trace, shards, by, policy, params)
    assert [_row(r) for r in result.shard_results] == \
        [_row(r) for r in shard_results]
    assert (None if result.boundary_result is None
            else _row(result.boundary_result)) == \
        (None if boundary is None else _row(boundary))
    assert _selected(result.merged_solution) == _selected(snapshot)
    rows = [r.metrics for r in shard_results]
    if boundary is not None:
        rows.append(boundary.metrics)
    assert result.merged.accepted == sum(m.accepted for m in rows)
    assert result.merged.realized_profit == \
        math.fsum(m.realized_profit for m in rows)


class TestTwoPhaseByteIdentity:
    @pytest.mark.parametrize("policy,params", POLICIES,
                             ids=[p for p, _ in POLICIES])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_tree_identical_to_sharded_driver(self, tree_trace, shards,
                                              policy, params):
        _assert_matches_reference(tree_trace, shards, "subtree", policy,
                                  params)

    @pytest.mark.parametrize("policy,params", POLICIES,
                             ids=[p for p, _ in POLICIES])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_tree_layer_identical_to_sharded_driver(self, tree_trace,
                                                    shards, policy, params):
        _assert_matches_reference(tree_trace, shards, "layer", policy,
                                  params)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_line_identical_to_sharded_driver(self, line_trace, shards):
        _assert_matches_reference(line_trace, shards, "layer",
                                  "greedy-threshold", {})

    def test_forked_matches_inline(self, tree_trace):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        inline = StreamedShardedDriver(2, processes=1).run(
            tree_trace, "preempt-density", {"factor": 1.2})
        forked = StreamedShardedDriver(2, processes=2).run(
            tree_trace, "preempt-density", {"factor": 1.2})
        assert _result_fingerprint(forked) == _result_fingerprint(inline)

    def test_killed_worker_raises_instead_of_hanging(self, tree_trace,
                                                     monkeypatch):
        import multiprocessing as mp
        import os
        import signal

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        real = streaming._replay_shard

        def dies_in_shard_1(s, *args):
            if s == 1:  # runs in the forked child only
                os.kill(os.getpid(), signal.SIGKILL)
            return real(s, *args)

        monkeypatch.setattr(streaming, "_replay_shard", dies_in_shard_1)
        with pytest.raises(RuntimeError, match=r"shard worker\(s\) \[1\]"):
            StreamedShardedDriver(2, processes=2).run(
                tree_trace, "greedy-threshold")

    def test_boundary_mode_is_two_phase_only(self):
        StreamedShardedDriver(2, boundary="two-phase")
        with pytest.raises(ValueError, match="two-phase"):
            StreamedShardedDriver(2, boundary="eager")


class TestSharedGeometry:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sliced_index_matches_scratch_build(self, tree_trace, shards):
        problem = tree_trace.problem
        plan = ShardPlanner("subtree").plan(problem, shards)
        geometry = SharedGeometry(problem, plan)
        for s in range(plan.n_shards):
            view = geometry.shard_view(s)
            scratch = CapacityLedger(plan.subproblem(s))
            n = len(scratch.instances)
            assert len(view.instances) == n
            for k in range(n):
                assert (set(view.index.neighbors(k))
                        == set(scratch.index.neighbors(k)))
                assert (view.index.edges_of(k)
                        == scratch.index.edges_of(k))

    @pytest.mark.parametrize("shards", [2, 4])
    def test_relabeled_instances_match_subproblem(self, tree_trace, shards):
        problem = tree_trace.problem
        plan = ShardPlanner("subtree").plan(problem, shards)
        geometry = SharedGeometry(problem, plan)
        for s in range(plan.n_shards):
            view = geometry.shard_view(s)
            scratch = plan.subproblem(s).instances()
            assert list(view.instances) == list(scratch)

    def test_coordinator_covers_full_population(self, tree_trace):
        problem = tree_trace.problem
        plan = ShardPlanner("subtree").plan(problem, 2)
        geometry = SharedGeometry(problem, plan)
        assert (len(geometry.coordinator.instances)
                == len(problem.instances()))


class TestSplitStreams:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_routes_match_plan_subtraces(self, tree_trace, shards):
        plan = ShardPlanner("subtree").plan(tree_trace.problem, shards)
        shard_events, boundary_events = _split_streams(plan, tree_trace)
        for s in range(plan.n_shards):
            expect = plan.subtrace(s, tree_trace).events
            assert shard_events[s] == list(expect)
        assert boundary_events == list(plan.boundary_events(tree_trace))
