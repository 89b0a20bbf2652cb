"""Tests for the sharded admission engine (planner and driver).

The load-bearing guarantees:

* the planner emits a true edge *partition* and classifies demands
  correctly (local ⇔ every instance route inside one shard);
* ``shards=1`` is event-for-event identical to the single-ledger driver
  (byte-identical deterministic outcome) for every registered policy;
* multi-shard runs stay feasible (coordinator-verified) and diverge
  from the unsharded replay by at most the planner's boundary bound on
  the pinned corpus;
* forked and inline phase-A execution decide identically.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.io import load_trace
from repro.online import generate_trace, make_policy, replay
from repro.online.metrics import deterministic_metrics as _deterministic
from repro.sharding import ShardPlanner, StreamedShardedDriver
from repro.workloads import random_line_problem, random_tree_problem

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


class TestShardPlanner:
    @pytest.mark.parametrize("by", ["subtree", "layer"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_tree_plan_invariants(self, tree_trace, by, shards):
        problem = tree_trace.problem
        plan = ShardPlanner(by).plan(problem, shards)
        # Every edge of every network is owned by exactly one shard.
        for q, net in enumerate(problem.networks):
            for ek in net.iter_edges():
                assert 0 <= plan.edge_shard[(q, ek)] < shards
        # Demand classification matches the instance routes exactly.
        for inst in problem.instances():
            owners = {plan.edge_shard[ge]
                      for ge in problem.global_edges_of(inst)}
            d = inst.demand_id
            assert owners <= set(plan.shards_of(d))
        for d in range(problem.num_demands):
            if plan.is_boundary(d):
                assert len(plan.shards_of(d)) > 1
            else:
                assert len(plan.shards_of(d)) == 1
        # Local demand lists partition the non-boundary demands.
        locals_flat = [d for ids in plan.shard_demands for d in ids]
        assert sorted(locals_flat + plan.boundary_demands) == list(
            range(problem.num_demands)
        )

    def test_line_plan_blocks(self, line_trace):
        problem = line_trace.problem
        plan = ShardPlanner("layer").plan(problem, 3)
        # Contiguous blocks: shard is monotone in the timeslot.
        shards_by_slot = [plan.edge_shard[(0, t)]
                          for t in range(problem.n_slots)]
        assert shards_by_slot == sorted(shards_by_slot)
        assert set(shards_by_slot) == {0, 1, 2}

    def test_subproblem_and_subtrace_align(self, tree_trace):
        plan = ShardPlanner("subtree").plan(tree_trace.problem, 2)
        for s in range(2):
            sub = plan.subproblem(s)
            assert sub.num_demands == len(plan.shard_demands[s])
            # Demands keep their profit/endpoints under renumbering.
            for i, d in enumerate(plan.shard_demands[s]):
                assert sub.demands[i].profit == \
                    tree_trace.problem.demands[d].profit
            # Sub-trace construction re-validates the event stream.
            st = plan.subtrace(s, tree_trace)
            assert st.num_arrivals == sub.num_demands
            assert st.meta["shard"] == s
        # Boundary events cover exactly the cut-crossing demands.
        boundary = plan.boundary_events(tree_trace)
        seen = {ev.demand_id for ev in boundary if hasattr(ev, "demand_id")}
        assert seen == set(plan.boundary_demands)

    def test_instance_map_roundtrip(self, tree_trace):
        problem = tree_trace.problem
        plan = ShardPlanner("subtree").plan(problem, 2)
        for s in range(2):
            sub = plan.subproblem(s)
            for inst in sub.instances():
                g = plan.global_instance_of(s, inst.instance_id)
                ginst = problem.instances()[g]
                assert ginst.network_id == inst.network_id
                assert ginst.profit == inst.profit
                assert plan.shard_demands[s][inst.demand_id] == \
                    ginst.demand_id

    def test_more_shards_than_vertices(self):
        problem = random_tree_problem(n=6, m=8, r=1, seed=0)
        plan = ShardPlanner("subtree").plan(problem, 16)
        locals_flat = [d for ids in plan.shard_demands for d in ids]
        assert sorted(locals_flat + plan.boundary_demands) == list(range(8))

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown shard strategy"):
            ShardPlanner("random")
        problem = random_line_problem(n_slots=32, m=4, seed=0)
        with pytest.raises(ValueError, match="shards must be"):
            ShardPlanner().plan(problem, 0)

    def test_summary_bounds(self, tree_trace):
        plan = ShardPlanner("subtree").plan(tree_trace.problem, 4)
        summary = plan.summary()
        assert summary["boundary_demands"] == plan.boundary_count
        assert summary["boundary_profit"] == pytest.approx(
            sum(tree_trace.problem.demands[d].profit
                for d in plan.boundary_demands)
        )
        assert sum(summary["edges_per_shard"]) == len(plan.edge_shard)


class TestShardOneEquivalence:
    """``shards=1``: byte-identical to the single-ledger driver."""

    @pytest.mark.parametrize("policy,params", POLICIES,
                             ids=[p for p, _ in POLICIES])
    def test_tree_trace_identical(self, tree_trace, policy, params):
        direct = replay(tree_trace, make_policy(policy, **params))
        sharded = StreamedShardedDriver(1, "subtree").run(
            tree_trace, policy, params)
        shard0 = sharded.shard_results[0]
        assert shard0.admission_log == direct.admission_log
        assert shard0.eviction_log == direct.eviction_log
        assert shard0.policy_stats == direct.policy_stats
        # The deterministic projections agree byte for byte.
        assert json.dumps(_deterministic(shard0.metrics), sort_keys=True) \
            == json.dumps(_deterministic(direct.metrics), sort_keys=True)
        # Merged counters echo the single shard exactly.
        for field in ("accepted", "rejected", "evictions",
                      "realized_profit", "forfeited_profit",
                      "penalty_paid", "penalty_adjusted_profit",
                      "acceptance_ratio", "dual_upper_bound"):
            assert getattr(sharded.merged, field) == \
                getattr(direct.metrics, field)
        assert sharded.boundary_result is None
        assert sorted(i.instance_id
                      for i in sharded.merged_solution.selected) == \
            sorted(i.instance_id for i in direct.final_solution.selected)

    def test_line_trace_identical(self, line_trace):
        direct = replay(line_trace, make_policy("greedy-threshold"))
        sharded = StreamedShardedDriver(1, "layer").run(
            line_trace, "greedy-threshold", {}
        )
        assert sharded.shard_results[0].admission_log == \
            direct.admission_log
        assert sharded.merged.realized_profit == \
            direct.metrics.realized_profit


class TestMultiShard:
    @pytest.mark.parametrize("by", ["subtree", "layer"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_divergence_within_boundary_bound(self, tree_trace, by, shards):
        """On the pinned corpus, sharded profit/acceptance stays within
        the planner's boundary-demand population of the unsharded
        replay, and the merged admitted set re-verifies from first
        principles (the driver runs the coordinator's ``verify()`` when
        ``verify=True``).

        This is an empirical change-detection property of the *pinned*
        corpus (deterministic), not a theorem: knock-on effects through
        local demands can exceed the boundary profit on adversarial
        traces — see the planner module docstring."""
        direct = replay(tree_trace, make_policy("greedy-threshold"))
        res = StreamedShardedDriver(shards, by).run(
            tree_trace, "greedy-threshold", {}
        )
        bound_profit = res.plan["boundary_profit"]
        bound_count = res.plan["boundary_demands"]
        assert abs(res.merged.penalty_adjusted_profit
                   - direct.metrics.penalty_adjusted_profit) \
            <= bound_profit + 1e-9
        assert abs(res.merged.accepted - direct.metrics.accepted) \
            <= bound_count
        assert res.merged.events == len(tree_trace.events)
        assert res.merged.arrivals == tree_trace.num_arrivals

    @pytest.mark.parametrize("policy,params", POLICIES,
                             ids=[p for p, _ in POLICIES])
    def test_all_policies_run_sharded(self, tree_trace, policy, params):
        """Every registered policy runs unmodified inside shards and in
        the boundary pass; the merged set stays verified-feasible."""
        res = StreamedShardedDriver(2, "subtree").run(
            tree_trace, policy, params)
        assert len(res.shard_results) == 2
        assert res.merged.accepted >= 0
        # Merged profit decomposes exactly into shard + boundary rows.
        parts = [r.metrics.realized_profit for r in res.shard_results]
        if res.boundary_result is not None:
            parts.append(res.boundary_result.metrics.realized_profit)
        assert res.merged.realized_profit == pytest.approx(sum(parts))

    def test_pool_matches_inline(self):
        """Forked shard workers decide exactly as the inline loop."""
        trace = generate_trace("tree", events=400, process="poisson",
                               seed=7, departure_prob=0.3,
                               workload={"n": 96, "locality": 0.1})
        inline = StreamedShardedDriver(2, "subtree", processes=0).run(
            trace, "dual-gated", {}
        )
        pooled = StreamedShardedDriver(2, "subtree", processes=2).run(
            trace, "dual-gated", {}
        )
        for a, b in zip(inline.shard_results, pooled.shard_results):
            assert a.admission_log == b.admission_log
            assert json.dumps(_deterministic(a.metrics), sort_keys=True) \
                == json.dumps(_deterministic(b.metrics), sort_keys=True)
        assert inline.merged.realized_profit == \
            pooled.merged.realized_profit

    def test_line_trace_sharded(self, line_trace):
        res = StreamedShardedDriver(3, "layer").run(
            line_trace, "greedy-threshold", {}
        )
        assert res.merged.accepted > 0
        direct = replay(line_trace, make_policy("greedy-threshold"))
        assert abs(res.merged.realized_profit
                   - direct.metrics.realized_profit) \
            <= res.plan["boundary_profit"] + 1e-9

    def test_sharded_dual_certificate_bounds_offline(self, tree_trace):
        """The boundary pass's coordinator certificate upper-bounds the
        global offline optimum even in a multi-shard run."""
        from repro.online import offline_optimum

        res = StreamedShardedDriver(2, "subtree").run(
            tree_trace, "dual-gated", {})
        assert res.merged.dual_upper_bound is not None
        opt = offline_optimum(tree_trace, "exact")
        assert res.merged.dual_upper_bound >= opt - 1e-6
