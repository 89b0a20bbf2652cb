"""The cost-bound pruned preemption planner decides exactly as the
unbounded one.

``CapacityLedger.preemption_plan(iid, gate)`` abandons a candidate once
its caller's gate provably rejects every plan for the route.  These
tests replay line and tree traces through both preemptive policies and
through :func:`tests.helpers.reference_policy` (the same policies with
the pre-prune planner and candidate loops), and demand identical logs,
statistics and bit-equal profit totals.
"""

from __future__ import annotations

import functools
import itertools

import pytest

from repro import Demand, TreeNetwork, TreeProblem
from repro.online import CapacityLedger, generate_trace, make_policy, replay
from repro.online.state import PRUNED

from tests.helpers import reference_policy, reference_preemption_plan

SEEDS = range(6)


@functools.lru_cache(maxsize=None)
def _trace(kind: str, seed: int):
    return generate_trace(kind, events=300, seed=seed, departure_prob=0.3)


def _assert_same_run(trace, name: str, params: dict) -> int:
    """Replay both planners; returns the pruned-candidate count."""
    got = replay(trace, make_policy(name, **params))
    ref = replay(trace, reference_policy(name, **params))
    label = f"{name} {params}"
    assert got.admission_log == ref.admission_log, label
    assert got.eviction_log == ref.eviction_log, label
    stats = dict(got.policy_stats)
    pruned = stats.pop("preempt_pruned")
    assert ref.policy_stats.pop("preempt_pruned") == 0
    assert stats == ref.policy_stats, label
    for field in ("realized_profit", "forfeited_profit", "penalty_paid",
                  "penalty_adjusted_profit"):
        a = getattr(got.metrics, field)
        b = getattr(ref.metrics, field)
        assert a.hex() == b.hex(), (label, field)
    return pruned


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["line", "tree"])
def test_preempt_density_decisions_unchanged(kind, seed):
    trace = _trace(kind, seed)
    pruned = 0
    for factor, penalty, threshold in itertools.product(
            (0.8, 1.2, 2.0), (0.0, 0.5), (0.0, 0.5)):
        pruned += _assert_same_run(
            trace, "preempt-density",
            {"factor": factor, "penalty": penalty, "threshold": threshold})
    assert pruned > 0  # the bound actually fires on these traces


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["line", "tree"])
def test_preempt_dual_gated_decisions_unchanged(kind, seed):
    trace = _trace(kind, seed)
    pruned = 0
    for eta, penalty, mu in itertools.product(
            (0.8, 1.2, 2.0), (0.0, 0.5), (None, 1.5)):
        pruned += _assert_same_run(
            trace, "preempt-dual-gated",
            {"eta": eta, "penalty": penalty, "mu": mu})
    assert pruned > 0


# ----------------------------------------------------------------------
# Boundary cases on one edge
# ----------------------------------------------------------------------


def _one_edge(holders, newcomer):
    """A two-vertex tree; ``holders`` are admitted in order, the
    ``newcomer`` (profit, height) is the last demand, not admitted."""
    net = TreeNetwork(2, [(0, 1)], network_id=0)
    demands = [Demand(d, 0, 1, p, height=h)
               for d, (p, h) in enumerate(list(holders) + [newcomer])]
    problem = TreeProblem(n=2, networks=[net], demands=demands)
    ledger = CapacityLedger(problem)
    for d in range(len(holders)):
        assert ledger.try_admit(d) is not None
    return ledger, int(ledger.candidates(len(holders))[0])


def test_profit_equal_to_gate_times_bound_is_rejected_both_ways():
    # Newcomer profit 6.0 == gate 2.0 × cheapest holder 3.0: the strict
    # gate rejects, so the bound prunes it before planning.
    ledger, iid = _one_edge([(3.0, 0.5)], (6.0, 0.9))
    assert ledger.preemption_plan(iid, 2.0) is PRUNED
    assert ledger.preemption_plan(iid) == reference_preemption_plan(
        ledger, iid) == [0]
    for make in (make_policy, reference_policy):
        policy = make("preempt-density", factor=2.0)
        policy.bind(ledger)
        assert policy.on_arrival(1) is None
        assert not ledger.is_admitted(1) and ledger.is_admitted(0)
        assert policy.stats["preempt_rejected"] == 1
        assert policy.stats["preempt_pruned"] == (make is make_policy)
    # One cent more clears the gate: the plan is built and executed.
    ledger, iid = _one_edge([(3.0, 0.5)], (6.01, 0.9))
    assert ledger.preemption_plan(iid, 2.0) == [0]
    policy = make_policy("preempt-density", factor=2.0)
    policy.bind(ledger)
    assert policy.on_arrival(1) == iid
    assert policy.stats["preempt_pruned"] == 0


def test_bound_rises_during_the_walk():
    # Cheapest holder 1.0 bounds nothing at gate 1 (3.0 > 1.0), but the
    # walk must take the 3.0 holder too, which proves 3.0 <= 1 × cost.
    ledger, iid = _one_edge([(1.0, 0.2), (3.0, 0.2), (5.0, 0.2)], (3.0, 0.9))
    assert ledger.preemption_plan(iid) == [0, 1, 2]
    assert reference_preemption_plan(ledger, iid) == [0, 1, 2]
    assert ledger.preemption_plan(iid, 1.0) is PRUNED
    assert ledger.preemption_plan(iid, 0.5) == [0, 1, 2]


def test_over_capacity_edge_without_holders_is_impossible():
    ledger, iid = _one_edge([], (2.0, 0.9))
    # Force the defensive branch: a newcomer taller than the edge.
    ledger._height[iid] = 1.5
    ledger.index._heights[iid] = 1.5
    assert ledger.preemption_plan(iid) is None
    assert ledger.preemption_plan(iid, 1.0) is None
    assert reference_preemption_plan(ledger, iid) is None


def test_feasible_route_plans_empty():
    ledger, iid = _one_edge([(5.0, 0.5)], (1.0, 0.5))
    assert ledger.preemption_plan(iid) == []
    assert ledger.preemption_plan(iid, 100.0) == []
    assert reference_preemption_plan(ledger, iid) == []


# ----------------------------------------------------------------------
# The prune counter through checkpoints
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["preempt-density", "preempt-dual-gated"])
def test_pruned_count_survives_export_restore(name):
    trace = _trace("line", 1)
    policy = make_policy(name)
    replay(trace, policy)
    assert policy.stats["preempt_pruned"] > 0
    state = policy.export_state()
    fresh = make_policy(name)
    fresh.bind(policy.ledger)
    fresh.restore_state(state)
    assert fresh.stats == policy.stats
    # A checkpoint written before the counter existed restores to 0.
    del state["stats"]["preempt_pruned"]
    older = make_policy(name)
    older.bind(policy.ledger)
    older.restore_state(state)
    assert older.stats["preempt_pruned"] == 0


@pytest.mark.parametrize("name", ["preempt-density", "preempt-dual-gated"])
def test_explain_reports_the_full_plan(name):
    # explain is a pure read that asks for the unbounded plan: its
    # victims must be the reference planner's, pruned or not.
    from repro.obs.explain import explain_demand

    trace = _trace("line", 2)
    policy = make_policy(name)
    replay(trace, policy)
    ledger = policy.ledger
    planned = 0
    for d in range(trace.problem.num_demands):
        doc = explain_demand(trace.problem, ledger, policy, d)
        for row in doc["candidates"]:
            if "preemption_victims" in row:
                assert row["preemption_victims"] == \
                    reference_preemption_plan(ledger, row["instance"])
                planned += 1
    assert planned > 0
