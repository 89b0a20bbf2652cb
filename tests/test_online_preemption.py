"""Tests for ledger eviction and the preemptive admission policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.online import (
    CapacityLedger,
    bursty_trace,
    make_policy,
    poisson_trace,
    replay,
)
from repro.workloads import random_line_problem, random_tree_problem


class TestLedgerEviction:
    def test_evict_releases_capacity_and_forfeits_profit(self):
        p = random_line_problem(n_slots=20, m=6, r=1, seed=1, max_len=5)
        ledger = CapacityLedger(p)
        iid = ledger.try_admit(0)
        assert iid is not None
        profit = p.demands[0].profit
        assert ledger.realized_profit == pytest.approx(profit)
        assert ledger.evict(0, penalty=0.5) == iid
        assert not ledger.is_admitted(0)
        assert ledger.was_evicted(0)
        assert ledger.num_admitted == 0
        assert ledger.utilization() == 0.0
        # The admission is still logged, but the profit is forfeited.
        assert ledger.admission_log == [(0, iid)]
        assert ledger.eviction_log == [(0, iid)]
        assert ledger.realized_profit == pytest.approx(0.0)
        assert ledger.forfeited_profit == pytest.approx(profit)
        assert ledger.penalty_paid == pytest.approx(0.5)
        assert ledger.penalty_adjusted_profit == pytest.approx(-0.5)

    def test_eviction_differs_from_departure(self):
        p = random_line_problem(n_slots=30, m=6, r=1, seed=2, max_len=5)
        ledger = CapacityLedger(p)
        ledger.try_admit(0)
        ledger.try_admit(1)
        ledger.release(0)   # natural departure: keeps its profit
        ledger.evict(1)     # eviction: forfeits it
        assert ledger.realized_profit == pytest.approx(p.demands[0].profit)
        assert ledger.eviction_log == [(1, ledger.admission_log[1][1])]
        assert not ledger.was_evicted(0)
        assert ledger.was_evicted(1)

    def test_evicted_demand_never_readmitted(self):
        p = random_line_problem(n_slots=20, m=4, r=1, seed=3)
        ledger = CapacityLedger(p)
        assert ledger.try_admit(1) is not None
        ledger.evict(1)
        assert ledger.try_admit(1) is None
        with pytest.raises(ValueError, match="already admitted"):
            ledger.admit(int(ledger.candidates(1)[0]))

    def test_evict_requires_admission(self):
        p = random_line_problem(n_slots=10, m=2, r=1, seed=4)
        ledger = CapacityLedger(p)
        with pytest.raises(KeyError, match="not admitted"):
            ledger.evict(0)
        with pytest.raises(ValueError, match="penalty"):
            ledger.try_admit(0)
            ledger.evict(0, penalty=-1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_verify_after_evict_admit_interleavings(self, seed):
        p = random_line_problem(n_slots=24, m=14, r=2, seed=seed,
                                height_regime="mixed", max_len=6)
        ledger = CapacityLedger(p)
        rng = np.random.default_rng(seed)
        admitted: list[int] = []
        penalties = 0.0
        for _ in range(60):
            roll = rng.random()
            if admitted and roll < 0.25:
                d = admitted.pop(int(rng.integers(len(admitted))))
                ledger.evict(d, penalty=0.1)
                penalties += 0.1
            elif admitted and roll < 0.4:
                d = admitted.pop(int(rng.integers(len(admitted))))
                ledger.release(d)
            else:
                d = int(rng.integers(p.num_demands))
                if ledger.try_admit(d) is not None:
                    admitted.append(d)
            # Feasible from first principles, counters consistent with
            # the logs, after every single mutation.
            ledger.verify()
        admitted_sum = sum(p.instances()[i].profit
                           for _, i in ledger.admission_log)
        forfeited_sum = sum(p.instances()[i].profit
                            for _, i in ledger.eviction_log)
        assert ledger.admitted_profit == pytest.approx(admitted_sum)
        assert ledger.forfeited_profit == pytest.approx(forfeited_sum)
        assert ledger.realized_profit == pytest.approx(
            admitted_sum - forfeited_sum
        )
        assert ledger.penalty_adjusted_profit == pytest.approx(
            admitted_sum - forfeited_sum - penalties
        )

    def test_holders_on_route_tracks_mutations(self):
        from repro import Demand, TreeNetwork, TreeProblem

        net = TreeNetwork(3, [(0, 1), (1, 2)], network_id=0)
        p = TreeProblem(
            n=3, networks=[net],
            demands=[Demand(0, 0, 2, 1.0, height=0.4),
                     Demand(1, 0, 1, 1.0, height=0.4),
                     Demand(2, 1, 2, 5.0, height=0.4)],
        )
        ledger = CapacityLedger(p)
        iid2 = int(ledger.candidates(2)[0])
        assert ledger.holders_on_route(iid2) == set()
        ledger.try_admit(0)   # spans both edges
        ledger.try_admit(1)   # edge (0,1) only
        assert ledger.holders_on_route(iid2) == {0}
        ledger.evict(0)
        assert ledger.holders_on_route(iid2) == set()

    def test_preemption_plan_picks_cheapest_density(self):
        from repro import Demand, TreeNetwork, TreeProblem

        net = TreeNetwork(2, [(0, 1)], network_id=0)
        # Three demands on one unit-capacity edge, heights 0.5 each: two
        # fit, the third needs one eviction — the cheaper holder.
        p = TreeProblem(
            n=2, networks=[net],
            demands=[Demand(0, 0, 1, 1.0, height=0.5),
                     Demand(1, 0, 1, 3.0, height=0.5),
                     Demand(2, 0, 1, 10.0, height=0.5)],
        )
        ledger = CapacityLedger(p)
        ledger.try_admit(0)
        ledger.try_admit(1)
        iid2 = int(ledger.candidates(2)[0])
        assert ledger.preemption_plan(iid2) == [0]
        ledger.evict(0)
        # Now the route is feasible: the plan is the empty eviction set.
        assert ledger.preemption_plan(iid2) == []

    def test_preemption_plan_reports_impossible(self):
        from repro import Demand, TreeNetwork, TreeProblem

        net = TreeNetwork(2, [(0, 1)], network_id=0)
        p = TreeProblem(
            n=2, networks=[net],
            demands=[Demand(0, 0, 1, 1.0, height=0.9),
                     Demand(1, 0, 1, 9.0, height=0.9)],
        )
        ledger = CapacityLedger(p)
        ledger.try_admit(0)
        iid1 = int(ledger.candidates(1)[0])
        # With validated heights (≤ 1) evicting every holder always
        # frees a route, so force the defensive branch by inflating the
        # newcomer's height past the edge capacity in the ledger's
        # per-instance height column, which the planner reads.
        ledger._height[iid1] = 1.5
        assert ledger.preemption_plan(iid1) is None


class TestPreemptDensity:
    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="factor"):
            make_policy("preempt-density", factor=0.0)
        with pytest.raises(ValueError, match="penalty"):
            make_policy("preempt-density", penalty=-0.1)
        with pytest.raises(ValueError, match="threshold"):
            make_policy("preempt-density", threshold=-1.0)

    def test_evicts_cheap_holder_for_profitable_arrival(self):
        from repro import Demand, TreeNetwork, TreeProblem
        from repro.online import EventTrace, Arrival

        net = TreeNetwork(2, [(0, 1)], network_id=0)
        p = TreeProblem(
            n=2, networks=[net],
            demands=[Demand(0, 0, 1, 1.0), Demand(1, 0, 1, 5.0)],
        )
        trace = EventTrace(problem=p,
                           events=[Arrival(0.0, 0), Arrival(1.0, 1)])
        res = replay(trace, make_policy("preempt-density", factor=1.2))
        assert res.eviction_log == [(0, 0)]
        assert {d.demand_id for d in res.final_solution.selected} == {1}
        assert res.metrics.realized_profit == pytest.approx(5.0)
        assert res.metrics.forfeited_profit == pytest.approx(1.0)

    def test_factor_gates_marginal_swaps(self):
        from repro import Demand, TreeNetwork, TreeProblem
        from repro.online import EventTrace, Arrival

        net = TreeNetwork(2, [(0, 1)], network_id=0)
        p = TreeProblem(
            n=2, networks=[net],
            demands=[Demand(0, 0, 1, 4.0), Demand(1, 0, 1, 5.0)],
        )
        trace = EventTrace(problem=p,
                           events=[Arrival(0.0, 0), Arrival(1.0, 1)])
        # 5.0 <= 2.0 * 4.0: the swap is not worth it at factor 2.
        res = replay(trace, make_policy("preempt-density", factor=2.0))
        assert res.eviction_log == []
        assert res.metrics.realized_profit == pytest.approx(4.0)
        assert res.policy_stats["preempt_rejected"] == 1

    def test_threshold_gates_evictions_too(self):
        from repro import Demand, TreeNetwork, TreeProblem
        from repro.online import EventTrace, Arrival

        net = TreeNetwork(3, [(0, 1), (1, 2)], network_id=0)
        # Holder: 1 edge, profit 10 → density 10, clears threshold 9.
        # Newcomer: 2 edges, profit 16 → density 8.  Its profit beats
        # factor × holder (16 > 12) but its density misses the floor —
        # it must not buy with evictions what it could not have for
        # free.
        p = TreeProblem(
            n=3, networks=[net],
            demands=[Demand(0, 0, 1, 10.0), Demand(1, 0, 2, 16.0)],
        )
        trace = EventTrace(problem=p,
                           events=[Arrival(0.0, 0), Arrival(1.0, 1)])
        res = replay(trace, make_policy("preempt-density", factor=1.2,
                                        threshold=9.0))
        assert res.eviction_log == []
        assert res.metrics.realized_profit == pytest.approx(10.0)
        # Sanity: without the density floor the same arrival does evict.
        res2 = replay(trace, make_policy("preempt-density", factor=1.2))
        assert res2.eviction_log == [(0, 0)]
        assert res2.metrics.realized_profit == pytest.approx(16.0)

    def test_gate_accounts_for_its_own_penalty(self):
        from repro import Demand, TreeNetwork, TreeProblem
        from repro.online import EventTrace, Arrival

        net = TreeNetwork(2, [(0, 1)], network_id=0)
        # 5 > 1.0 × 4 but 5 ≤ (1.0 + 0.5) × 4: once the compensation is
        # counted the swap loses money, so it must not happen.
        p = TreeProblem(
            n=2, networks=[net],
            demands=[Demand(0, 0, 1, 4.0), Demand(1, 0, 1, 5.0)],
        )
        trace = EventTrace(problem=p,
                           events=[Arrival(0.0, 0), Arrival(1.0, 1)])
        free = replay(trace, make_policy("preempt-density", factor=1.0))
        assert free.eviction_log == [(0, 0)]
        paid = replay(trace, make_policy("preempt-density", factor=1.0,
                                         penalty=0.5))
        assert paid.eviction_log == []
        assert paid.metrics.realized_profit == pytest.approx(4.0)
        # Same economics for the dual-gated variant: on the empty route
        # the price is 0, so the penalty term alone must block the swap.
        dg_free = replay(trace, make_policy("preempt-dual-gated"))
        assert dg_free.eviction_log == [(0, 0)]
        dg_paid = replay(trace, make_policy("preempt-dual-gated",
                                            penalty=0.5))
        assert dg_paid.eviction_log == []

    def test_penalty_flows_into_adjusted_profit(self):
        tr = bursty_trace("line", events=300, seed=3, departure_prob=0.3)
        res = replay(tr, make_policy("preempt-density", penalty=0.5))
        m = res.metrics
        assert m.evictions > 0
        assert m.penalty_paid == pytest.approx(0.5 * m.forfeited_profit)
        assert m.penalty_adjusted_profit == pytest.approx(
            m.realized_profit - m.penalty_paid
        )

    def test_profit_identity_on_stream(self):
        tr = bursty_trace("line", events=400, seed=7, departure_prob=0.4)
        res = replay(tr, make_policy("preempt-density", penalty=0.25))
        m = res.metrics
        admitted = sum(tr.problem.demands[d].profit
                       for d, _ in res.admission_log)
        forfeited = sum(tr.problem.demands[d].profit
                        for d, _ in res.eviction_log)
        assert m.realized_profit == pytest.approx(admitted - forfeited)
        assert m.penalty_adjusted_profit == pytest.approx(
            admitted - forfeited - m.penalty_paid
        )

    def test_evicted_never_readmitted_on_stream(self):
        tr = bursty_trace("line", events=400, seed=9, departure_prob=0.3)
        res = replay(tr, make_policy("preempt-density"))
        evicted = [d for d, _ in res.eviction_log]
        assert res.metrics.evictions > 0
        # Each demand appears at most once in the admission log even
        # though its capacity was freed again by the eviction.
        admitted = [d for d, _ in res.admission_log]
        assert len(admitted) == len(set(admitted))
        assert not (set(evicted)
                    & {d.demand_id for d in res.final_solution.selected})


class TestPreemptDualGated:
    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="penalty"):
            make_policy("preempt-dual-gated", penalty=-0.5)
        with pytest.raises(ValueError, match="eta"):
            make_policy("preempt-dual-gated", eta=0.0)

    def test_behaves_like_dual_gated_until_blocked(self):
        # On an uncongested trace with no capacity blocks, the preemptive
        # variant must make exactly the parent's decisions.
        tr = poisson_trace("line", events=60, seed=11, departure_prob=0.0,
                           rate=0.2)
        plain = replay(tr, make_policy("dual-gated"))
        pre = replay(tr, make_policy("preempt-dual-gated"))
        if pre.metrics.evictions == 0:
            assert pre.admission_log == plain.admission_log

    def test_preempts_only_when_profit_beats_price_plus_victims(self):
        from repro import Demand, TreeNetwork, TreeProblem
        from repro.online import EventTrace, Arrival

        net = TreeNetwork(2, [(0, 1)], network_id=0)
        p = TreeProblem(
            n=2, networks=[net],
            demands=[Demand(0, 0, 1, 1.0), Demand(1, 0, 1, 50.0)],
        )
        trace = EventTrace(problem=p,
                           events=[Arrival(0.0, 0), Arrival(1.0, 1)])
        res = replay(trace, make_policy("preempt-dual-gated"))
        # 50 > 1 (victim) + price of the emptied route (= 0): preempt.
        assert res.eviction_log == [(0, 0)]
        assert res.metrics.realized_profit == pytest.approx(50.0)

    def test_gates_on_stream_and_verifies(self):
        tr = bursty_trace("line", events=400, seed=3, departure_prob=0.3)
        res = replay(tr, make_policy("preempt-dual-gated", penalty=0.1))
        stats = res.policy_stats
        assert stats["evictions"] == res.metrics.evictions > 0
        assert stats["preempt_admits"] > 0
        m = res.metrics
        assert m.penalty_paid == pytest.approx(0.1 * m.forfeited_profit)

    def test_reproducible(self):
        tr = bursty_trace("line", events=250, seed=13, departure_prob=0.4)
        a = replay(tr, make_policy("preempt-dual-gated", penalty=0.2))
        b = replay(tr, make_policy("preempt-dual-gated", penalty=0.2))
        assert a.admission_log == b.admission_log
        assert a.eviction_log == b.eviction_log
        assert a.metrics.penalty_adjusted_profit == \
            b.metrics.penalty_adjusted_profit


@pytest.mark.parametrize("fastpath", [False, True])
@pytest.mark.parametrize("name", ["preempt-density", "preempt-dual-gated"])
def test_repeated_arrival_never_evicts(name, fastpath):
    """An arrival of a demand admitted before must be rejected outright:
    planning for it would evict an innocent holder and then fail to
    admit (a demand is admitted at most once)."""
    from repro import Demand, TreeNetwork, TreeProblem
    from repro.online import Arrival, Departure, Tick
    from repro.session.kernel import AdmissionSession

    net = TreeNetwork(2, [(0, 1)], network_id=0)
    problem = TreeProblem(n=2, networks=[net],
                          demands=[Demand(0, 0, 1, 1.0, height=0.6),
                                   Demand(1, 0, 1, 10.0, height=0.6)])
    session = AdmissionSession(problem, make_policy(name),
                               fastpath=fastpath)
    ledger = session.ledger
    events = [Arrival(0.0, 1), Departure(1.0, 1), Arrival(2.0, 0)]
    for ev in events:
        session.feed(ev)
    before = (list(ledger.admission_log), dict(ledger._admitted),
              ledger.active._load.tobytes(), ledger._cheapest.tobytes())
    # With a tick alongside, the fast path decides the arrival in a
    # window rather than through the scalar fallback.
    session.feed_many([Arrival(3.0, 1), Tick(4.0)])
    assert (list(ledger.admission_log), dict(ledger._admitted),
            ledger.active._load.tobytes(),
            ledger._cheapest.tobytes()) == before
    assert ledger.eviction_log == []
    stats = session.policy.stats
    assert stats["evictions"] == stats["preempt_admits"] == 0
    assert stats["preempt_rejected"] == 1
    session.close(verify=True)
