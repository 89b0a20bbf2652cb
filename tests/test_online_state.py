"""Tests for the incremental capacity ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FeasibilityError
from repro.online import Arrival, CapacityLedger, Departure, poisson_trace
from repro.workloads import random_line_problem, random_tree_problem


class TestLedgerBasics:
    def test_admit_release_cycle(self):
        p = random_line_problem(n_slots=20, m=6, r=1, seed=1, max_len=5)
        ledger = CapacityLedger(p)
        iid = ledger.try_admit(0)
        assert iid is not None
        assert ledger.is_admitted(0)
        assert ledger.admitted_instance(0) == iid
        assert ledger.num_admitted == 1
        assert ledger.release(0) == iid
        assert not ledger.is_admitted(0)
        assert ledger.num_admitted == 0
        # Profit is kept even after the departure.
        assert ledger.realized_profit == pytest.approx(p.demands[0].profit)

    def test_no_readmission_after_release(self):
        p = random_line_problem(n_slots=20, m=4, r=1, seed=2)
        ledger = CapacityLedger(p)
        assert ledger.try_admit(1) is not None
        ledger.release(1)
        assert ledger.try_admit(1) is None
        with pytest.raises(ValueError, match="already admitted"):
            ledger.admit(int(ledger.candidates(1)[0]))

    def test_release_unknown_demand(self):
        p = random_line_problem(n_slots=10, m=2, r=1, seed=3)
        ledger = CapacityLedger(p)
        with pytest.raises(KeyError, match="not admitted"):
            ledger.release(0)

    def test_candidates_cover_networks_and_placements(self):
        p = random_line_problem(n_slots=16, m=5, r=2, seed=4, max_len=4)
        ledger = CapacityLedger(p)
        for d in range(p.num_demands):
            cands = ledger.candidates(d)
            assert {p.instances()[i].demand_id for i in cands} == {d}
        with pytest.raises(KeyError, match="unknown demand"):
            ledger.candidates(999)

    def test_admit_blocked_instance_raises(self):
        # Two unit-height demands on the single edge of a 2-vertex tree.
        from repro import Demand, TreeNetwork, TreeProblem

        net = TreeNetwork(2, [(0, 1)], network_id=0)
        p = TreeProblem(n=2, networks=[net],
                        demands=[Demand(0, 0, 1, 1.0), Demand(1, 0, 1, 1.0)])
        ledger = CapacityLedger(p)
        assert ledger.try_admit(0) is not None
        assert ledger.try_admit(1) is None
        with pytest.raises(ValueError, match="no longer fits"):
            ledger.admit(int(ledger.candidates(1)[0]))

    def test_geometry_reused_from_conflict_index(self):
        tree = CapacityLedger(random_tree_problem(n=16, m=6, r=1, seed=5))
        line = CapacityLedger(random_line_problem(n_slots=16, m=6, r=1, seed=5))
        assert tree.index._geometry == "euler"
        assert line.index._geometry == "interval"


class TestLedgerConsistency:
    @pytest.mark.parametrize("seed", range(4))
    def test_loads_match_bruteforce(self, seed):
        p = random_line_problem(n_slots=24, m=12, r=2, seed=seed,
                                height_regime="mixed", max_len=6)
        ledger = CapacityLedger(p)
        rng = np.random.default_rng(seed)
        admitted: list[int] = []
        for step in range(40):
            if admitted and rng.random() < 0.3:
                d = admitted.pop(int(rng.integers(len(admitted))))
                ledger.release(d)
            else:
                d = int(rng.integers(p.num_demands))
                if ledger.try_admit(d) is not None:
                    admitted.append(d)
            ledger.verify()  # never oversubscribed, from first principles
        # Cross-check every route's load against a scratch recompute.
        load: dict = {}
        for d in admitted:
            inst = p.instances()[ledger.admitted_instance(d)]
            for ge in p.global_edges_of(inst):
                load[ge] = load.get(ge, 0.0) + inst.height
        assert ledger.utilization() == pytest.approx(
            max(load.values(), default=0.0)
        )

    def test_feasible_matches_blocked_semantics(self):
        p = random_tree_problem(n=20, m=10, r=1, seed=6,
                                height_regime="mixed")
        ledger = CapacityLedger(p)
        for d in range(5):
            ledger.try_admit(d)
        for d in range(p.num_demands):
            cands = ledger.candidates(d)
            feas = ledger.feasible(cands)
            for iid, ok in zip(cands.tolist(), feas.tolist()):
                assert ok == (not ledger.active.blocked(iid))

    def test_route_loads_reflect_admissions(self):
        from repro import Demand, TreeNetwork, TreeProblem

        net = TreeNetwork(3, [(0, 1), (1, 2)], network_id=0)
        p = TreeProblem(
            n=3, networks=[net],
            demands=[Demand(0, 0, 2, 1.0, height=0.4),
                     Demand(1, 0, 2, 1.0, height=0.4)],
        )
        ledger = CapacityLedger(p)
        iid1 = int(ledger.candidates(1)[0])
        assert ledger.route_loads(iid1).tolist() == [0.0, 0.0]
        ledger.try_admit(0)
        assert ledger.route_loads(iid1).tolist() == [0.4, 0.4]

    def test_snapshot_verifies_and_detects_corruption(self):
        p = random_line_problem(n_slots=20, m=8, r=1, seed=7)
        ledger = CapacityLedger(p)
        for d in range(p.num_demands):
            ledger.try_admit(d)
        ledger.verify()
        # Forcibly corrupt the admitted map: duplicate demand selection.
        if len(ledger._admitted) >= 2:
            ds = sorted(ledger._admitted)
            ledger._admitted[ds[0]] = ledger._admitted[ds[1]]
            with pytest.raises(FeasibilityError):
                ledger.verify()

    def test_index_built_once_per_trace(self):
        tr = poisson_trace("line", events=60, seed=8, departure_prob=0.3)
        ledger = CapacityLedger(tr.problem)
        index = ledger.index
        for ev_d in range(min(5, tr.problem.num_demands)):
            ledger.try_admit(ev_d)
        assert ledger.index is index  # probes never rebuild the index


class TestWithdraw:
    def test_admitted_items_deterministic(self):
        tr = poisson_trace("line", events=80, seed=4, departure_prob=0.0)
        ledger = CapacityLedger(tr.problem)
        for d in range(tr.problem.num_demands):
            ledger.try_admit(d)
        items = ledger.admitted_items()
        assert items == sorted(items)
        assert len(items) == ledger.num_admitted


class TestLedgerIntegrity:
    @staticmethod
    def _busy_ledger():
        tr = poisson_trace("line", events=400, seed=3, departure_prob=0.0)
        ledger = CapacityLedger(tr.problem)
        for d in range(tr.problem.num_demands):
            ledger.try_admit(d)
        assert ledger.num_admitted >= 2
        return ledger

    @staticmethod
    def _state(ledger):
        return (ledger.active._load.tobytes(), dict(ledger._admitted),
                set(ledger.active._members),
                ledger.active._demand_used.tobytes(),
                [set(h) for h in ledger._holders_by_edge])

    def test_release_many_rejects_a_repeated_demand_untouched(self):
        ledger = self._busy_ledger()
        d = sorted(ledger._admitted)[0]
        before = self._state(ledger)
        with pytest.raises(ValueError, match="twice"):
            ledger.release_many([d, d])
        assert self._state(ledger) == before
        ledger.verify()
        iid = ledger.admitted_instance(d)
        assert ledger.release_many([d]) == [iid]
        ledger.verify()

    def test_verify_checks_the_load_vector(self):
        ledger = self._busy_ledger()
        ledger.verify()
        eid = int(np.argmax(ledger.active._load))
        ledger.active._load[eid] += 1e-6
        with pytest.raises(AssertionError, match="edge loads"):
            ledger.verify()

    def test_verify_rejects_a_negative_load(self):
        ledger = self._busy_ledger()
        free = np.flatnonzero(ledger.active._load == 0.0)
        assert len(free)
        ledger.active._load[free[0]] = -1e-6
        with pytest.raises(AssertionError, match="edge loads"):
            ledger.verify()

    def test_verify_checks_active_members(self):
        ledger = self._busy_ledger()
        held = set(ledger._admitted.values())
        spare = next(i for i in range(len(ledger.instances))
                     if i not in held)
        ledger.active._members.add(spare)
        with pytest.raises(AssertionError, match="members"):
            ledger.verify()

    def test_verify_checks_the_cheapest_holder_column(self):
        ledger = self._busy_ledger()
        ledger.verify()
        eid = int(np.flatnonzero(np.isfinite(ledger._cheapest))[0])
        ledger._cheapest[eid] += 1.0
        with pytest.raises(AssertionError, match="cheapest-holder"):
            ledger.verify()

    def test_restore_rebuilds_the_cheapest_holder_column(self):
        tr = poisson_trace("line", events=400, seed=5, departure_prob=0.4)
        live = CapacityLedger(tr.problem)
        for ev in tr.events:
            if isinstance(ev, Arrival):
                live.try_admit(ev.demand_id)
            elif isinstance(ev, Departure) and live.is_admitted(ev.demand_id):
                live.release(ev.demand_id)
        assert np.isfinite(live._cheapest).any()
        fresh = CapacityLedger(tr.problem)
        fresh.restore_state(live.export_state())
        assert fresh._cheapest.tobytes() == live._cheapest.tobytes()
        fresh.verify()
