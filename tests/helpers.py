"""Assertion helpers plus the *scalar reference implementation*.

The classes below are a faithful copy of the pre-vectorization engine
core (per-pair conflict loops, per-edge dict-based duals, from-scratch
second phase), plus the preemption planner as it was before it learned
to prune on a cost bound (`tests/test_preempt_prune.py` replays both).
The engine copies are retained for two purposes:

* the randomized cross-check suite (`tests/test_cross_check.py`) asserts
  the vectorized engine returns byte-identical selected sets and profits;
* the hot-path micro-benchmark (`benchmarks/bench_hot_path.py`) measures
  the vectorized speedup against this baseline.

Do not "improve" these classes — their value is being frozen.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.distributed.mis import greedy_mis, luby_mis, priority_mis
from repro.online.policies import PreemptDensity, PreemptDualGated


def assert_bound(profit: float, opt: float, bound: float, label: str = "") -> None:
    """Assert the approximation guarantee ``profit ≥ opt / bound``."""
    assert profit >= opt / bound - 1e-9, (
        f"{label}: profit {profit} < OPT {opt} / bound {bound}"
    )


# ----------------------------------------------------------------------
# Scalar conflict index (pre-refactor core/conflict.py)
# ----------------------------------------------------------------------


class ScalarConflictIndex:
    """Bucket-based conflict queries with per-pair Python loops."""

    def __init__(self, instances: Sequence, global_edges: Sequence[Sequence]):
        self._instances = list(instances)
        self._edges_of = [frozenset(ge) for ge in global_edges]
        self._by_demand: dict[int, list[int]] = {}
        self._by_edge: dict[object, list[int]] = {}
        for pos, (inst, ge) in enumerate(zip(self._instances, self._edges_of)):
            self._by_demand.setdefault(inst.demand_id, []).append(pos)
            for e in ge:
                self._by_edge.setdefault(e, []).append(pos)

    def __len__(self) -> int:
        return len(self._instances)

    def edges_of(self, iid: int) -> frozenset:
        return self._edges_of[iid]

    def conflicting(self, a: int, b: int) -> bool:
        if a == b:
            return False
        ia, ib = self._instances[a], self._instances[b]
        if ia.demand_id == ib.demand_id:
            return True
        if ia.network_id != ib.network_id:
            return False
        ea, eb = self._edges_of[a], self._edges_of[b]
        if len(ea) > len(eb):
            ea, eb = eb, ea
        return any(e in eb for e in ea)

    def neighbors(self, iid: int, population: set[int] | None = None) -> set[int]:
        inst = self._instances[iid]
        out: set[int] = set()
        for other in self._by_demand[inst.demand_id]:
            if other != iid and (population is None or other in population):
                out.add(other)
        for e in self._edges_of[iid]:
            for other in self._by_edge[e]:
                if other != iid and (population is None or other in population):
                    out.add(other)
        return out

    def subgraph(self, population: Iterable[int]):
        pop = set(population)
        return {iid: self.neighbors(iid, pop) for iid in pop}


# ----------------------------------------------------------------------
# Scalar dual store (pre-refactor core/duals.py)
# ----------------------------------------------------------------------


class ScalarDualState:
    """Sparse dict-backed ``(alpha, beta)`` with per-edge raise loops."""

    def __init__(
        self,
        profits: Sequence[float],
        heights: Sequence[float],
        demand_of: Sequence[int],
        edges_of: Sequence[Iterable],
    ):
        self.profits = [float(p) for p in profits]
        self.heights = [float(h) for h in heights]
        self.demand_of = list(demand_of)
        self.edges_of = [tuple(e) for e in edges_of]
        self.alpha: dict[int, float] = {}
        self.beta: dict[object, float] = {}
        self.raise_log: list[tuple[int, float, tuple, float]] = []

    def lhs(self, iid: int) -> float:
        beta_sum = 0.0
        beta = self.beta
        for e in self.edges_of[iid]:
            b = beta.get(e)
            if b is not None:
                beta_sum += b
        return self.alpha.get(self.demand_of[iid], 0.0) + self.heights[iid] * beta_sum

    def slack(self, iid: int) -> float:
        return self.profits[iid] - self.lhs(iid)

    def raise_unit(self, iid: int, critical: Sequence, include_alpha: bool = True) -> float:
        s = self.slack(iid)
        if s <= 0:
            return 0.0
        denom = len(critical) + (1 if include_alpha else 0)
        delta = s / denom
        if include_alpha:
            a = self.demand_of[iid]
            self.alpha[a] = self.alpha.get(a, 0.0) + delta
        for e in critical:
            self.beta[e] = self.beta.get(e, 0.0) + delta
        self.raise_log.append((iid, delta, tuple(critical), delta))
        return delta

    def raise_narrow(self, iid: int, critical: Sequence) -> float:
        s = self.slack(iid)
        if s <= 0:
            return 0.0
        k = len(critical)
        h = self.heights[iid]
        delta = s / (1.0 + 2.0 * h * k * k)
        a = self.demand_of[iid]
        self.alpha[a] = self.alpha.get(a, 0.0) + delta
        bump = 2.0 * k * delta
        for e in critical:
            self.beta[e] = self.beta.get(e, 0.0) + bump
        self.raise_log.append((iid, delta, tuple(critical), bump))
        return delta

    def objective(self) -> float:
        return sum(self.alpha.values()) + sum(self.beta.values())

    def realized_lambda(self, population: Iterable[int] | None = None) -> float:
        iids = population if population is not None else range(len(self.profits))
        lam = 1.0
        for iid in iids:
            lam = min(lam, self.lhs(iid) / self.profits[iid])
        return lam


# ----------------------------------------------------------------------
# Scalar two-phase engine (pre-refactor algorithms/framework.py core loop)
# ----------------------------------------------------------------------

_EPS = 1e-12


class ScalarTwoPhaseEngine:
    """Reference run of the two-phase framework, entirely scalar.

    Accepts the same ``EngineInput``/``EngineConfig`` the production
    engine takes, so the cross-check can run both off one compile.
    """

    def __init__(self, inp, config):
        self.inp = inp
        self.cfg = config
        self.conflicts = ScalarConflictIndex(inp.instances, inp.edges_of)
        self.duals = ScalarDualState(
            [d.profit for d in inp.instances],
            [d.height for d in inp.instances],
            [d.demand_id for d in inp.instances],
            inp.edges_of,
        )
        self._rng = np.random.default_rng(config.seed)

    def _stage_targets(self) -> list[float]:
        from repro.algorithms.framework import narrow_xi, stage_count, unit_xi

        cfg = self.cfg
        if cfg.single_stage_target is not None:
            return [cfg.single_stage_target]
        xi = cfg.xi
        if xi is None:
            xi = (
                unit_xi(self.inp.delta)
                if cfg.rule == "unit"
                else narrow_xi(self.inp.delta, cfg.hmin)
            )
        b = stage_count(xi, cfg.epsilon)
        return [1.0 - xi**j for j in range(1, b + 1)]

    def _mis(self, population: set[int]) -> tuple[set[int], int]:
        adj = self.conflicts.subgraph(population)
        if self.cfg.mis == "greedy":
            return greedy_mis(adj)
        if self.cfg.mis == "priority":
            return priority_mis(adj)
        return luby_mis(adj, self._rng)

    def run(self) -> tuple[list, dict]:
        targets = self._stage_targets()
        stack: list[list[int]] = []
        duals = self.duals
        if self.cfg.rule == "unit":
            include_alpha = self.cfg.raise_alpha
            raise_fn = lambda iid, crit: duals.raise_unit(iid, crit, include_alpha)
        else:
            raise_fn = duals.raise_narrow
        critical = self.inp.critical
        steps = 0

        for group in self.inp.groups:
            if not group:
                continue
            for target in targets:
                while True:
                    unsat = {
                        iid
                        for iid in group
                        if duals.lhs(iid) < target * duals.profits[iid] - _EPS
                    }
                    if not unsat:
                        break
                    mis, _rounds = self._mis(unsat)
                    for iid in mis:
                        raise_fn(iid, critical[iid])
                    stack.append(sorted(mis))
                    steps += 1

        selected = self._second_phase(stack)
        stats = {
            "steps": steps,
            "dual_objective": duals.objective(),
            "realized_lambda": duals.realized_lambda(),
        }
        return selected, stats

    def _second_phase(self, stack: list[list[int]]) -> list:
        chosen: list[int] = []
        used_demands: set[int] = set()
        if self.cfg.capacity_phase2:
            load: dict[object, float] = {}
            for group in reversed(stack):
                for iid in group:
                    inst = self.inp.instances[iid]
                    if inst.demand_id in used_demands:
                        continue
                    edges = self.inp.edges_of[iid]
                    if all(
                        load.get(e, 0.0) + inst.height <= 1.0 + 1e-9 for e in edges
                    ):
                        chosen.append(iid)
                        used_demands.add(inst.demand_id)
                        for e in edges:
                            load[e] = load.get(e, 0.0) + inst.height
        else:
            used_edges: set[object] = set()
            for group in reversed(stack):
                for iid in group:
                    inst = self.inp.instances[iid]
                    if inst.demand_id in used_demands:
                        continue
                    edges = self.inp.edges_of[iid]
                    if not (edges & used_edges):
                        chosen.append(iid)
                        used_demands.add(inst.demand_id)
                        used_edges |= edges
        return [self.inp.instances[iid] for iid in chosen]


# ----------------------------------------------------------------------
# Unbounded preemption planner and candidate loops (pre-prune
# online/state.py preemption_plan and the preemptive policies' loops)
# ----------------------------------------------------------------------


def reference_preemption_plan(ledger, iid: int):
    """The cheapest-density eviction set, always planned in full.

    NumPy deficits and per-call route/density/height lookups straight
    off the conflict index, exactly as the planner computed them before
    it learned to prune on a cost bound.
    """
    eids = ledger.active._edges(iid)
    deficit = ledger.active._load[eids] + ledger.index._heights[iid] - 1.0
    if (deficit <= 1e-9).all():
        return []
    route = eids.tolist()
    pos_of = {eid: k for k, eid in enumerate(route)}
    admitted = ledger._admitted

    def density(v_iid):
        length = max(len(ledger.index.edges_of(v_iid)), 1)
        return ledger.instances[v_iid].profit / length

    contestants: set[int] = set()
    for eid in route:
        contestants |= ledger._holders_by_edge[eid]
    holders = sorted(contestants, key=lambda d: (density(admitted[d]), d))
    victims: list[int] = []
    for d in holders:
        if (deficit <= 1e-9).all():
            break
        v_iid = admitted[d]
        shared = [pos_of[eid] for eid in ledger.active._edges(v_iid).tolist()
                  if eid in pos_of]
        if not any(deficit[k] > 1e-9 for k in shared):
            continue
        height = float(ledger.index._heights[v_iid])
        for k in shared:
            deficit[k] -= height
        victims.append(d)
    if (deficit <= 1e-9).all():
        return victims
    return None


def _victim_cost(ledger, victims) -> float:
    return math.fsum(ledger.instances[ledger.admitted_instance(v)].profit
                     for v in victims)


class ReferencePreemptDensity(PreemptDensity):
    """``preempt-density`` planning every candidate in full."""

    def batch_kernel(self):
        # The reference decides every arrival through the scalar loop;
        # inheriting the live kernel would compare it with itself.
        return None

    def _best_plan(self, demand_id):
        ledger = self.ledger
        best = None
        best_key = None
        for iid in ledger.candidates(demand_id).tolist():
            length = ledger.route_length(iid)
            if ledger.instances[iid].profit / length < self.threshold:
                continue
            victims = reference_preemption_plan(ledger, iid)
            if not victims:
                continue
            cost = _victim_cost(ledger, victims)
            if ledger.instances[iid].profit <= \
                    (self.factor + self.penalty) * cost:
                continue
            key = (cost, length, iid)
            if best_key is None or key < best_key:
                best, best_key = (iid, victims), key
        return best


class ReferencePreemptDualGated(PreemptDualGated):
    """``preempt-dual-gated`` planning every candidate in full."""

    def batch_kernel(self):
        # Scalar reference, as in ReferencePreemptDensity.
        return None

    def on_arrival(self, demand_id):
        ledger = self.ledger
        cands = ledger.candidates(demand_id)
        ok = ledger.feasible(cands)
        if ok.any():
            return self._admit_cheapest_feasible(cands, ok)
        best = None
        best_cost = math.inf
        for iid in cands.tolist():
            victims = reference_preemption_plan(ledger, iid)
            if not victims:
                continue
            v_cost = (1.0 + self.penalty) * _victim_cost(ledger, victims)
            price = self._freed_route_price(iid, victims)
            if ledger.instances[iid].profit <= v_cost + self.eta * price:
                continue
            cost = v_cost + price
            if cost < best_cost:
                best, best_cost = (iid, victims), cost
        if best is None:
            self.stats["capacity_blocked"] += 1
            self.stats["preempt_rejected"] += 1
            return None
        iid = self._execute_preemption(*best)
        self._note_peak(iid)
        return iid


def reference_policy(name: str, **params):
    """A preemptive policy whose candidate loop plans every candidate
    in full with :func:`reference_preemption_plan` (never pruned)."""
    return {"preempt-density": ReferencePreemptDensity,
            "preempt-dual-gated": ReferencePreemptDualGated}[name](**params)


# ----------------------------------------------------------------------
# Reference geometry interning (the edge-id order journals depend on)
# ----------------------------------------------------------------------


def reference_interning(problem, insts) -> tuple[list, list[int], list[int]]:
    """``(edge_keys, indptr, flat_edges)`` for ``insts`` by the plain
    first-appearance loop over each instance's route frozenset.

    Checkpoint ``load`` vectors are stored by edge id and dual-gated sums
    route prices in row order, so a ledger's interning must equal this.
    """
    routes = [frozenset(problem.global_edges_of(i)) for i in insts]
    edge_index: dict = {}
    indptr = [0]
    flat: list[int] = []
    for route in routes:
        for e in route:
            flat.append(edge_index.setdefault(e, len(edge_index)))
        indptr.append(len(flat))
    return list(edge_index), indptr, flat
