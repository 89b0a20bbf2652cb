"""Tests for the vectorized core primitives the engine refactor added:
Euler-tour index, batched conflict adjacency, the incremental active set,
and batched dual raises."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import (
    ConflictIndex,
    DualState,
    make_tree,
    random_line_problem,
    random_tree_problem,
)

from helpers import ScalarConflictIndex, ScalarDualState


def _index(problem, with_trees=True):
    insts = problem.instances()
    edges = [problem.global_edges_of(d) for d in insts]
    trees = None
    if with_trees and hasattr(problem, "networks"):
        trees = {net.network_id: net for net in problem.networks}
    return ConflictIndex(insts, edges, trees=trees)


class TestEulerTourIndex:
    @pytest.mark.parametrize("topology", ["path", "star", "caterpillar",
                                          "binary", "random"])
    def test_batch_lca_matches_climbing(self, topology):
        t = make_tree(30, topology, seed=5)
        ei = t.euler_index()
        pairs = list(itertools.combinations(range(30), 2))
        us = np.array([a for a, _ in pairs])
        vs = np.array([b for _, b in pairs])
        got = ei.batch_lca(us, vs)
        want = np.array([t.lca(a, b) for a, b in pairs])
        assert (got == want).all()

    def test_is_ancestor(self):
        t = make_tree(25, "random", seed=6)
        ei = t.euler_index()
        pairs = list(itertools.product(range(25), repeat=2))
        a = np.array([x for x, _ in pairs])
        b = np.array([y for _, y in pairs])
        got = ei.is_ancestor(a, b)
        want = np.array([t.lca(x, y) == x for x, y in pairs])
        assert (got == want).all()

    def test_path_overlap_matrix_matches_edge_sets(self):
        t = make_tree(24, "caterpillar", seed=7)
        ei = t.euler_index()
        rng = np.random.default_rng(7)
        us = rng.integers(0, 24, 15)
        vs = (us + 1 + rng.integers(0, 22, 15)) % 24
        M = ei.path_overlap_matrix(us, vs)
        paths = [set(t.path_edges(int(u), int(v))) for u, v in zip(us, vs)]
        for i, j in itertools.product(range(15), repeat=2):
            assert M[i, j] == bool(paths[i] & paths[j])


class TestBatchedAdjacency:
    @pytest.mark.parametrize("seed", range(5))
    def test_tree_adjacency_matches_scalar(self, seed):
        p = random_tree_problem(n=14, m=10, r=2, seed=seed)
        ci = _index(p)
        sci = ScalarConflictIndex(p.instances(),
                                  [p.global_edges_of(d) for d in p.instances()])
        pop = set(range(0, len(p.instances()), 2))
        assert ci.adjacency(pop) == sci.subgraph(pop)

    @pytest.mark.parametrize("seed", range(5))
    def test_line_adjacency_matches_scalar(self, seed):
        p = random_line_problem(n_slots=20, m=8, r=2, seed=seed, max_len=6)
        ci = _index(p, with_trees=False)
        sci = ScalarConflictIndex(p.instances(),
                                  [p.global_edges_of(d) for d in p.instances()])
        pop = set(range(len(p.instances())))
        assert ci.adjacency(pop) == sci.subgraph(pop)

    def test_bucket_fallback_matches_scalar(self):
        p = random_tree_problem(n=14, m=10, r=2, seed=9)
        ci = _index(p, with_trees=False)  # no geometry → bucket expansion
        assert ci._geometry == "buckets"
        sci = ScalarConflictIndex(p.instances(),
                                  [p.global_edges_of(d) for d in p.instances()])
        pop = set(range(len(p.instances())))
        assert ci.adjacency(pop) == sci.subgraph(pop)

    def test_empty_population(self):
        p = random_tree_problem(n=10, m=5, r=1, seed=0)
        assert _index(p).adjacency(set()) == {}


class TestLazyBuckets:
    @pytest.mark.parametrize("kind", ["tree", "line"])
    def test_buckets_built_on_first_neighbors_call(self, kind):
        if kind == "tree":
            p = random_tree_problem(n=20, m=14, r=2, seed=4)
        else:
            p = random_line_problem(n_slots=24, m=12, r=2, seed=4)
        ci = _index(p)
        assert ci._by_edge is None
        insts = p.instances()
        ref = ScalarConflictIndex(insts,
                                  [p.global_edges_of(d) for d in insts])
        assert ci.neighbors(0) == ref.neighbors(0)
        assert ci._by_edge is not None
        pop = set(range(0, len(insts), 2))
        for iid in range(len(insts)):
            assert ci.neighbors(iid) == ref.neighbors(iid)
            assert ci.neighbors(iid, pop) == ref.neighbors(iid, pop)


class TestBlockedMaskProbe:
    """On small candidate sets the batched gather/segment probe answers
    as a row-by-row probe does.  (The online ledger's own row-by-row
    branch is checked against its batched one in
    ``test_online_state.py``.)"""

    @staticmethod
    def _population(rng, n_inst=40, n_edges=30, n_demands=25):
        from types import SimpleNamespace

        insts, edges = [], []
        for iid in range(n_inst):
            k = int(rng.integers(1, 6))
            edges.append(sorted(rng.choice(n_edges, size=k,
                                           replace=False).tolist()))
            insts.append(SimpleNamespace(
                instance_id=iid, demand_id=int(rng.integers(n_demands)),
                network_id=0, height=float(rng.uniform(0.05, 1.0))))
        return ConflictIndex(insts, edges)

    @pytest.mark.parametrize("capacities", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_small_sets_match_batched_path(self, capacities, seed):
        rng = np.random.default_rng(seed)
        ci = self._population(rng)
        active = ci.active_set(capacities=capacities)
        active._load[:] = np.where(rng.random(ci.num_edges) < 0.3, 0.0,
                                   rng.uniform(0.0, 1.0, ci.num_edges))
        active._demand_used[:] = rng.random(len(active._demand_used)) < 0.3

        def probe(iid):
            if active._demand_used[ci._dix[iid]]:
                return True
            top = active._load[ci.edge_ids(iid)].max()
            if capacities:
                return bool(top + ci._heights[iid] > 1.0 + 1e-9)
            return bool(top > 0.0)

        for k in range(2, 17):
            for _ in range(10):
                cands = rng.choice(len(ci), size=k, replace=False)
                batched = active.blocked_mask(cands)
                assert batched.dtype == bool
                assert batched.tolist() == [probe(i) for i in
                                            cands.tolist()], (k, cands)


class TestActiveConflictSet:
    def test_unit_blocking_matches_brute_force(self):
        p = random_tree_problem(n=16, m=12, r=2, seed=11)
        ci = _index(p)
        insts = p.instances()
        edges = [frozenset(p.global_edges_of(d)) for d in insts]
        active = ci.active_set()
        members: list[int] = []
        for iid in range(0, len(insts), 3):
            if not active.blocked_mask([iid])[0]:
                active.add_all([iid])
                members.append(iid)
        used_edges = set().union(*(edges[i] for i in members)) if members else set()
        used_demands = {insts[i].demand_id for i in members}
        got = active.blocked_mask(np.arange(len(insts)))
        for iid in range(len(insts)):
            want = (insts[iid].demand_id in used_demands
                    or bool(edges[iid] & used_edges))
            assert got[iid] == want

    def test_capacity_mode_respects_heights(self):
        p = random_line_problem(n_slots=16, m=10, r=1, seed=12,
                                height_regime="narrow", hmin=0.3)
        ci = _index(p, with_trees=False)
        insts = p.instances()
        active = ci.active_set(capacities=True)
        loads: dict = {}
        used_demands: set = set()
        for iid in range(len(insts)):
            inst = insts[iid]
            ge = p.global_edges_of(inst)
            fits = inst.demand_id not in used_demands and all(
                loads.get(e, 0.0) + inst.height <= 1.0 + 1e-9 for e in ge
            )
            assert active.blocked_mask([iid])[0] == (not fits)
            if fits:
                active.add_all([iid])
                used_demands.add(inst.demand_id)
                for e in ge:
                    loads[e] = loads.get(e, 0.0) + inst.height


class TestBatchedDuals:
    def _states(self, seed):
        p = random_tree_problem(n=14, m=10, r=2, seed=seed)
        insts = p.instances()
        edges = [tuple(p.global_edges_of(d)) for d in insts]
        args = ([d.profit for d in insts], [d.height for d in insts],
                [d.demand_id for d in insts], edges)
        crit = {i: edges[i][:2] for i in range(len(insts))}
        vec = DualState(*args)
        vec.set_critical(crit)
        ref = ScalarDualState(*args)
        return p, insts, crit, vec, ref

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_batch_equals_sequential(self, seed):
        p, insts, crit, vec, ref = self._states(seed)
        ci = _index(p)
        adj = ci.adjacency(set(range(len(insts))))
        from repro.distributed.mis import greedy_mis

        mis, _ = greedy_mis(adj)
        batch = sorted(mis)
        vec.raise_unit_batch(np.asarray(batch, dtype=np.int64))
        for iid in batch:
            ref.raise_unit(iid, crit[iid])
        for iid in range(len(insts)):
            assert vec.lhs(iid) == ref.lhs(iid)
        lhs_all = vec.lhs_batch(np.arange(len(insts)))
        for iid in range(len(insts)):
            assert lhs_all[iid] == pytest.approx(ref.lhs(iid), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_narrow_batch_equals_sequential(self, seed):
        p, insts, crit, vec, ref = self._states(seed)
        ci = _index(p)
        from repro.distributed.mis import greedy_mis

        mis, _ = greedy_mis(ci.adjacency(set(range(len(insts)))))
        batch = sorted(mis)
        vec.raise_narrow_batch(np.asarray(batch, dtype=np.int64))
        for iid in batch:
            ref.raise_narrow(iid, crit[iid])
        for iid in range(len(insts)):
            assert vec.lhs(iid) == ref.lhs(iid)

    def test_raise_log_matches(self, ):
        p, insts, crit, vec, ref = self._states(2)
        batch = [0, 5]
        vec.raise_unit_batch(np.asarray(batch, dtype=np.int64))
        for iid in batch:
            ref.raise_unit(iid, crit[iid])
        assert vec.raise_log == ref.raise_log

    def test_plan_reuse_is_exact(self):
        p, insts, crit, vec, ref = self._states(3)
        arr = np.arange(len(insts))
        plan = vec.make_plan(arr)
        before = vec.lhs_batch(arr).copy()
        assert (vec.lhs_batch(plan=plan) == before).all()
        vec.raise_unit_batch(np.asarray([0], dtype=np.int64))
        assert (vec.lhs_batch(plan=plan) == vec.lhs_batch(arr)).all()

    def test_unsatisfied_mask_matches_scalar_comparison(self):
        p, insts, crit, vec, ref = self._states(1)
        vec.raise_unit_batch(np.asarray([0, 3], dtype=np.int64))
        for iid in [0, 3]:
            ref.raise_unit(iid, crit[iid])
        arr = np.arange(len(insts))
        mask = vec.unsatisfied_mask(arr, 0.5)
        for iid in range(len(insts)):
            want = ref.lhs(iid) < 0.5 * ref.profits[iid] - 1e-12
            assert mask[iid] == want
