"""Pins the static geometry a ledger builds: edge ids in canonical key
order, ascending CSR rows, the candidate lookup, and the legacy edge
numbering old checkpoints were written in.

Journal checkpoints store per-edge vectors by edge id and the dual-gated
policy sums route prices in row order, so any change to either would
silently change resumed state or certificates.  Checkpoints written
before edge ids followed key order are re-keyed through the legacy
first-appearance numbering, which ``helpers.reference_interning``
reproduces independently.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.core.conflict import ConflictIndex
from repro.io import load_trace
from repro.online.state import CapacityLedger
from repro.service.service import _legacy_edge_ids
from repro.sharding import ShardPlanner, SharedGeometry

from helpers import reference_interning

DATA_DIR = pathlib.Path(__file__).parent / "data"
TRACES = ["trace_bursty_line.json", "trace_diurnal_line.json",
          "trace_poisson_tree.json"]


def _assert_canonical(index, problem, insts):
    """Ids rank the keys in use, rows ascend, and each row is exactly
    the instance's route."""
    keys = index._edge_keys
    assert keys == sorted(set(keys))
    assert index.num_edges == len(keys)
    used = set()
    for inst in insts:
        used.update(problem.global_edges_of(inst))
    assert set(keys) == used
    assert len(index) == len(insts)
    for inst in insts:
        row = index.edge_ids(inst.instance_id).tolist()
        assert row == sorted(set(row))
        assert ([keys[e] for e in row]
                == sorted(problem.global_edges_of(inst)))


@pytest.mark.parametrize("name", TRACES)
def test_ledger_geometry_is_canonical(name):
    problem = load_trace(str(DATA_DIR / name)).problem
    ledger = CapacityLedger(problem)
    insts = problem.instances()
    _assert_canonical(ledger.index, problem, insts)
    # The generic constructor interns by the same rule: one numbering.
    generic = ConflictIndex(insts, [problem.global_edges_of(i)
                                    for i in insts])
    assert generic._edge_keys == ledger.index._edge_keys
    assert generic._indptr.tolist() == ledger.index._indptr.tolist()
    assert generic._flat_edges.tolist() == ledger.index._flat_edges.tolist()


@pytest.mark.parametrize("name", TRACES)
def test_candidates_reject_out_of_range(name):
    problem = load_trace(str(DATA_DIR / name)).problem
    ledger = CapacityLedger(problem)
    for d in (-1, problem.num_demands):
        with pytest.raises(KeyError):
            ledger.candidates(d)
    by_demand: dict = {}
    for inst in problem.instances():
        by_demand.setdefault(inst.demand_id, []).append(inst.instance_id)
    for d, iids in by_demand.items():
        assert ledger.candidates(d).tolist() == iids


@pytest.mark.parametrize("name", TRACES)
def test_legacy_edge_ids_match_reference_interning(name):
    problem = load_trace(str(DATA_DIR / name)).problem
    ledger = CapacityLedger(problem)
    legacy_keys, _, _ = reference_interning(problem, problem.instances())
    new_id = {key: e for e, key in enumerate(ledger.index._edge_keys)}
    ids = _legacy_edge_ids(ledger)
    assert ids.tolist() == [new_id[key] for key in legacy_keys]
    assert sorted(ids.tolist()) == list(range(ledger.index.num_edges))


def test_shard_view_shares_canonical_ids():
    problem = load_trace(str(DATA_DIR / "trace_poisson_tree.json")).problem
    plan = ShardPlanner("subtree").plan(problem, 2)
    geometry = SharedGeometry(problem, plan)
    full = geometry.coordinator.index
    _assert_canonical(full, problem, problem.instances())
    view = geometry.shard_view(1)
    assert view.index._edge_keys is full._edge_keys
    assert view.index.num_edges == full.num_edges
    gids = plan.instance_map(1)
    rows = [full.edge_ids(g).tolist() for g in gids]
    assert view.index._indptr.tolist() == np.cumsum(
        [0] + [len(r) for r in rows]).tolist()
    assert view.index._flat_edges.tolist() == [e for r in rows for e in r]
    sub = plan.subproblem(1)
    assert len(view.instances) == len(gids)
    for inst in view.instances:
        assert (view.index.edges_of(inst.instance_id)
                == frozenset(sub.global_edges_of(inst)))
        assert view.index.instance(inst.instance_id) == inst
