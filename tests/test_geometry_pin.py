"""Pins the static geometry a ledger builds: edge ids, CSR rows and the
candidate lookup must match the reference interning in ``helpers``.

Journal checkpoints store per-edge loads by edge id and the dual-gated
policy sums route prices in row order, so any change to either would
silently change resumed state or certificates.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.io import load_trace
from repro.online.state import CapacityLedger
from repro.sharding import ShardPlanner, SharedGeometry

from helpers import reference_interning

DATA_DIR = pathlib.Path(__file__).parent / "data"
TRACES = ["trace_bursty_line.json", "trace_diurnal_line.json",
          "trace_poisson_tree.json"]


def _edge_keys(index) -> list:
    """The index's edge keys in edge-id order."""
    keys = getattr(index, "_edge_keys", None)
    if keys is None:  # an index that keeps the key -> id dict instead
        keys = index._edge_index
    return list(keys)


def _assert_pinned(index, keys, indptr, flat):
    assert _edge_keys(index) == keys
    assert index.num_edges == len(keys)
    assert index._indptr.tolist() == indptr
    assert index._flat_edges.tolist() == flat


@pytest.mark.parametrize("name", TRACES)
def test_ledger_geometry_matches_reference(name):
    problem = load_trace(str(DATA_DIR / name)).problem
    ledger = CapacityLedger(problem)
    insts = problem.instances()
    _assert_pinned(ledger.index, *reference_interning(problem, insts))
    for inst in insts:
        assert (ledger.index.edges_of(inst.instance_id)
                == frozenset(problem.global_edges_of(inst)))


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


def test_shard_view_shares_reference_interning():
    problem = load_trace(str(DATA_DIR / "trace_poisson_tree.json")).problem
    plan = ShardPlanner("subtree").plan(problem, 2)
    geometry = SharedGeometry(problem, plan)
    keys, indptr, flat = reference_interning(problem, problem.instances())
    _assert_pinned(geometry.coordinator.index, keys, indptr, flat)
    view = geometry.shard_view(1)
    gids = plan.instance_map(1)
    rows = [flat[indptr[g]:indptr[g + 1]] for g in gids]
    _assert_pinned(view.index, keys,
                   np.cumsum([0] + [len(r) for r in rows]).tolist(),
                   [e for r in rows for e in r])
    sub = plan.subproblem(1)
    for inst in view.instances:
        assert (view.index.edges_of(inst.instance_id)
                == frozenset(sub.global_edges_of(inst)))
