"""The columnar problem pipeline against the per-object reference.

Problems store demands as columns and expand instances with array
operations; ``helpers.reference_instances`` is the per-demand object
loop they replace.  Both must agree field for field and route for
route, whether the problem was built from demand objects or decoded
from a document, and the column validation must reject what the demand
objects reject.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.demand import Demand, WindowDemand
from repro.core.instance import LineProblem, TreeProblem, subproblem_of
from repro.io import load_trace, problem_from_dict, problem_to_dict
from repro.network.line import LineNetwork
from repro.network.tree import TreeNetwork
from repro.online import generate_trace
from repro.workloads import random_line_problem, random_tree_problem

from helpers import (reference_instances, v1_problem_document,
                     v1_trace_document, write_v2_trace)

PROBLEMS = {
    "line-multi-resource": lambda: random_line_problem(
        40, 30, r=3, seed=1, access_prob=0.6, height_regime="mixed"),
    "line-one-placement": lambda: random_line_problem(
        32, 20, r=2, seed=2, window_slack=0.0),
    "tree-multi-network": lambda: random_tree_problem(
        24, 30, r=3, seed=3, access_prob=0.6, height_regime="mixed"),
    "tree-one-network": lambda: random_tree_problem(16, 12, seed=4),
}


def _both(name):
    """The problem built from objects, and the same decoded to columns."""
    built = PROBLEMS[name]()
    return [built, problem_from_dict(json.loads(
        json.dumps(problem_to_dict(built))))]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_instances_match_reference_expansion(name):
    for problem in _both(name):
        ref = reference_instances(problem)
        got = problem.instances()
        assert got == ref
        assert problem.num_instances == len(ref)
        if isinstance(problem, TreeProblem):
            assert [i.path_edges for i in got] == [i.path_edges for i in ref]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_every_instance_route_has_an_edge(name):
    """Validation rejects ``u == v`` and ``proc_time <= 0``, so every
    instance route has at least one edge, however the problem is built
    — from demand objects, from columns, from a format-1 or format-2
    document — and in a sliced shard view of its index.  The ledger's
    capacity probe and the fast path's segment reductions rely on it."""
    built = PROBLEMS[name]()
    tree = isinstance(built, TreeProblem)
    span = built.n if tree else built.n_slots
    nets = built.networks if tree else built.resources
    cls = type(built)
    problems = [
        cls(span, nets, built.demands, access=built.access),
        cls.from_columns(span, nets, dict(built.columns),
                         access=built.access),
        *(problem_from_dict(json.loads(json.dumps(doc)))
          for doc in (v1_problem_document(built), problem_to_dict(built))),
    ]
    for problem in problems:
        index = problem.conflict_index()
        assert len(index) == problem.num_instances > 0
        assert (np.diff(index._indptr) >= 1).all()
    gids = np.arange(0, len(index), 3)
    view = index.sliced(gids, index._dem[gids])
    assert len(view) == len(gids)
    assert (np.diff(view._indptr) >= 1).all()


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_conflict_index_matches_reference_expansion(name):
    for problem in _both(name):
        ref = reference_instances(problem)
        index = problem.conflict_index()
        assert len(index) == len(ref)
        for inst in ref:
            iid = inst.instance_id
            assert index.instance(iid) == inst
            assert index.edges_of(iid) == frozenset(
                problem.global_edges_of(inst))
        by_demand: dict = {}
        for inst in ref:
            by_demand.setdefault(inst.demand_id, []).append(inst.instance_id)
        for d, iids in by_demand.items():
            assert index.candidates(d).tolist() == iids


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_subproblem_slices_columns(name):
    problem = PROBLEMS[name]()
    ids = list(range(problem.num_demands))[1::3]
    sub = subproblem_of(problem, ids)
    demands = [replace(problem.demands[d], demand_id=i)
                for i, d in enumerate(ids)]
    access = [problem.access[d] for d in ids]
    if isinstance(problem, TreeProblem):
        expect = TreeProblem(problem.n, problem.networks, demands, access)
    else:
        expect = LineProblem(problem.n_slots, problem.resources, demands,
                             access)
    assert sub.instances() == reference_instances(expect)
    assert sub.access == expect.access


def _tree_doc(demand: dict) -> dict:
    return {"format": 1, "kind": "tree", "n": 3,
            "networks": [[[0, 1], [1, 2]]],
            "demands": [{"u": 0, "v": 2, "profit": 1.0}, demand],
            "access": [[0], [0]]}


def _line_doc(demand: dict) -> dict:
    return {"format": 1, "kind": "line", "n_slots": 8, "num_resources": 1,
            "demands": [{"release": 0, "deadline": 3, "proc_time": 2,
                         "profit": 1.0}, demand],
            "access": [[0], [0]]}


BAD_TREE = [
    ({"u": 1, "v": 1, "profit": 1.0}, "endpoints must differ"),
    ({"u": 0, "v": 1, "profit": 0.0}, "profit must be positive"),
    ({"u": 0, "v": 1, "profit": math.nan}, "profit must be finite"),
    ({"u": 0, "v": 1, "profit": math.inf}, "profit must be finite"),
    ({"u": 0, "v": 1, "profit": 1.0, "height": 1.5}, "height must lie"),
    ({"u": 0, "v": 1, "profit": 1.0, "height": 0.0}, "height must lie"),
    ({"u": 0, "v": 5, "profit": 1.0}, "endpoints outside"),
    ({"u": 0.5, "v": 1, "profit": 1.0}, "u must be an integer"),
    ({"u": 0, "v": 1, "profit": "1"}, "profit must be a number"),
]

BAD_LINE = [
    ({"release": 0, "deadline": 3, "proc_time": 0, "profit": 1.0},
     "proc_time must be positive"),
    ({"release": 4, "deadline": 3, "proc_time": 1, "profit": 1.0},
     "exceeds deadline"),
    ({"release": 0, "deadline": 1, "proc_time": 3, "profit": 1.0},
     "shorter than proc_time"),
    ({"release": 0, "deadline": 9, "proc_time": 2, "profit": 1.0},
     "deadline 9 outside timeline"),
    ({"release": -3, "deadline": 2, "proc_time": 2, "profit": 1.0},
     "release -3 outside timeline"),
    ({"release": 0, "deadline": 3, "proc_time": 2, "profit": math.nan},
     "profit must be finite"),
]


@pytest.mark.parametrize("demand,message", BAD_TREE)
def test_tree_column_validation_names_the_demand(demand, message):
    with pytest.raises(ValueError, match=f"demand 1.*{message}"):
        problem_from_dict(_tree_doc(demand))


@pytest.mark.parametrize("demand,message", BAD_LINE)
def test_line_column_validation_names_the_demand(demand, message):
    with pytest.raises(ValueError, match=f"demand 1.*{message}"):
        problem_from_dict(_line_doc(demand))


def test_negative_release_rejected_from_objects():
    res = LineNetwork(8, network_id=0)
    with pytest.raises(ValueError, match="demand 0 release -3"):
        LineProblem(n_slots=8, resources=[res],
                    demands=[WindowDemand(0, -3, 2, 2, 1.0)])


@pytest.mark.parametrize("profit", [math.nan, math.inf])
def test_non_finite_profit_rejected_by_demands(profit):
    with pytest.raises(ValueError, match="profit must be finite"):
        Demand(0, 0, 1, profit)
    with pytest.raises(ValueError, match="profit must be finite"):
        WindowDemand(0, 0, 3, 2, profit)


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_load_trace_rejects_non_finite_profit(token, tmp_path):
    trace = generate_trace(kind="line", events=20, seed=1)
    path = tmp_path / "t.json"
    # The format-1 record layout; format 2 is checked below.
    path.write_text(json.dumps(v1_trace_document(trace)))
    doc = json.loads(path.read_text())
    doc["problem"]["demands"][2]["profit"] = float(token.replace(
        "Infinity", "inf"))
    text = json.dumps(doc)
    assert token in text
    path.write_text(text)
    with pytest.raises(ValueError, match="demand 2: profit must be finite"):
        load_trace(str(path))


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_load_trace_v2_rejects_non_finite_profit(token, tmp_path):
    trace = generate_trace(kind="line", events=20, seed=1)
    path = tmp_path / "t.json"
    write_v2_trace(trace, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == 2
    doc["problem"]["demands"]["profit"][2] = float(token.replace(
        "Infinity", "inf"))
    text = json.dumps(doc)
    assert token in text
    path.write_text(text)
    with pytest.raises(ValueError, match="demand 2: profit must be finite"):
        load_trace(str(path))


def test_access_validation_matches_objects():
    net = TreeNetwork(3, [(0, 1), (1, 2)], network_id=0)
    doc = _tree_doc({"u": 0, "v": 1, "profit": 1.0})
    doc["access"] = [[0], []]
    with pytest.raises(ValueError, match="processor 1 can access no"):
        problem_from_dict(doc)
    doc["access"] = [[0], [0, 3]]
    with pytest.raises(ValueError, match="processor 1 access set"):
        problem_from_dict(doc)
    with pytest.raises(ValueError, match="processor 1 access set"):
        TreeProblem(3, [net], [Demand(0, 0, 2, 1.0), Demand(1, 0, 1, 1.0)],
                    access=[{0}, {0, 3}])
