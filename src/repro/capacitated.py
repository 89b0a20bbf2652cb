"""The capacitated scenario (abstract / IPDPS title: *non-uniform
bandwidths*).

The paper's body treats edges of uniform bandwidth 1 with per-demand
bandwidth requirements (*heights*) — Sections 6–7, fully implemented in
:mod:`repro.algorithms`.  The abstract additionally claims the algorithms
"can also handle the capacitated scenario, wherein the demands and edges
have bandwidth requirements and capacities, respectively", while footnote
1 restricts the treatment to *uniform* edge capacities (the general
varying-capacity case is the unsplittable flow problem, explicitly out of
scope).  This module supplies both pieces:

* :func:`normalize_uniform_capacity` — the reduction the abstract relies
  on: with every edge offering ``c`` units, dividing all demand heights
  by ``c`` yields an equivalent unit-capacity instance, so every theorem
  applies verbatim (heights ≤ c/2 become narrow, etc.).
  :func:`solve_tree_capacitated` / :func:`solve_line_capacitated` wrap
  the reduction around the Section 6/7 algorithms and lift the solution
  back.
* :func:`solve_optimal_capacitated` / :func:`lp_upper_bound_capacitated`
  — exact/LP solvers that accept genuinely *per-edge* capacities (the
  UFP generalization), used to sanity-check the reduction and to quantify
  how far the uniform-capacity algorithms are from varying-capacity
  optima.  No approximation guarantee is claimed there — the paper makes
  none.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Mapping

import numpy as np

from .core.instance import LineProblem, TreeProblem
from .core.solution import Solution
from .lp.model import build_lp

__all__ = [
    "normalize_uniform_capacity",
    "solve_tree_capacitated",
    "solve_line_capacitated",
    "solve_optimal_capacitated",
    "lp_upper_bound_capacitated",
]


def normalize_uniform_capacity(problem, capacity: float):
    """Reduce a uniform-capacity instance to the unit-capacity model.

    Every edge offers ``capacity`` units; every demand keeps its height
    ``h`` but consumes ``h / capacity`` of the normalized edge.  Demands
    with ``h > capacity`` are infeasible and rejected.

    Returns a new problem of the same type with scaled heights.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    for a in problem.demands:
        if a.height > capacity + 1e-12:
            raise ValueError(
                f"demand {a.demand_id} height {a.height} exceeds the edge "
                f"capacity {capacity}"
            )
    demands = [
        dataclasses.replace(a, height=min(a.height / capacity, 1.0))
        for a in problem.demands
    ]
    if isinstance(problem, TreeProblem):
        return TreeProblem(n=problem.n, networks=problem.networks,
                           demands=demands, access=list(problem.access))
    if isinstance(problem, LineProblem):
        return LineProblem(n_slots=problem.n_slots, resources=problem.resources,
                           demands=demands, access=list(problem.access))
    raise TypeError(f"unsupported problem type {type(problem).__name__}")


def _lift(solution: Solution, problem) -> Solution:
    """Map a normalized solution's selections back to original heights."""
    by_key: dict[tuple, object] = {}
    for inst in problem.instances():
        if isinstance(problem, TreeProblem):
            by_key[(inst.demand_id, inst.network_id)] = inst
        else:
            by_key[(inst.demand_id, inst.network_id, inst.start, inst.end)] = inst
    lifted = []
    for inst in solution.selected:
        if isinstance(problem, TreeProblem):
            lifted.append(by_key[(inst.demand_id, inst.network_id)])
        else:
            lifted.append(
                by_key[(inst.demand_id, inst.network_id, inst.start, inst.end)]
            )
    return Solution(selected=lifted, stats=dict(solution.stats))


def solve_tree_capacitated(
    problem: TreeProblem, capacity: float, *, epsilon: float = 0.1,
    seed: int | None = 0, mis="luby",
) -> Solution:
    """Theorem 6.3 under uniform edge capacity ``c`` (the reduction).

    Normalizes heights by ``c``, runs the arbitrary-height algorithm, and
    lifts the selection back to the original instance.  The (80+ε) bound
    carries over verbatim.
    """
    from .algorithms.tree_arbitrary import solve_tree_arbitrary

    norm = normalize_uniform_capacity(problem, capacity)
    sol = solve_tree_arbitrary(norm, epsilon=epsilon, seed=seed, mis=mis)
    out = _lift(sol, problem)
    out.stats["capacity"] = capacity
    out.stats["algorithm"] = f"tree-capacitated(c={capacity:g})"
    return out


def solve_line_capacitated(
    problem: LineProblem, capacity: float, *, epsilon: float = 0.1,
    seed: int | None = 0, mis="luby",
) -> Solution:
    """Theorem 7.2 under uniform edge capacity ``c`` (the reduction)."""
    from .algorithms.line_windows import solve_line_arbitrary

    norm = normalize_uniform_capacity(problem, capacity)
    sol = solve_line_arbitrary(norm, epsilon=epsilon, seed=seed, mis=mis)
    out = _lift(sol, problem)
    out.stats["capacity"] = capacity
    out.stats["algorithm"] = f"line-capacitated(c={capacity:g})"
    return out


def _capacitated_lp(problem, capacities: Mapping[Hashable, float] | float):
    """The packing LP with per-edge capacities on the RHS."""
    lp = build_lp(problem)
    b = lp.b.copy()
    for row, label in enumerate(lp.row_labels):
        if label[0] == "edge":
            if isinstance(capacities, Mapping):
                cap = capacities.get(label[1], 1.0)
            else:
                cap = float(capacities)
            if cap <= 0:
                raise ValueError(f"capacity of edge {label[1]} must be positive")
            b[row] = cap
    return lp, b


def lp_upper_bound_capacitated(
    problem, capacities: Mapping[Hashable, float] | float
) -> float:
    """Fractional optimum with per-edge capacities (UFP relaxation).

    ``capacities`` maps global edge ids ``(network, edge)`` /
    ``(resource, slot)`` to their bandwidth (missing edges default to 1),
    or is a single uniform value.
    """
    from scipy import optimize

    lp, b = _capacitated_lp(problem, capacities)
    if lp.num_vars == 0:
        return 0.0
    res = optimize.linprog(c=-lp.profits, A_ub=lp.A, b_ub=b,
                           bounds=(0.0, 1.0), method="highs")
    if not res.success:  # pragma: no cover
        raise RuntimeError(f"capacitated LP failed: {res.message}")
    return float(-res.fun)


def solve_optimal_capacitated(
    problem, capacities: Mapping[Hashable, float] | float,
    *, time_limit: float | None = None,
) -> Solution:
    """Integral optimum with per-edge capacities via HiGHS MILP."""
    from scipy import optimize

    instances = problem.instances()
    lp, b = _capacitated_lp(problem, capacities)
    if lp.num_vars == 0:
        return Solution(selected=[], stats={"algorithm": "milp-cap",
                                            "optimal": True})
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    res = optimize.milp(
        c=-lp.profits,
        constraints=optimize.LinearConstraint(lp.A, -np.inf, b),  # type: ignore[arg-type]
        integrality=np.ones(lp.num_vars),
        bounds=optimize.Bounds(0.0, 1.0),
        options=options,
    )
    if res.x is None:  # pragma: no cover
        raise RuntimeError(f"capacitated MILP failed: {res.message}")
    chosen = [instances[j] for j in range(lp.num_vars) if res.x[j] > 1 - 1e-6]
    return Solution(
        selected=chosen,
        stats={
            "algorithm": "milp-cap",
            "optimal": bool(res.status == 0),
            "objective": float(-res.fun),
        },
    )
