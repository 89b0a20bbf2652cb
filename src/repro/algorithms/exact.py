"""Exact optima and relaxation bounds — the denominators of every measured
approximation ratio in the benchmark suite.

Three rungs, weakest precondition first:

* :func:`lp_upper_bound` — the fractional packing LP via HiGHS
  (:func:`scipy.optimize.linprog`).  Always available; measured ratios
  against it are *conservative* (true ratios can only be better).
* :func:`solve_optimal` — the integral optimum via HiGHS MILP
  (:func:`scipy.optimize.milp`).  Practical into the thousands of
  instances; the problem is NP-hard so worst cases exist.
* :func:`brute_force_optimal` — branch-and-bound over per-demand choices,
  for tiny instances; cross-checks the MILP in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..core.solution import Solution
from ..lp.model import build_lp
from .registry import register

__all__ = ["lp_upper_bound", "solve_optimal", "brute_force_optimal"]

#: Feasibility tolerance when rounding MILP variable values to {0, 1}.
_BIN_TOL = 1e-6


def lp_upper_bound(problem) -> float:
    """Fractional optimum of the packing LP (≥ integral OPT)."""
    from scipy import optimize

    lp = build_lp(problem)
    if lp.num_vars == 0:
        return 0.0
    res = optimize.linprog(
        c=-lp.profits,
        A_ub=lp.A,
        b_ub=lp.b,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:  # pragma: no cover - HiGHS is reliable on packing LPs
        raise RuntimeError(f"LP relaxation failed: {res.message}")
    return float(-res.fun)


@register(
    "exact",
    family="any",
    description="integral optimum via MILP (HiGHS branch-and-cut)",
    accepts=("time_limit",),
)
def solve_optimal(problem, *, time_limit: float | None = None) -> Solution:
    """Integral optimum via MILP (HiGHS branch-and-cut).

    Returns a verified-feasible :class:`~repro.core.solution.Solution`;
    ``stats["optimal"]`` records whether HiGHS proved optimality (it may
    be ``False`` only when ``time_limit`` cut the search short — the
    incumbent is still feasible).
    """
    from scipy import optimize

    instances = problem.instances()
    lp = build_lp(problem)
    if lp.num_vars == 0:
        return Solution(selected=[], stats={"algorithm": "milp", "optimal": True})
    constraints = optimize.LinearConstraint(
        lp.A, -np.inf, lp.b  # type: ignore[arg-type]
    )
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    res = optimize.milp(
        c=-lp.profits,
        constraints=constraints,
        integrality=np.ones(lp.num_vars),
        bounds=optimize.Bounds(0.0, 1.0),
        options=options,
    )
    if res.x is None:  # pragma: no cover - packing MILPs always have x=0
        raise RuntimeError(f"MILP failed: {res.message}")
    chosen = [instances[j] for j in range(lp.num_vars) if res.x[j] > 1.0 - _BIN_TOL]
    return Solution(
        selected=chosen,
        stats={
            "algorithm": "milp",
            "optimal": bool(res.status == 0),
            "objective": float(-res.fun),
            "mip_gap": float(getattr(res, "mip_gap", 0.0) or 0.0),
        },
    )


def brute_force_optimal(problem, *, max_instances: int = 26) -> Solution:
    """Branch-and-bound over per-demand choices (tiny instances only).

    Branches demand by demand (skip, or pick one of its instances),
    pruning with the remaining-profit bound.  Raises if the instance
    count exceeds ``max_instances`` — use :func:`solve_optimal` instead.
    """
    instances = problem.instances()
    if len(instances) > max_instances:
        raise ValueError(
            f"{len(instances)} instances exceed the brute-force cap "
            f"{max_instances}"
        )
    by_demand: dict[int, list] = {}
    for d in instances:
        by_demand.setdefault(d.demand_id, []).append(d)
    demand_ids = sorted(by_demand)
    # Remaining max profit from demand position i onward.
    suffix = [0.0] * (len(demand_ids) + 1)
    for i in range(len(demand_ids) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max(d.profit for d in by_demand[demand_ids[i]])

    edges_of = {d.instance_id: problem.global_edges_of(d) for d in instances}
    best_profit = -1.0
    best: list = []
    load: dict = {}
    picked: list = []

    def dfs(i: int, profit: float) -> None:
        nonlocal best_profit, best
        if profit + suffix[i] <= best_profit + 1e-12:
            return
        if i == len(demand_ids):
            if profit > best_profit:
                best_profit = profit
                best = list(picked)
            return
        # Branch: take one of this demand's instances...
        for d in by_demand[demand_ids[i]]:
            edges = edges_of[d.instance_id]
            if all(load.get(e, 0.0) + d.height <= 1.0 + 1e-9 for e in edges):
                for e in edges:
                    load[e] = load.get(e, 0.0) + d.height
                picked.append(d)
                dfs(i + 1, profit + d.profit)
                picked.pop()
                for e in edges:
                    load[e] -= d.height
        # ... or skip it.
        dfs(i + 1, profit)

    dfs(0, 0.0)
    return Solution(
        selected=best,
        stats={"algorithm": "brute-force", "optimal": True, "objective": best_profit},
    )
