"""Solutions and feasibility verification.

A feasible solution (Section 2 / Section 6) is a set of demand instances
such that (i) at most one instance per demand is selected, and (ii) on
every edge of every network the selected instances' heights sum to at most
one unit (edge-disjointness in the unit-height case).

:class:`Solution` is algorithm-output; :func:`verify_tree_solution` and
:func:`verify_line_solution` re-check feasibility from scratch against the
problem definition — every algorithm's output is validated by these in the
test suite, independently of the algorithm's own bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .demand import LineDemandInstance, TreeDemandInstance
from .instance import LineProblem, TreeProblem

__all__ = [
    "Solution",
    "FeasibilityError",
    "verify_tree_solution",
    "verify_line_solution",
]

#: Tolerance for floating-point capacity sums.
_CAP_EPS = 1e-9


class FeasibilityError(AssertionError):
    """Raised when a claimed solution violates the problem constraints."""


@dataclass
class Solution:
    """A selected set of demand instances plus bookkeeping.

    Attributes
    ----------
    selected:
        The chosen demand instances.
    stats:
        Free-form metrics recorded by the producing algorithm (rounds,
        steps, dual objective, measured slackness, ...).
    """

    selected: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def profit(self) -> float:
        """Total profit of the selected instances.

        ``fsum`` so the reported total is identical for any selection
        order — snapshots built from hash-ordered admitted maps must
        price the same as ones built in admission order.
        """
        return math.fsum(inst.profit for inst in self.selected)

    @property
    def size(self) -> int:
        """Number of selected instances."""
        return len(self.selected)

    def demand_ids(self) -> set[int]:
        """Demand ids covered by the solution."""
        return {inst.demand_id for inst in self.selected}

    def by_network(self) -> dict[int, list]:
        """Selected instances grouped by network id."""
        out: dict[int, list] = {}
        for inst in self.selected:
            out.setdefault(inst.network_id, []).append(inst)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Solution(size={self.size}, profit={self.profit:.4g})"


def _check_one_instance_per_demand(selected: Sequence) -> None:
    seen: set[int] = set()
    for inst in selected:
        if inst.demand_id in seen:
            raise FeasibilityError(
                f"demand {inst.demand_id} has more than one selected instance"
            )
        seen.add(inst.demand_id)


def verify_tree_solution(
    problem: TreeProblem, solution: Solution, *, unit_height: bool | None = None
) -> None:
    """Validate ``solution`` against ``problem`` from first principles.

    Checks accessibility, the one-instance-per-demand rule, that each
    cached route equals the tree path recomputed from the network, and the
    per-edge bandwidth constraint (edge-disjointness when
    ``unit_height``).

    Raises
    ------
    FeasibilityError
        On any violation.
    """
    if unit_height is None:
        unit_height = problem.unit_height
    _check_one_instance_per_demand(solution.selected)
    load: dict[tuple[int, tuple[int, int]], float] = {}
    for inst in solution.selected:
        if not isinstance(inst, TreeDemandInstance):
            raise FeasibilityError(f"not a tree demand instance: {inst!r}")
        if inst.network_id not in problem.access_of(inst.demand_id):
            raise FeasibilityError(
                f"demand {inst.demand_id} scheduled on inaccessible network "
                f"{inst.network_id}"
            )
        demand = problem.demand(inst.demand_id)
        if (inst.u, inst.v) != (demand.u, demand.v):
            raise FeasibilityError(
                f"instance endpoints {(inst.u, inst.v)} disagree with demand "
                f"{inst.demand_id} endpoints {(demand.u, demand.v)}"
            )
        net = problem.networks[inst.network_id]
        true_path = tuple(net.path_edges(inst.u, inst.v))
        if tuple(inst.path_edges) != true_path:
            raise FeasibilityError(
                f"instance {inst.instance_id} cached route disagrees with the "
                f"tree path on network {inst.network_id}"
            )
        for ek in true_path:
            key = (inst.network_id, ek)
            load[key] = load.get(key, 0.0) + inst.height
    for key, total in load.items():
        limit = 1.0 + (_CAP_EPS if not unit_height else 0.0)
        if unit_height:
            # Edge-disjointness: at most one unit-height instance per edge.
            if total > 1.0:
                raise FeasibilityError(
                    f"edge {key} carries height {total} > 1 (unit case: paths "
                    "must be edge-disjoint)"
                )
        elif total > limit:
            raise FeasibilityError(f"edge {key} carries height {total} > 1")


def verify_line_solution(
    problem: LineProblem, solution: Solution, *, unit_height: bool | None = None
) -> None:
    """Validate a line-network solution (windows semantics, Section 7).

    Checks accessibility, one instance per demand, that each instance's
    interval is a legal placement of the demand's window, and the
    per-(resource, timeslot) bandwidth constraint.

    Raises
    ------
    FeasibilityError
        On any violation.
    """
    if unit_height is None:
        unit_height = problem.unit_height
    _check_one_instance_per_demand(solution.selected)
    load: dict[tuple[int, int], float] = {}
    for inst in solution.selected:
        if not isinstance(inst, LineDemandInstance):
            raise FeasibilityError(f"not a line demand instance: {inst!r}")
        if inst.network_id not in problem.access_of(inst.demand_id):
            raise FeasibilityError(
                f"demand {inst.demand_id} scheduled on inaccessible resource "
                f"{inst.network_id}"
            )
        demand = problem.demand(inst.demand_id)
        if inst.length != demand.proc_time:
            raise FeasibilityError(
                f"instance {inst.instance_id} runs {inst.length} slots; demand "
                f"{inst.demand_id} needs {demand.proc_time}"
            )
        if inst.start < demand.release or inst.end > demand.deadline:
            raise FeasibilityError(
                f"instance {inst.instance_id} interval {inst.interval} escapes "
                f"window [{demand.release}, {demand.deadline}]"
            )
        for t in range(inst.start, inst.end + 1):
            key = (inst.network_id, t)
            load[key] = load.get(key, 0.0) + inst.height
    for key, total in load.items():
        if unit_height:
            if total > 1.0:
                raise FeasibilityError(
                    f"timeslot {key} carries height {total} > 1 (unit case)"
                )
        elif total > 1.0 + _CAP_EPS:
            raise FeasibilityError(f"timeslot {key} carries height {total} > 1")
