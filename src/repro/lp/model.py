"""LP / ILP formulation of the throughput maximization problem (§3.1, §6.1).

One variable ``x(d)`` per demand instance; constraints

* ``Σ_{d ∼ e} h(d)·x(d) ≤ 1``  for every global edge ``e`` (bandwidth);
* ``Σ_{d ∈ Inst(a)} x(d) ≤ 1`` for every demand ``a`` (one copy);

maximize ``Σ p(d)·x(d)``.  The builder emits a sparse constraint system
consumed by both :func:`scipy.optimize.linprog` (fractional relaxation —
an always-available OPT upper bound) and :func:`scipy.optimize.milp`
(integral optimum — the denominator for measured approximation ratios on
instances where HiGHS converges quickly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["PackingLP", "build_lp"]


@dataclass
class PackingLP:
    """Sparse packing LP: maximize ``profits @ x`` s.t. ``A x ≤ b``, ``0 ≤ x ≤ 1``.

    ``row_labels`` names each constraint (``("edge", global_edge)`` or
    ``("demand", demand_id)``) for diagnostics.
    """

    profits: np.ndarray
    A: sparse.csr_matrix
    b: np.ndarray
    row_labels: list

    @property
    def num_vars(self) -> int:
        """Number of demand-instance variables."""
        return int(self.profits.size)


def build_lp(problem) -> PackingLP:
    """Build the packing LP for a tree or line problem.

    Works with any problem exposing ``instances()`` and
    ``global_edges_of`` (both :class:`~repro.core.instance.TreeProblem`
    and :class:`~repro.core.instance.LineProblem` do).
    """
    from scipy import sparse

    instances = problem.instances()
    nvar = len(instances)
    edge_rows: dict = {}
    demand_rows: dict[int, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    row_labels: list = []

    def row_for_edge(ge) -> int:
        if ge not in edge_rows:
            edge_rows[ge] = len(row_labels)
            row_labels.append(("edge", ge))
        return edge_rows[ge]

    def row_for_demand(a: int) -> int:
        if a not in demand_rows:
            demand_rows[a] = len(row_labels)
            row_labels.append(("demand", a))
        return demand_rows[a]

    for d in instances:
        j = d.instance_id
        for ge in problem.global_edges_of(d):
            rows.append(row_for_edge(ge))
            cols.append(j)
            vals.append(d.height)
        rows.append(row_for_demand(d.demand_id))
        cols.append(j)
        vals.append(1.0)

    A = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(row_labels), nvar), dtype=float
    )
    b = np.ones(len(row_labels))
    profits = np.array([d.profit for d in instances], dtype=float)
    return PackingLP(profits=profits, A=A, b=b, row_labels=row_labels)
