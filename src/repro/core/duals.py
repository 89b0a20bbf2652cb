"""Dual variable store for the primal-dual machinery (Sections 3 and 6).

The dual LP has a variable ``alpha(a)`` per demand and ``beta(e)`` per
(global) edge.  The dual constraint of instance ``d`` is

* unit case (Section 3.1):      ``alpha(a_d) + Σ_{e: d∼e} beta(e) >= p(d)``
* height case (Section 6.1):    ``alpha(a_d) + h(d)·Σ_{e: d∼e} beta(e) >= p(d)``

:class:`DualState` stores the assignment in dense NumPy arrays over
interned demand/edge ids, computes constraint left-hand sides and slacks
(single instances or whole populations at once), applies the two raising
rules of the paper — per instance, or batched over an entire MIS with one
scatter-add — and reports the dual objective and the realised slackness
parameter ``λ`` (Section 3.2).  Lemma 3.1 / Lemma 6.1 turn
``objective / λ`` into an upper bound on OPT; benchmarks report that
certificate alongside measured profits.

The ``alpha``/``beta`` attributes remain mapping views keyed by the
original demand/edge identifiers, so callers written against the sparse
dict representation keep working unchanged.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .conflict import gather_rows

__all__ = ["DualState"]


class _DualView(Mapping):
    """Read-only dict façade over a dense dual array.

    Contains exactly the entries that have ever been raised, keyed by the
    original (demand or edge) identifiers.
    """

    def __init__(self, keys: list, index: dict, values: np.ndarray,
                 touched: np.ndarray) -> None:
        self._keys = keys
        self._index = index
        self._values = values
        self._touched = touched

    def __getitem__(self, key: Any) -> float:
        i = self._index.get(key)
        if i is None or i >= len(self._touched) or not self._touched[i]:
            raise KeyError(key)
        return float(self._values[i])

    def __iter__(self) -> Iterator:
        for i in np.nonzero(self._touched)[0]:
            yield self._keys[i]

    def __len__(self) -> int:
        return int(self._touched.sum())


class DualState:
    """Dense ``(alpha, beta)`` assignment plus raise bookkeeping.

    Parameters
    ----------
    profits:
        ``profits[iid]`` = profit of instance ``iid``.
    heights:
        ``heights[iid]`` = height of instance ``iid`` (all 1.0 for unit).
    demand_of:
        ``demand_of[iid]`` = demand id of instance ``iid``.
    edges_of:
        ``edges_of[iid]`` = global edges instance ``iid`` is active on.
    log_raises:
        Keep the per-raise ``raise_log``; turn off in benchmarks where
        only the dual values matter.
    """

    def __init__(
        self,
        profits: Sequence[float],
        heights: Sequence[float],
        demand_of: Sequence[int],
        edges_of: Sequence[Iterable],
        log_raises: bool = True,
    ) -> None:
        self.profits = [float(p) for p in profits]
        self.heights = [float(h) for h in heights]
        self.demand_of = list(demand_of)
        self.edges_of = [tuple(e) for e in edges_of]
        if not (
            len(self.profits)
            == len(self.heights)
            == len(self.demand_of)
            == len(self.edges_of)
        ):
            raise ValueError("profits/heights/demand_of/edges_of lengths differ")
        n = len(self.profits)
        self._profits = np.asarray(self.profits, dtype=np.float64)
        self._heights = np.asarray(self.heights, dtype=np.float64)

        self._demand_keys: list = []
        self._demand_index: dict = {}
        dix = np.empty(n, dtype=np.int64)
        for i, a in enumerate(self.demand_of):
            j = self._demand_index.get(a)
            if j is None:
                j = len(self._demand_keys)
                self._demand_index[a] = j
                self._demand_keys.append(a)
            dix[i] = j
        self._dix = dix

        self._edge_keys: list = []
        self._edge_index: dict = {}
        flat: list[int] = []
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i, edges in enumerate(self.edges_of):
            for e in edges:
                j = self._edge_index.get(e)
                if j is None:
                    j = len(self._edge_keys)
                    self._edge_index[e] = j
                    self._edge_keys.append(e)
                flat.append(j)
            indptr[i + 1] = len(flat)
        self._flat = np.asarray(flat, dtype=np.int64)
        self._indptr = indptr

        self._alpha_arr = np.zeros(len(self._demand_keys), dtype=np.float64)
        self._alpha_touched = np.zeros(len(self._demand_keys), dtype=bool)
        self._beta_arr = np.zeros(len(self._edge_keys), dtype=np.float64)
        self._beta_touched = np.zeros(len(self._edge_keys), dtype=bool)

        self._crit_flat: np.ndarray | None = None
        self._crit_indptr: np.ndarray | None = None
        self._crit_tuples: list[tuple] | None = None

        self._log_raises = log_raises
        #: per-instance record of raises: (iid, delta, critical edges, beta bump)
        self.raise_log: list[tuple[int, float, tuple, float]] = []

    # ------------------------------------------------------------------
    # Dict-compatible views
    # ------------------------------------------------------------------

    @property
    def alpha(self) -> Mapping:
        """Raised ``alpha`` entries, keyed by demand id."""
        return _DualView(self._demand_keys, self._demand_index,
                         self._alpha_arr, self._alpha_touched)

    @property
    def beta(self) -> Mapping:
        """Raised ``beta`` entries, keyed by global edge."""
        return _DualView(self._edge_keys, self._edge_index,
                         self._beta_arr, self._beta_touched)

    def _edge_id(self, e: Any) -> int:
        j = self._edge_index.get(e)
        if j is None:
            # An off-route critical edge: intern it and grow the arrays.
            j = len(self._edge_keys)
            self._edge_index[e] = j
            self._edge_keys.append(e)
            self._beta_arr = np.append(self._beta_arr, 0.0)
            self._beta_touched = np.append(self._beta_touched, False)
        return j

    # ------------------------------------------------------------------
    # Constraint evaluation
    # ------------------------------------------------------------------

    def lhs(self, iid: int) -> float:
        """LHS of instance ``iid``'s dual constraint (height-weighted)."""
        beta_sum = 0.0
        beta, flat = self._beta_arr, self._flat
        for k in range(self._indptr[iid], self._indptr[iid + 1]):
            beta_sum += beta[flat[k]]
        return float(
            self._alpha_arr[self._dix[iid]] + self.heights[iid] * beta_sum
        )

    def make_plan(self, iids: Sequence[int] | np.ndarray) -> tuple:
        """Precomputed gather indices for repeated batch queries.

        The engine probes the same group every step of a stage; the CSR
        gather positions depend only on the id array, so computing them
        once per group removes the per-step index arithmetic.
        """
        arr = np.asarray(iids, dtype=np.int64)
        edge_ids, counts = gather_rows(self._indptr, self._flat, arr)
        seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return (arr, edge_ids, seg_starts[counts > 0], counts,
                self._dix[arr], self._heights[arr], self._profits[arr])

    def lhs_batch(self, iids: Sequence[int] | np.ndarray | None = None,
                  plan: tuple | None = None) -> np.ndarray:
        """Vectorized LHS for an array of instance ids (or a saved plan)."""
        if plan is None:
            plan = self.make_plan(iids)
        arr, edge_ids, seg_starts, counts, dix, heights, _ = plan
        if len(arr) == 0:
            return np.zeros(0, dtype=np.float64)
        sums = np.zeros(len(arr), dtype=np.float64)
        if len(edge_ids):
            sums[counts > 0] = np.add.reduceat(
                self._beta_arr[edge_ids], seg_starts
            )
        return self._alpha_arr[dix] + heights * sums

    def slack(self, iid: int) -> float:
        """``p(d) - LHS``; positive while the constraint is unsatisfied."""
        return self.profits[iid] - self.lhs(iid)

    def satisfied(self, iid: int, xi: float = 1.0) -> bool:
        """Whether instance ``iid`` is ``xi``-satisfied: ``LHS >= xi·p``."""
        return self.lhs(iid) >= xi * self.profits[iid] - 1e-12

    def unsatisfied_mask(self, iids: Sequence[int] | np.ndarray,
                         target: float, eps: float = 1e-12,
                         plan: tuple | None = None) -> np.ndarray:
        """Boolean array: which instances are below ``target``-satisfaction."""
        if plan is None:
            plan = self.make_plan(iids)
        profits = plan[6]
        return self.lhs_batch(plan=plan) < target * profits - eps

    def realized_lambda(self, population: Iterable[int] | None = None) -> float:
        """Measured slackness ``λ``: ``min_d LHS(d)/p(d)`` (capped at 1).

        Section 3.2's parameter; the approximation certificates of
        Lemmas 3.1 and 6.1 divide by this.
        """
        if population is not None:
            arr = np.asarray(list(population), dtype=np.int64)
        else:
            arr = np.arange(len(self.profits), dtype=np.int64)
        if len(arr) == 0:
            return 1.0
        ratios = self.lhs_batch(arr) / self._profits[arr]
        return float(min(1.0, ratios.min()))

    # ------------------------------------------------------------------
    # Raising rules
    # ------------------------------------------------------------------

    def raise_unit(
        self, iid: int, critical: Sequence, include_alpha: bool = True
    ) -> float:
        """Section 3.2's raise: δ = slack/(|π|+1); α and each β(e∈π) += δ.

        With ``include_alpha=False`` (the Appendix-A single-tree
        improvement, where at most one instance per demand exists) only
        the β variables are raised and δ = slack/|π|.

        Returns the applied δ.  Tightens the constraint exactly when the
        critical edges are a subset of the instance's active edges.
        """
        s = self.slack(iid)
        if s <= 0:
            return 0.0
        denom = len(critical) + (1 if include_alpha else 0)
        if denom == 0:
            raise ValueError(
                f"instance {iid}: cannot raise with no critical edges and "
                "no alpha"
            )
        delta = s / denom
        if include_alpha:
            a = self._dix[iid]
            self._alpha_arr[a] += delta
            self._alpha_touched[a] = True
        for e in critical:
            j = self._edge_id(e)
            self._beta_arr[j] += delta
            self._beta_touched[j] = True
        if self._log_raises:
            self.raise_log.append((iid, delta, tuple(critical), delta))
        return delta

    def raise_narrow(self, iid: int, critical: Sequence) -> float:
        """Section 6.1's raise for narrow instances.

        δ = slack / (1 + 2·h·|π|²); α += δ and each β(e∈π) += 2|π|δ, which
        tightens the height-weighted constraint
        (α gains δ, the β-sum gains |π|·2|π|δ, scaled by h).
        Returns the applied δ.
        """
        s = self.slack(iid)
        if s <= 0:
            return 0.0
        k = len(critical)
        h = self.heights[iid]
        delta = s / (1.0 + 2.0 * h * k * k)
        a = self._dix[iid]
        self._alpha_arr[a] += delta
        self._alpha_touched[a] = True
        bump = 2.0 * k * delta
        for e in critical:
            j = self._edge_id(e)
            self._beta_arr[j] += bump
            self._beta_touched[j] = True
        if self._log_raises:
            self.raise_log.append((iid, delta, tuple(critical), bump))
        return delta

    # ------------------------------------------------------------------
    # Batched raising (whole MIS at once)
    # ------------------------------------------------------------------

    def set_critical(self, critical: Mapping[int, Sequence]) -> None:
        """Register the layered decomposition's ``π(d)`` sets.

        Required before the ``*_batch`` raising rules; builds a CSR copy
        of the critical edges so a whole MIS raise is one scatter-add.
        """
        n = len(self.profits)
        tuples: list[tuple] = []
        flat: list[int] = []
        indptr = np.zeros(n + 1, dtype=np.int64)
        for iid in range(n):
            crit = tuple(critical.get(iid, ()))
            tuples.append(crit)
            for e in crit:
                flat.append(self._edge_id(e))
            indptr[iid + 1] = len(flat)
        self._crit_flat = np.asarray(flat, dtype=np.int64)
        self._crit_indptr = indptr
        self._crit_tuples = tuples

    def _crit_slices(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._crit_indptr is None:
            raise RuntimeError("call set_critical() before batched raises")
        return gather_rows(self._crit_indptr, self._crit_flat, arr)

    def _log_batch(self, arr: np.ndarray, deltas: np.ndarray,
                   bumps: np.ndarray) -> None:
        if not self._log_raises:
            return
        tuples = self._crit_tuples
        for iid, delta, bump in zip(arr.tolist(), deltas.tolist(),
                                    bumps.tolist()):
            self.raise_log.append((iid, delta, tuples[iid], bump))

    def raise_unit_batch(self, iids: Sequence[int] | np.ndarray,
                         include_alpha: bool = True) -> np.ndarray:
        """Apply :meth:`raise_unit` to a whole MIS in one array pass.

        The instances must be pairwise non-conflicting (one MIS step), so
        their α/β updates touch disjoint entries and the batched result
        equals the sequential one.  Returns the applied δ per instance.
        """
        arr = np.asarray(iids, dtype=np.int64)
        if len(arr) == 0:
            return np.zeros(0, dtype=np.float64)
        s = self._profits[arr] - self.lhs_batch(arr)
        live = s > 0
        arr, s = arr[live], s[live]
        if len(arr) == 0:
            return np.zeros(0, dtype=np.float64)
        edges, counts = self._crit_slices(arr)
        denom = counts + (1 if include_alpha else 0)
        if np.any(denom == 0):
            bad = arr[denom == 0][0]
            raise ValueError(
                f"instance {bad}: cannot raise with no critical edges and "
                "no alpha"
            )
        deltas = s / denom
        if include_alpha:
            d = self._dix[arr]
            np.add.at(self._alpha_arr, d, deltas)
            self._alpha_touched[d] = True
        bumps = np.repeat(deltas, counts)
        np.add.at(self._beta_arr, edges, bumps)
        self._beta_touched[edges] = True
        self._log_batch(arr, deltas, deltas)
        return deltas

    def raise_narrow_batch(self, iids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Apply :meth:`raise_narrow` to a whole MIS in one array pass."""
        arr = np.asarray(iids, dtype=np.int64)
        if len(arr) == 0:
            return np.zeros(0, dtype=np.float64)
        s = self._profits[arr] - self.lhs_batch(arr)
        live = s > 0
        arr, s = arr[live], s[live]
        if len(arr) == 0:
            return np.zeros(0, dtype=np.float64)
        edges, counts = self._crit_slices(arr)
        h = self._heights[arr]
        deltas = s / (1.0 + 2.0 * h * counts * counts)
        d = self._dix[arr]
        np.add.at(self._alpha_arr, d, deltas)
        self._alpha_touched[d] = True
        per_edge = 2.0 * counts * deltas
        np.add.at(self._beta_arr, edges, np.repeat(per_edge, counts))
        self._beta_touched[edges] = True
        self._log_batch(arr, deltas, per_edge)
        return deltas

    # ------------------------------------------------------------------
    # Certificates
    # ------------------------------------------------------------------

    def objective(self) -> float:
        """Dual objective ``Σ alpha(a) + Σ beta(e)`` of the assignment."""
        return float(
            self._alpha_arr[self._alpha_touched].sum()
            + self._beta_arr[self._beta_touched].sum()
        )

    def opt_upper_bound(self, population: Iterable[int] | None = None) -> float:
        """Weak-duality certificate: ``objective / λ`` upper-bounds OPT.

        Scaling the assignment by ``1/λ`` yields a feasible dual solution
        (proof of Lemma 3.1), whose objective dominates the primal optimum.
        """
        lam = self.realized_lambda(population)
        if lam <= 0:
            return float("inf")
        return self.objective() / lam
