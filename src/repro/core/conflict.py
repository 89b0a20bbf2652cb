"""The conflict relation over demand instances (Section 2).

Two demand instances *conflict* iff they belong to the same demand, or
they belong to the same network and their routes share an edge (overlap).
A feasible unit-height solution is exactly an independent set in the
conflict graph; the distributed algorithm computes maximal independent
sets of sub-populations of it every step (Section 5).

:class:`ConflictIndex` answers conflict queries and enumerates conflict
edges without materialising the full quadratic graph unless asked.  It
is the single owner of the population's static geometry, all of it
NumPy columns over interned integer ids:

* a route CSR (``_indptr``/``_flat_edges``) over edge ids in
  **canonical key order** — edge id ``k`` is the ``k``-th smallest
  ``(network, edge)`` key in use, and every row ascends — with an
  E-entry table mapping each id back to its key;
* per-instance height, profit, network and demand columns (raw and
  interned), and a demand → candidate-instance CSR;
* interval endpoints for line instances, or endpoint pairs plus a
  per-network Euler-tour index
  (:class:`~repro.network.tree.EulerTourIndex`) for tree instances.

Built from a problem (``ConflictIndex(problem=...)``), the index expands
the problem's demand columns itself: line placements with
``repeat``/``arange``, tree routes with one lockstep climb per network
(:meth:`~repro.network.tree.TreeNetwork.path_children`), and interns
integer edge codes by rank — no per-instance Python.  Instance objects
are built only when :meth:`~ConflictIndex.instance` asks for one.  The
generic constructor over instance objects and their edge-key lists
interns by the same rule, so one population always gets one numbering.

Single-instance queries (:meth:`~ConflictIndex.edges_of`,
:meth:`~ConflictIndex.neighbors`, ...) read the CSR rows; population
queries (:meth:`~ConflictIndex.adjacency`) and the second phase's
active-set probe (:class:`ActiveConflictSet`) run as array operations
instead of per-pair Python loops.  The online
:class:`~repro.online.state.CapacityLedger` keeps its own live loads
over this one structure and probes them with the same
:func:`route_peaks`; its fast path and sharded shard views read the
structure too.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["ConflictIndex", "ActiveConflictSet", "gather_rows",
           "route_peaks"]


def gather_rows(indptr: np.ndarray, flat: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate rows ``rows`` of the CSR ``(indptr, flat)``.

    Returns ``(values, counts)``: the rows' entries back to back, in
    ``rows`` order, and each row's length.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = counts.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    if not total:
        return flat[:0], counts
    # Entry j of row k sits at ``starts[k] + j``, and its output offset
    # is ``ends[k] - counts[k] + j``.
    return flat[np.arange(total, dtype=np.int64)
                + (starts - ends + counts).repeat(counts)], counts


def route_peaks(load: np.ndarray, edges: np.ndarray,
                counts: np.ndarray) -> np.ndarray:
    """Each route's heaviest edge load (0.0 for an empty route): one
    segment maximum of ``load`` over the routes ``edges``, concatenated
    with lengths ``counts`` as :func:`gather_rows` returns them."""
    peaks = np.zeros(len(counts), dtype=np.float64)
    if len(edges):
        nonempty = counts > 0
        peaks[nonempty] = np.maximum.reduceat(
            load[edges], (counts.cumsum() - counts)[nonempty])
    return peaks


def _csr_indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


class ConflictIndex:
    """Conflict queries over a fixed population of demand instances.

    Build it either from a problem's columns (``problem=``, the online
    path) or from instance objects and their routes (the generic path).

    Parameters
    ----------
    instances:
        The demand instances (tree or line; anything exposing
        ``instance_id``, ``demand_id``, ``network_id``).  Instance ids
        must be ``0 .. len(instances) - 1`` and demand ids non-negative.
    global_edges:
        One iterable per instance, in instance order (any iterable of
        them — a generator lets the caller build routes one at a time):
        the global edge keys the instance is active on (``(network,
        edge)`` or ``(resource, slot)``).  Edge ids number the distinct
        keys in sorted order, and each CSR row is sorted.
    trees:
        Optional mapping ``network_id →``
        :class:`~repro.network.tree.TreeNetwork`.  When given (and the
        instances carry ``u``/``v`` endpoints), population-level conflict
        queries use the Euler-tour path-overlap test instead of edge
        buckets.
    problem:
        A :class:`~repro.core.instance.TreeProblem` or
        :class:`~repro.core.instance.LineProblem`, whose
        :meth:`instance_columns` population is expanded and indexed
        from its columns (then ``instances``/``global_edges``/``trees``
        are not given).
    """

    def __init__(
        self,
        instances: Sequence | None = None,
        global_edges: Iterable[Iterable] | None = None,
        trees: Mapping[int, object] | None = None,
        *,
        problem: Any = None,
    ) -> None:
        self._by_edge: tuple[np.ndarray, np.ndarray] | None = None  # lazy
        if problem is not None:
            self._from_problem(problem)
            self._index_demands()
            return
        insts = list(instances if instances is not None else ())
        for pos, inst in enumerate(insts):
            if inst.instance_id != pos:
                raise ValueError(
                    f"instance ids must be dense 0..N-1 in order; position "
                    f"{pos} holds id {inst.instance_id}"
                )
        self._instances: list | None = insts
        self.num_instances = n = len(insts)
        self._intern_keys(global_edges if global_edges is not None else ())
        self._dem = np.asarray([d.demand_id for d in insts], dtype=np.int64)
        self._index_demands()
        self._net_arr = np.asarray([d.network_id for d in insts],
                                   dtype=np.int64)
        self._heights = np.asarray(
            [getattr(d, "height", 1.0) for d in insts], dtype=np.float64
        )
        # NaN marks a population without profits (pure conflict use).
        self._profits = np.asarray(
            [float(getattr(d, "profit", np.nan)) for d in insts],
            dtype=np.float64,
        )
        self._trees: Any = trees
        if n and all(hasattr(d, "start") and hasattr(d, "end") for d in insts):
            self._geometry = "interval"
            self._starts = np.asarray([d.start for d in insts], dtype=np.int64)
            self._ends = np.asarray([d.end for d in insts], dtype=np.int64)
        elif (
            n
            and trees is not None
            and all(hasattr(d, "u") and hasattr(d, "v") for d in insts)
        ):
            self._geometry = "euler"
            self._us = np.asarray([d.u for d in insts], dtype=np.int64)
            self._vs = np.asarray([d.v for d in insts], dtype=np.int64)
            self._index_tours()
        else:
            self._geometry = "buckets"

    def _intern_keys(self, global_edges: Iterable[Iterable]) -> None:
        """Route CSR and edge-key table from per-instance key lists:
        ids number the distinct keys in sorted order, rows ascend."""
        n = self.num_instances
        routes = [list(ge) for ge in global_edges]
        if len(routes) != n:
            raise ValueError("one edge list per instance required")
        keys = sorted({e for route in routes for e in route})
        rank = {e: k for k, e in enumerate(keys)}
        self._flat_edges = np.asarray(
            [k for route in routes for k in sorted(rank[e] for e in route)],
            dtype=np.int64)
        self._indptr = _csr_indptr(
            np.asarray([len(route) for route in routes], dtype=np.int64))
        #: ``_edge_keys[eid]`` is the global edge key with id ``eid``.
        self._edge_keys: list = keys
        self.num_edges = len(keys)

    def _from_problem(self, problem: Any) -> None:
        """Expand ``problem``'s demand columns into the instance columns,
        routes and interned edge ids, all as array operations.

        Every route edge gets an integer code, ``network × span + slot``
        on lines and ``network × n + rank`` on trees (``rank`` the
        edge's position among its tree's sorted keys), so code order is
        ``(network, edge key)`` order; an edge's id is its code's rank
        among the codes in use.
        """
        cols = problem.instance_columns()
        dem = cols["demand"]
        self._instances = None
        self.num_instances = n = len(dem)
        self._dem = dem
        self._net_arr = net = cols["network"]
        demand_cols = problem.columns
        self._heights = demand_cols["height"][dem]
        self._profits = demand_cols["profit"][dem]
        if "start" in cols:
            self._geometry = "interval"
            self._trees = None
            self._starts, self._ends = cols["start"], cols["end"]
            span = int(problem.n_slots)
            counts = self._ends - self._starts + 1
            indptr = _csr_indptr(counts)
            codes = (np.repeat(net * span + self._starts - indptr[:-1], counts)
                     + np.arange(int(indptr[-1]), dtype=np.int64))
            space = problem.num_networks * span
        else:
            self._geometry = "euler"
            self._trees = trees = dict(enumerate(problem.networks))
            self._us = demand_cols["u"][dem]
            self._vs = demand_cols["v"][dem]
            span = int(problem.n)
            row_parts, code_parts = [], []
            # The networks in use, ascending (bincount, unlike unique,
            # does not import numpy.ma).
            for q in np.flatnonzero(np.bincount(net)).tolist():
                sel = np.flatnonzero(net == q)
                rows, children = trees[q].path_children(self._us[sel],
                                                        self._vs[sel])
                row_parts.append(sel[rows])
                code_parts.append(q * span
                                  + trees[q].edge_columns()[1][children])
            rows = np.concatenate(row_parts) if row_parts else \
                np.zeros(0, dtype=np.int64)
            codes = np.concatenate(code_parts) if code_parts else rows
            counts = np.bincount(rows, minlength=n)
            indptr = _csr_indptr(counts)
            space = problem.num_networks * span
            self._index_tours()
        used = np.zeros(space, dtype=bool)
        used[codes] = True
        rank = np.cumsum(used) - 1
        flat = rank[codes]
        self.num_edges = E = int(rank[-1]) + 1 if space else 0
        if self._geometry == "euler" and len(flat):
            # Group entries by row, each row ascending, in one sort.
            flat = np.sort(rows * E + flat) % E
        self._flat_edges = flat
        self._indptr = indptr
        in_use = np.flatnonzero(used)
        nets, slots = (in_use // span).tolist(), (in_use % span).tolist()
        if self._geometry == "interval":
            self._edge_keys = list(zip(nets, slots))
        else:
            keys = {q: t.edge_columns()[2] for q, t in self._trees.items()}
            self._edge_keys = [(q, keys[q][k]) for q, k in zip(nets, slots)]

    def _index_tours(self) -> None:
        self._euler = {q: self._trees[q].euler_index()
                       for q in np.flatnonzero(
                           np.bincount(self._net_arr)).tolist()}

    def _index_demands(self) -> None:
        """Demand columns: first-appearance interning (``_dix``) and the
        demand → candidate CSR (ascending instance ids per demand)."""
        dem = self._dem
        n = len(dem)
        if n and dem.min() < 0:
            raise ValueError("demand ids must be non-negative")
        uniq, first, inv = np.unique(dem, return_index=True,
                                     return_inverse=True)
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
        self._dix = rank[inv].reshape(n)
        #: Number of distinct demands in the population.
        self.num_demands = len(uniq)
        counts = np.bincount(dem) if n else np.zeros(0, dtype=np.int64)
        self._cand_indptr = _csr_indptr(counts)
        self._cand_iids = np.argsort(dem, kind="stable")
        self._cand_iids.flags.writeable = False

    def _ensure_buckets(self) -> None:
        """Materialize the edge → instance CSR behind :meth:`neighbors`.

        Built on the first :meth:`neighbors` call, never by the
        constructor: the array-geometry paths the online and offline
        engines run never need it.
        """
        if self._by_edge is not None:
            return
        flat = self._flat_edges
        eptr = _csr_indptr(np.bincount(flat, minlength=self.num_edges))
        owner = np.repeat(np.arange(self.num_instances, dtype=np.int64),
                          np.diff(self._indptr))
        self._by_edge = (eptr, owner[np.argsort(flat, kind="stable")])

    # ------------------------------------------------------------------

    def sliced(self, gids: Sequence[int],
               demand_ids: Sequence[int]) -> "ConflictIndex":
        """A relabeled sub-population view sharing this index's geometry.

        Local instance ``k`` of the view is this index's instance
        ``gids[k]``, owned by demand ``demand_ids[k]`` (the shard
        subproblem's densified ids).

        The view shares the parent's edge-id space, edge-key table and
        per-network Euler-tour indexes, and gathers its CSR rows and
        columns from the parent's arrays — a few array gathers, no
        instance objects.  Every query answers exactly as a freshly
        built index over the same sub-population would: the shared
        edge-id space is a superset, which only widens the (never-loaded)
        zero tail no query observes.
        """
        gids_arr = np.asarray(gids, dtype=np.int64)
        k = len(gids_arr)
        if len(demand_ids) != k:
            raise ValueError("one demand id per global id required")
        out = object.__new__(ConflictIndex)
        out._instances = None
        out.num_instances = k
        out._edge_keys = self._edge_keys
        out.num_edges = self.num_edges
        out._flat_edges, counts = gather_rows(self._indptr,
                                              self._flat_edges, gids_arr)
        out._indptr = _csr_indptr(counts)
        out._dem = np.asarray(demand_ids, dtype=np.int64)
        out._index_demands()
        out._by_edge = None  # lazy — see _ensure_buckets
        out._net_arr = self._net_arr[gids_arr]
        out._heights = self._heights[gids_arr]
        out._profits = self._profits[gids_arr]
        out._geometry = self._geometry
        out._trees = self._trees
        if self._geometry == "interval":
            out._starts = self._starts[gids_arr]
            out._ends = self._ends[gids_arr]
        elif self._geometry == "euler":
            out._us = self._us[gids_arr]
            out._vs = self._vs[gids_arr]
            out._euler = self._euler  # per-network tours, shared read-only
        return out

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_instances

    def instance(self, iid: int) -> Any:
        """The instance with id ``iid``."""
        return self.instances([iid])[0]

    def instances(self, iids: Sequence[int] | None = None) -> list:
        """Instance objects for ``iids`` (default: every instance), in
        order — built from the columns when the index was built from
        them, so only the instances asked for become objects."""
        if self._instances is not None:
            return (list(self._instances) if iids is None
                    else [self._instances[i] for i in iids])
        from .demand import LineDemandInstance, TreeDemandInstance

        sel = (np.arange(self.num_instances) if iids is None
               else np.asarray(iids, dtype=np.int64))
        rows = zip(sel.tolist(), self._dem[sel].tolist(),
                   self._net_arr[sel].tolist())
        tail = zip(self._profits[sel].tolist(), self._heights[sel].tolist())
        if self._geometry == "interval":
            return [LineDemandInstance(i, d, q, s, e, p, h)
                    for (i, d, q), s, e, (p, h) in zip(
                        rows, self._starts[sel].tolist(),
                        self._ends[sel].tolist(), tail)]
        trees = self._trees
        return [TreeDemandInstance(i, d, q, u, v, p, h,
                                   tuple(trees[q].path_edges(u, v)))
                for (i, d, q), u, v, (p, h) in zip(
                    rows, self._us[sel].tolist(), self._vs[sel].tolist(),
                    tail)]

    def edge_ids(self, iid: int) -> np.ndarray:
        """Interned edge ids of instance ``iid``'s route (its CSR row)."""
        return self._flat_edges[self._indptr[iid]:self._indptr[iid + 1]]

    def edges_of(self, iid: int) -> frozenset:
        """Global edge keys instance ``iid`` is active on."""
        keys = self._edge_keys
        return frozenset([keys[e] for e in self.edge_ids(iid).tolist()])

    def candidates(self, demand_id: int) -> np.ndarray:
        """Instance ids of ``demand_id``, ascending (a read-only view).

        Raises ``KeyError`` for a demand with no instance here.
        """
        ci = self._cand_indptr
        if 0 <= demand_id < len(ci) - 1:
            lo, hi = ci[demand_id], ci[demand_id + 1]
            if lo != hi:
                return self._cand_iids[lo:hi]
        raise KeyError(f"unknown demand {demand_id}")

    def overlap(self, a: int, b: int) -> bool:
        """Same network and edge-intersecting routes (Section 2)."""
        if self._net_arr[a] != self._net_arr[b]:
            return False
        return not set(self.edge_ids(a).tolist()).isdisjoint(
            self.edge_ids(b).tolist())

    def conflicting(self, a: int, b: int) -> bool:
        """Same demand, or overlapping (Section 2's conflict relation)."""
        if a == b:
            return False
        if self._dix[a] == self._dix[b]:
            return True
        return self.overlap(a, b)

    def neighbors(self, iid: int, population: set[int] | None = None) -> set[int]:
        """All instances conflicting with ``iid``.

        Restricted to ``population`` if given.  Computed as the union of
        the instance's demand siblings and the instances active on each
        edge of its route.
        """
        self._ensure_buckets()
        eptr, holders = self._by_edge
        out = set(self.candidates(int(self._dem[iid])).tolist())
        for e in self.edge_ids(iid).tolist():
            out.update(holders[eptr[e]:eptr[e + 1]].tolist())
        out.discard(iid)
        if population is not None:
            out.intersection_update(population)
        return out

    def is_independent(self, iids: Iterable[int]) -> bool:
        """Whether the given instance ids are pairwise non-conflicting."""
        demands: set[int] = set()
        used_edges: set[int] = set()
        for iid in iids:
            d = int(self._dix[iid])
            if d in demands:
                return False
            demands.add(d)
            row = self.edge_ids(iid).tolist()
            if not used_edges.isdisjoint(row):
                return False
            used_edges.update(row)
        return True

    # ------------------------------------------------------------------
    # Population-level (vectorized) queries
    # ------------------------------------------------------------------

    def conflict_matrix(self, iids: Sequence[int]) -> np.ndarray:
        """Pairwise conflict matrix of the given instance ids.

        ``M[i, j]`` = "``iids[i]`` conflicts with ``iids[j]``", diagonal
        False.  Interval-overlap tests for line instances, Euler-tour
        path-overlap tests for tree instances, edge-bucket expansion as
        the generic fallback.
        """
        arr = np.asarray(iids, dtype=np.int64)
        k = len(arr)
        dix = self._dix[arr]
        nets = self._net_arr[arr]
        one_net = len(np.unique(nets)) <= 1
        if self._geometry == "interval":
            s, e = self._starts[arr], self._ends[arr]
            M = s[:, None] <= e[None, :]
            M &= s[None, :] <= e[:, None]
            if not one_net:
                M &= nets[:, None] == nets[None, :]
            if len(np.unique(dix)) < k:
                M |= dix[:, None] == dix[None, :]
            np.fill_diagonal(M, False)
            return M
        M = dix[:, None] == dix[None, :]
        if self._geometry == "euler":
            for q in np.unique(nets).tolist():
                sel = np.nonzero(nets == q)[0]
                if len(sel) < 2:
                    continue
                sub = self._euler[q].path_overlap_matrix(
                    self._us[arr[sel]], self._vs[arr[sel]]
                )
                M[np.ix_(sel, sel)] |= sub
        else:
            flat, indptr = self._flat_edges, self._indptr
            seen: dict[int, list[int]] = {}
            for i, iid in enumerate(arr):
                for eid in flat[indptr[iid]:indptr[iid + 1]]:
                    seen.setdefault(int(eid), []).append(i)
            for members in seen.values():
                if len(members) > 1:
                    idx = np.asarray(members)
                    M[np.ix_(idx, idx)] = True
        np.fill_diagonal(M, False)
        return M

    def adjacency(self, population: Iterable[int]) -> dict[int, set[int]]:
        """Adjacency dict of the conflict graph induced on ``population``.

        Vectorized equivalent of :meth:`subgraph`: same contents, same
        key order (the iteration order of ``population``), but computed
        through :meth:`conflict_matrix` instead of per-instance bucket
        unions.
        """
        order = list(population)
        if not order:
            return {}
        arr = np.asarray(order, dtype=np.int64)
        M = self.conflict_matrix(arr)
        rows, cols = np.nonzero(M)
        splits = np.split(arr[cols], np.searchsorted(rows, np.arange(1, len(arr))))
        return {
            iid: set(splits[i].tolist()) for i, iid in enumerate(order)
        }

    def subgraph(self, population: Iterable[int]) -> dict[int, set[int]]:
        """Adjacency dict of the conflict graph induced on ``population``.

        Used to hand sub-populations to the MIS routines.
        """
        return self.adjacency(set(population))

    def active_set(self, capacities: bool = False) -> "ActiveConflictSet":
        """A fresh incremental active-set view over this population."""
        return ActiveConflictSet(self, capacities=capacities)

    def to_networkx(self, population: Iterable[int] | None = None) -> Any:
        """Export the (induced) conflict graph as :class:`networkx.Graph`."""
        import networkx as nx

        pop = set(population) if population is not None else set(range(len(self)))
        g = nx.Graph()
        g.add_nodes_from(pop)
        for iid in pop:
            for other in self.neighbors(iid, pop):
                if other > iid:
                    g.add_edge(iid, other)
        return g


class ActiveConflictSet:
    """The second phase's active set (Section 3.2): per-edge load and
    per-demand usage of the instances inserted so far.

    :class:`~repro.algorithms.engine.PhaseTwoGreedy` pops the raise
    stack and inserts each step's members while edge-disjointness (or
    height capacity) permits, so "which of these candidates conflict
    with the active set" is one batched gather/segment maximum per step
    (:meth:`blocked_mask`) instead of a from-scratch rebuild.

    Parameters
    ----------
    index:
        The :class:`ConflictIndex` whose interned arrays are shared.
    capacities:
        ``False`` (default): unit semantics — a candidate is blocked if
        any of its edges is occupied.  ``True``: height semantics — a
        candidate is blocked if adding its height would push any edge
        load above 1 (within ``1e-9``).
    """

    def __init__(self, index: ConflictIndex, capacities: bool = False) -> None:
        self._index = index
        self.capacities = capacities
        self._load = np.zeros(index.num_edges, dtype=np.float64)
        self._demand_used = np.zeros(index.num_demands, dtype=bool)

    def blocked_mask(self, iids: Sequence[int]) -> np.ndarray:
        """Boolean array: which candidates conflict with the active set.

        The candidates are assumed pairwise non-conflicting (they come
        from one MIS step), so the answers are independent of each
        other: a candidate is blocked when its demand is already used or
        its route's peak load (:func:`route_peaks`) rules it out.
        """
        idx = self._index
        arr = np.asarray(iids, dtype=np.int64)
        blocked = self._demand_used[idx._dix[arr]]
        peaks = route_peaks(self._load,
                            *gather_rows(idx._indptr, idx._flat_edges, arr))
        if self.capacities:
            blocked |= peaks + idx._heights[arr] > 1.0 + 1e-9
        else:
            blocked |= peaks > 0.0
        return blocked

    def add_all(self, iids: Sequence[int]) -> None:
        """Insert pairwise non-conflicting instances (no feasibility
        check)."""
        idx = self._index
        arr = np.asarray(iids, dtype=np.int64)
        edges, counts = gather_rows(idx._indptr, idx._flat_edges, arr)
        # Candidates are edge-disjoint, so the fancy-indexed add touches
        # each position at most once.
        self._load[edges] += (np.repeat(idx._heights[arr], counts)
                              if self.capacities else 1.0)
        self._demand_used[idx._dix[arr]] = True
