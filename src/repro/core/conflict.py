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

* a route CSR (``_indptr``/``_flat_edges``) over edge ids interned in
  first-appearance order, with an E-entry table mapping each id back to
  its ``(network, edge)`` key;
* per-instance height, profit, network and interned-demand columns, and
  a demand → candidate-instance CSR;
* interval endpoints for line instances, or endpoint pairs plus a
  per-network Euler-tour index
  (:class:`~repro.network.tree.EulerTourIndex`) for tree instances.

Single-instance queries (:meth:`~ConflictIndex.edges_of`,
:meth:`~ConflictIndex.neighbors`, ...) read the CSR rows; population
queries (:meth:`~ConflictIndex.adjacency`) and active-set queries
(:class:`ActiveConflictSet`) run as array operations instead of
per-pair Python loops.  The online ledger, its fast path and sharded
shard views all read this one structure.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["ConflictIndex", "ActiveConflictSet", "gather_rows"]

#: Candidate sets up to this size are probed row by row in
#: :meth:`ActiveConflictSet.blocked_mask`; a few per-row maxima cost less
#: than the batched gather/segment machinery's fixed NumPy overhead.
_PROBE_MAX = 8


def gather_rows(indptr: np.ndarray, flat: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate rows ``rows`` of the CSR ``(indptr, flat)``.

    Returns ``(values, counts)``: the rows' entries back to back, in
    ``rows`` order, and each row's length.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if not total:
        return flat[:0], counts
    ofs = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(counts[:-1], out=ofs[1:])
    return flat[np.arange(total, dtype=np.int64)
                + np.repeat(starts - ofs, counts)], counts


class ConflictIndex:
    """Conflict queries over a fixed population of demand instances.

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
        edge)`` or ``(resource, slot)``).  Edge ids are interned in the
        order these are iterated, and each CSR row keeps that order.
    trees:
        Optional mapping ``network_id →``
        :class:`~repro.network.tree.TreeNetwork`.  When given (and the
        instances carry ``u``/``v`` endpoints), population-level conflict
        queries use the Euler-tour path-overlap test instead of edge
        buckets.
    """

    def __init__(
        self,
        instances: Sequence,
        global_edges: Iterable[Iterable],
        trees: Mapping[int, object] | None = None,
    ) -> None:
        self._instances = list(instances)
        self._intern_routes(global_edges)
        self._index_demands()
        self._by_edge: tuple[np.ndarray, np.ndarray] | None = None  # lazy
        insts = self._instances
        n = len(insts)
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
            self._euler = {
                q: trees[q].euler_index()
                for q in np.unique(self._net_arr).tolist()
            }
        else:
            self._geometry = "buckets"

    def _intern_routes(self, global_edges: Iterable[Iterable]) -> None:
        """Build the route CSR and the edge-key table in one pass."""
        n = len(self._instances)
        edge_index: dict[object, int] = {}
        intern = edge_index.setdefault
        flat: list[int] = []
        append = flat.append
        indptr = np.zeros(n + 1, dtype=np.int64)
        rows = 0
        for ge in global_edges:
            if rows == n:
                raise ValueError("one edge list per instance required")
            for e in ge:
                append(intern(e, len(edge_index)))
            rows += 1
            indptr[rows] = len(flat)
        if rows != n:
            raise ValueError("one edge list per instance required")
        self._flat_edges = np.asarray(flat, dtype=np.int64)
        self._indptr = indptr
        #: ``_edge_keys[eid]`` is the global edge key interned as ``eid``.
        self._edge_keys: list = list(edge_index)
        self.num_edges = len(edge_index)

    def _index_demands(self) -> None:
        """Demand columns: first-appearance interning (``_dix``) and the
        demand → candidate CSR (ascending instance ids per demand)."""
        insts = self._instances
        n = len(insts)
        for pos, inst in enumerate(insts):
            if inst.instance_id != pos:
                raise ValueError(
                    f"instance ids must be dense 0..N-1 in order; position "
                    f"{pos} holds id {inst.instance_id}"
                )
        dem = np.asarray([d.demand_id for d in insts], dtype=np.int64)
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
        self._cand_indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self._cand_indptr[1:])
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
        eptr = np.zeros(self.num_edges + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=self.num_edges),
                  out=eptr[1:])
        owner = np.repeat(np.arange(len(self._instances), dtype=np.int64),
                          np.diff(self._indptr))
        self._by_edge = (eptr, owner[np.argsort(flat, kind="stable")])

    # ------------------------------------------------------------------

    def sliced(self, instances: Sequence, gids: Sequence[int]) -> "ConflictIndex":
        """A relabeled sub-population view sharing this index's geometry.

        ``instances`` are the sub-population's instance objects with
        *dense local ids* (``instance_id == position``, demand ids
        densified — the shard-subproblem convention) and ``gids[k]`` is
        the global instance id local instance ``k`` was sliced from.

        The view shares the parent's edge-id space, edge-key table and
        per-network Euler-tour indexes, and gathers its CSR rows and
        columns from the parent's arrays — so building it costs a few
        array gathers instead of the per-instance Python loops of a
        from-scratch build.  Every query answers exactly as a freshly
        built index over the same sub-population would: the shared
        edge-id space is a superset, which only widens the (never-loaded)
        zero tail no query observes.
        """
        gids_arr = np.asarray(gids, dtype=np.int64)
        k = len(gids_arr)
        if len(instances) != k:
            raise ValueError("one instance per global id required")
        out = object.__new__(ConflictIndex)
        out._instances = list(instances)
        out._edge_keys = self._edge_keys
        out.num_edges = self.num_edges
        out._flat_edges, counts = gather_rows(self._indptr,
                                              self._flat_edges, gids_arr)
        out._indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=out._indptr[1:])
        out._index_demands()
        out._by_edge = None  # lazy — see _ensure_buckets
        out._net_arr = self._net_arr[gids_arr]
        out._heights = self._heights[gids_arr]
        out._profits = self._profits[gids_arr]
        out._geometry = self._geometry
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
        return len(self._instances)

    def instance(self, iid: int) -> Any:
        """The instance with id ``iid``."""
        return self._instances[iid]

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
        out = set(self.candidates(self._instances[iid].demand_id).tolist())
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
    """Incremental membership structure for the second-phase greedy unwind.

    Maintains per-edge load (or occupancy) and per-demand usage for a
    growing/shrinking *active set* of instances, so "which of these
    candidates conflict with the active set" is a batched gather/segment
    reduction instead of a from-scratch rebuild per step.

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
        self._members: set[int] = set()

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, iid: int) -> bool:
        return iid in self._members

    def _edges(self, iid: int) -> np.ndarray:
        idx = self._index
        return idx._flat_edges[idx._indptr[iid]:idx._indptr[iid + 1]]

    def blocked_mask(self, iids: Sequence[int]) -> np.ndarray:
        """Boolean array: which candidates conflict with the active set.

        The candidates are assumed pairwise non-conflicting (they come
        from one MIS step), so the answers are independent of each other.
        """
        idx = self._index
        arr = np.asarray(iids, dtype=np.int64)
        if len(arr) == 0:
            return np.zeros(0, dtype=bool)
        if len(arr) == 1:
            # Scalar fast path: single-candidate probes dominate the
            # online replay (one instance per demand is the common
            # population shape), and the batched gather/segment machinery
            # below costs ~10x the work for them.  Same comparisons, same
            # answer, bit for bit.
            iid = int(arr[0])
            hit = bool(self._demand_used[idx._dix[iid]])
            if not hit:
                row = idx._flat_edges[idx._indptr[iid]:idx._indptr[iid + 1]]
                if len(row):
                    top = self._load[row].max()
                    if self.capacities:
                        hit = bool(top + idx._heights[iid] > 1.0 + 1e-9)
                    else:
                        hit = bool(top > 0.0)
            return np.asarray([hit], dtype=bool)
        if len(arr) <= _PROBE_MAX:
            # The batched answer row by row: an empty route's peak load
            # reads 0.0, as its zero-filled segment maximum does below.
            flat, indptr, heights = idx._flat_edges, idx._indptr, idx._heights
            out = self._demand_used[idx._dix[arr]]
            for j, iid in enumerate(arr.tolist()):
                if out[j]:
                    continue
                row = flat[indptr[iid]:indptr[iid + 1]]
                top = self._load[row].max() if len(row) else 0.0
                if self.capacities:
                    out[j] = top + heights[iid] > 1.0 + 1e-9
                else:
                    out[j] = top > 0.0
            return out
        blocked = self._demand_used[idx._dix[arr]].copy()
        peaks, counts = self.route_peaks(arr)
        if counts.any():  # an all-empty batch skips the load test
            if self.capacities:
                blocked |= peaks + idx._heights[arr] > 1.0 + 1e-9
            else:
                blocked |= peaks > 0.0
        return blocked

    def route_peaks(self, iids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(peaks, counts)``: each instance's heaviest route-edge load
        (0.0 for an empty route) and its route length, from one gather
        and one segment maximum over the concatenated routes."""
        idx = self._index
        edges, counts = gather_rows(idx._indptr, idx._flat_edges, iids)
        peaks = np.zeros(len(iids), dtype=np.float64)
        if len(edges):
            seg_starts = np.zeros(len(iids), dtype=np.int64)
            np.cumsum(counts[:-1], out=seg_starts[1:])
            nonempty = counts > 0
            peaks[nonempty] = np.maximum.reduceat(
                self._load[edges], seg_starts[nonempty]
            )
        return peaks, counts

    def blocked(self, iid: int) -> bool:
        """Whether one candidate conflicts with the active set."""
        return bool(self.blocked_mask(np.asarray([iid]))[0])

    def edge_loads(self, iid: int) -> np.ndarray:
        """Current load on each edge of instance ``iid``'s route.

        In the index's internal CSR order — arbitrary when the index was
        built from unordered edge sets — so the result is meant for
        aggregation (sums, maxima, the online price functions), not for
        zipping against the route's edge sequence.
        """
        return self._load[self._edges(iid)]

    def max_load(self) -> float:
        """The heaviest edge load in the active set (0.0 when empty)."""
        return float(self._load.max()) if len(self._load) else 0.0

    def add(self, iid: int) -> None:
        """Insert an instance into the active set (no feasibility check)."""
        idx = self._index
        h = idx._heights[iid] if self.capacities else 1.0
        self._load[self._edges(iid)] += h
        self._demand_used[idx._dix[iid]] = True
        self._members.add(iid)

    def add_all(self, iids: Sequence[int], *,
                _edges: np.ndarray | None = None,
                _adds: np.ndarray | None = None) -> None:
        """Batch-insert pairwise non-conflicting instances.

        ``_edges``/``_adds`` let a caller that has already gathered the
        instances' concatenated route edges (and the matching repeated
        heights) pass them in instead of re-gathering — the batch
        decision kernels' hot path.  The values must equal what the
        gather here would produce; the load update is the identical
        fancy-indexed add either way.
        """
        idx = self._index
        arr = np.asarray(iids, dtype=np.int64)
        if len(arr) == 0:
            return
        if _edges is None:
            _edges, counts = gather_rows(idx._indptr, idx._flat_edges, arr)
            if self.capacities:
                _adds = np.repeat(idx._heights[arr], counts)
        if _edges is not None and len(_edges):
            if self.capacities:
                # Candidates are edge-disjoint, so the fancy-indexed add
                # touches each position at most once.
                self._load[_edges] += _adds
            else:
                self._load[_edges] += 1.0
        self._demand_used[idx._dix[arr]] = True
        self._members.update(arr.tolist())

    def remove(self, iid: int) -> None:
        """Remove an instance from the active set."""
        if iid not in self._members:
            raise KeyError(f"instance {iid} is not in the active set")
        idx = self._index
        h = idx._heights[iid] if self.capacities else 1.0
        self._load[self._edges(iid)] -= h
        self._demand_used[idx._dix[iid]] = False
        self._members.discard(iid)
