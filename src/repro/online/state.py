"""Incremental capacity state for streaming admission control.

:class:`CapacityLedger` is the single mutable structure the online
subsystem maintains.  It builds the vectorized
:class:`~repro.core.conflict.ConflictIndex` over the trace's instance
population **once** — interval geometry on lines, Euler-tour geometry on
trees — and then serves every event with O(path)-amortized operations on
the incremental :class:`~repro.core.conflict.ActiveConflictSet`:

* ``feasible`` — which of a demand's instances fit the residual
  capacity right now (one batched gather/segment-max probe);
* ``admit`` / ``release`` / ``evict`` — scatter-add / scatter-subtract
  of the instance's height along its route;
* ``route_loads`` — the current per-edge loads along a route, which the
  dual-gated policy prices;
* ``holders_on_route`` / ``preemption_plan`` — which admitted demands
  contest a route, and the cheapest-density eviction set that would make
  it feasible (the geometry half of every preemptive policy), read off
  the per-edge holder sets and the per-edge cheapest-holder profit
  column the mutations keep current.

Nothing is ever rebuilt per event; the conflict probes are exactly the
ones the phase-2 engine uses offline, shared through the same index.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..core.conflict import ConflictIndex, gather_rows
from ..obs.tracing import RECORDER as _REC
from ..core.instance import TreeProblem
from ..core.solution import (
    Solution,
    verify_line_solution,
    verify_tree_solution,
)

__all__ = ["CapacityLedger", "PRUNED"]

#: Load-comparison slack, matching the conflict index's blocked test.
_EPS = 1e-9


class _Pruned:
    """Type of :data:`PRUNED` (a named sentinel, distinct from ``None``)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "PRUNED"


#: What :meth:`CapacityLedger.preemption_plan` returns for a candidate
#: its caller's ``gate`` provably rejects before the plan is complete.
PRUNED = _Pruned()


class CapacityLedger:
    """Admit/release/evict bookkeeping over a fixed instance population.

    Parameters
    ----------
    problem:
        The trace's :class:`~repro.core.instance.TreeProblem` or
        :class:`~repro.core.instance.LineProblem`; its expanded instances
        are the admission candidates.

    Notes
    -----
    A demand is admitted through **one** of its instances (one accessible
    network, one placement).  A demand leaves the admitted set in one of
    two ways, and the profit accounting distinguishes them:

    * a natural **departure** (``release``) keeps its profit — the
      demand was served for its lifetime;
    * a preemptive **eviction** (``evict``) *forfeits* its profit and
      may additionally charge a penalty.

    Either way the demand can never be re-admitted.  Profit is tracked
    with running counters — ``admitted_profit`` (gross),
    ``forfeited_profit`` and ``penalty_paid`` — rather than by summing
    the admission log, which under preemption would overcount:
    ``realized_profit = admitted - forfeited`` and
    ``penalty_adjusted_profit = realized - penalties``.
    """

    def __init__(self, problem, *, index: ConflictIndex | None = None):
        self.problem = problem
        self.instances = problem.instances()
        if index is not None:
            # A prebuilt index over exactly this problem's instance
            # population — e.g. a :meth:`ConflictIndex.sliced` shard view
            # of one shared global build — skips the per-instance
            # geometry loops the from-scratch path pays.
            if len(index._instances) != len(self.instances):
                raise ValueError(
                    f"index covers {len(index._instances)} instances, "
                    f"problem has {len(self.instances)}"
                )
            self.index = index
        else:
            trees = None
            if isinstance(problem, TreeProblem):
                trees = {q: net for q, net in enumerate(problem.networks)}
            # Routes are built one at a time and interned as they come,
            # so no per-instance key set outlives the build.
            routes = (frozenset(problem.global_edges_of(d))
                      for d in self.instances)
            #: The shared conflict index: the population's one copy of
            #: its static geometry (routes, columns, candidate CSR).
            self.index = ConflictIndex(self.instances, routes, trees=trees)
        self.active = self.index.active_set(capacities=True)
        self._admitted: dict[int, int] = {}
        self._ever_admitted: set[int] = set()
        self._evicted: set[int] = set()
        #: ``(demand_id, instance_id)`` in admission order; never shrinks.
        self.admission_log: list[tuple[int, int]] = []
        #: ``(demand_id, instance_id)`` in eviction order; never shrinks.
        self.eviction_log: list[tuple[int, int]] = []
        # Running profit counters (see the class Notes): kept incrementally
        # so realized profit stays correct under preemption, where the
        # admission log alone overcounts.
        self._profit_admitted = 0.0
        self._profit_forfeited = 0.0
        self._penalty_paid = 0.0
        # Who currently holds each edge — the reverse map preemptive
        # policies need to find a route's contestants in O(path).
        self._holders_by_edge: list[set[int]] = [
            set() for _ in range(self.index.num_edges)
        ]
        #: Per edge, the smallest profit among its current holders
        #: (``inf`` for an edge nobody holds): the cost lower bound the
        #: preemption planner and the batch kernel both read.
        self._cheapest = np.full(self.index.num_edges, math.inf)
        # Static per-instance columns as plain Python lists, built once:
        # the preemptive policies read them holder-by-holder on every
        # blocked arrival, where NumPy scalar indexing would dominate.
        # The floats are the instances' own objects, so a column costs
        # one pointer per instance.  Route geometry, heights and profits
        # never change, so nothing here invalidates.  Route edge lists
        # and position maps stay lazy: only contested routes need them.
        indptr = self.index._indptr
        self._route_len: list[int] = np.maximum(
            indptr[1:] - indptr[:-1], 1).tolist()
        self._height: list[float] = [float(inst.height)
                                     for inst in self.instances]
        self._profit: list[float] = [float(inst.profit)
                                     for inst in self.instances]
        self._route_edges_cache: dict[int, list[int]] = {}
        self._route_pos_cache: dict[int, dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def candidates(self, demand_id: int) -> np.ndarray:
        """Instance ids of ``demand_id`` (one per network × placement),
        ascending, as a read-only view of the index's candidate CSR;
        ``KeyError`` for a demand with no instance."""
        return self.index.candidates(demand_id)

    def feasible(self, iids) -> np.ndarray:
        """Boolean mask: which instances fit the residual capacity now."""
        return ~self.active.blocked_mask(np.asarray(iids, dtype=np.int64))

    def route_loads(self, iid: int) -> np.ndarray:
        """Current load on each edge of instance ``iid``'s route."""
        return self.active.edge_loads(iid)

    def route_length(self, iid: int) -> int:
        """Number of edges on instance ``iid``'s route (at least 1)."""
        return self._route_len[iid]

    def is_admitted(self, demand_id: int) -> bool:
        """Whether the demand is currently in the system."""
        return demand_id in self._admitted

    def was_admitted(self, demand_id: int) -> bool:
        """Whether the demand was ever admitted (even if since gone)."""
        return demand_id in self._ever_admitted

    def was_evicted(self, demand_id: int) -> bool:
        """Whether the demand was preemptively evicted at some point."""
        return demand_id in self._evicted

    def admitted_instance(self, demand_id: int) -> int | None:
        """The instance a currently-admitted demand holds, else ``None``."""
        return self._admitted.get(demand_id)

    def admitted_items(self) -> list[tuple[int, int]]:
        """``(demand_id, instance_id)`` for every currently-admitted
        demand, in ascending demand-id order — the deterministic
        iteration subsystems rebuilding state need (the residual-aware
        batch-resolve and the sharded coordinator)."""
        return sorted(self._admitted.items())

    @property
    def num_admitted(self) -> int:
        """Number of demands currently holding capacity."""
        return len(self._admitted)

    @property
    def num_evicted(self) -> int:
        """Number of evictions performed so far."""
        return len(self.eviction_log)

    @property
    def admitted_profit(self) -> float:
        """Gross profit over every admission ever made."""
        return self._profit_admitted

    @property
    def forfeited_profit(self) -> float:
        """Profit forfeited by evicted demands."""
        return self._profit_forfeited

    @property
    def penalty_paid(self) -> float:
        """Total eviction penalties charged so far."""
        return self._penalty_paid

    @property
    def realized_profit(self) -> float:
        """Profit actually kept: admissions minus eviction forfeits.

        Natural departures keep their profit; evictions do not.
        """
        return self._profit_admitted - self._profit_forfeited

    @property
    def penalty_adjusted_profit(self) -> float:
        """Realized profit minus the eviction penalties paid."""
        return self.realized_profit - self._penalty_paid

    def utilization(self) -> float:
        """Heaviest current edge load (1.0 = some edge fully booked)."""
        return self.active.max_load()

    # ------------------------------------------------------------------
    # Preemption geometry
    # ------------------------------------------------------------------

    def _edge_ids(self, iid: int) -> np.ndarray:
        """Internal edge ids of instance ``iid``'s route (CSR order)."""
        return self.active._edges(iid)

    def _route_edge_list(self, iid: int) -> list[int]:
        """``_edge_ids(iid)`` as a cached Python list (static geometry)."""
        lst = self._route_edges_cache.get(iid)
        if lst is None:
            lst = self._edge_ids(iid).tolist()
            self._route_edges_cache[iid] = lst
        return lst

    def _route_pos(self, iid: int) -> dict[int, int]:
        """Cached ``{edge id -> position}`` map of ``iid``'s route."""
        pos = self._route_pos_cache.get(iid)
        if pos is None:
            pos = {eid: k for k, eid in enumerate(self._route_edge_list(iid))}
            self._route_pos_cache[iid] = pos
        return pos

    def holders_on_route(self, iid: int) -> set[int]:
        """Currently-admitted demands sharing an edge with ``iid``'s route."""
        holders: set[int] = set()
        for eid in self._route_edge_list(iid):
            holders |= self._holders_by_edge[eid]
        return holders

    def preemption_plan(self, iid: int, gate: float | None = None
                        ) -> list[int] | None | _Pruned:
        """The cheapest-density eviction set that makes ``iid`` feasible.

        Walks the route's current holders in ascending profit-density
        order (profit per route edge, ties by demand id) and greedily
        collects victims that still relieve an over-capacity edge, until
        instance ``iid`` fits.  Returns the victim demand ids in eviction
        order — ``[]`` when the route is already feasible, ``None`` when
        even evicting every contestant would not free enough capacity
        (another instance of ``iid``'s own demand can never be a victim,
        since one demand holds at most one instance and an arriving
        demand holds none).

        ``gate`` is the caller's economic test, passed in so hopeless
        candidates cost no plan: the caller rejects any plan whose
        victims' total profit ``cost`` has ``profit(iid) <= gate *
        cost``.  Every over-capacity edge needs a victim that holds it,
        so ``cost`` is at least the largest, over those edges, of the
        cheapest holder's profit, and at least every victim's profit
        taken so far.  The walk returns :data:`PRUNED` as soon as the
        rejection holds at that lower bound.  Float rounding is
        monotone, so a pruned candidate is exactly one the caller would
        have rejected; ``gate=None`` always plans in full.

        This is pure geometry: the *economic* test (is the newcomer's
        profit worth the victims'?) belongs to the policies.
        """
        height = self._height[iid]
        eids = self._edge_ids(iid)
        deficit = [x + height - 1.0 for x in self.active._load[eids].tolist()]
        hot = [k for k, x in enumerate(deficit) if x > _EPS]
        if not hot:
            return []
        admitted = self._admitted
        profit_of = self._profit
        profit = profit_of[iid]
        column = self._cheapest[eids].tolist()
        bound = 0.0
        for k in hot:
            cheapest = column[k]
            if cheapest == math.inf:
                return None  # nothing to evict on an over-capacity edge
            if cheapest > bound:
                bound = cheapest
                if gate is not None and profit <= gate * bound:
                    return PRUNED
        n_hot = len(hot)
        # Each contestant's hot route positions.  Deficits only fall, so
        # an edge that is not hot now never turns hot: a holder of no
        # hot edge never relieves one, and cooled edges need no update.
        route = self._route_edge_list(iid)
        by_edge = self._holders_by_edge
        shared: dict[int, list[int]] = {}
        for k in hot:
            for d in by_edge[route[k]]:
                ks = shared.get(d)
                if ks is None:
                    shared[d] = [k]
                else:
                    ks.append(k)
        route_len = self._route_len
        order = []
        for d in shared:
            v_iid = admitted[d]
            order.append((profit_of[v_iid] / route_len[v_iid], d))
        order.sort()
        height_of = self._height
        victims: list[int] = []
        for _, d in order:
            ks = [k for k in shared[d] if deficit[k] > _EPS]
            if not ks:
                continue  # only evict holders that relieve a hot edge
            v_iid = admitted[d]
            v_height = height_of[v_iid]
            for k in ks:
                deficit[k] -= v_height
                if deficit[k] <= _EPS:
                    n_hot -= 1
            victims.append(d)
            if not n_hot:
                return victims
            if gate is not None and profit_of[v_iid] > bound:
                bound = profit_of[v_iid]
                if profit <= gate * bound:
                    return PRUNED
        return None

    def route_loads_excluding(self, iid: int, victims) -> np.ndarray:
        """``route_loads(iid)`` as they would read after evicting
        ``victims`` — the loads a post-eviction price function sees.

        Kept next to :meth:`preemption_plan` so both use the same
        shared-edge walk and height source; the result is clamped at 0
        against float dust from the subtraction.
        """
        eids = self._edge_ids(iid)
        loads = self.active._load[eids].copy()
        pos_of = self._route_pos(iid)
        for d in victims:
            v_iid = self._admitted[d]
            height = self._height[v_iid]
            for eid in self._route_edge_list(v_iid):
                k = pos_of.get(eid)
                if k is not None:
                    loads[k] -= height
        return np.maximum(loads, 0.0)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def admit(self, iid: int) -> None:
        """Admit one instance; its demand must be new and the route free.

        Raises
        ------
        ValueError
            If the demand was admitted before (even if since departed or
            evicted) or the instance no longer fits the residual
            capacity.
        """
        t0 = time.perf_counter_ns() if _REC.enabled else 0
        demand_id = self.instances[iid].demand_id
        if demand_id in self._ever_admitted:
            raise ValueError(f"demand {demand_id} was already admitted")
        if self.active.blocked(iid):
            raise ValueError(
                f"instance {iid} no longer fits the residual capacity"
            )
        self.active.add(iid)
        self._hold(iid, demand_id, self._route_edge_list(iid))
        eids = self._edge_ids(iid)
        self._cheapest[eids] = np.minimum(self._cheapest[eids],
                                          self._profit[iid])
        if t0:
            _REC.record("ledger.admit", t0, time.perf_counter_ns() - t0,
                        {"demand": demand_id, "instance": iid})

    def _hold(self, iid: int, demand_id: int, route: list[int]) -> None:
        """The admitted-set bookkeeping of one admission, in admission
        order: maps, log, profit counter and the holder sets of
        ``route`` (the instance's cached route list)."""
        self._admitted[demand_id] = iid
        self._ever_admitted.add(demand_id)
        self.admission_log.append((demand_id, iid))
        # repro: noqa[CERT001] -- deliberate += in admission order: a
        # batch must bit-match the scalar loop's per-event accumulation,
        # which fsum's exact rounding would not.
        self._profit_admitted += float(self.instances[iid].profit)
        for eid in route:
            self._holders_by_edge[eid].add(demand_id)

    def try_admit(self, demand_id: int,
                  min_density: float = 0.0) -> int | None:
        """Admit the cheapest feasible instance of a demand, if any.

        Candidates are ranked by route length then instance id, so the
        admission burns as little bandwidth as possible; instances whose
        profit density (profit / route length) falls below
        ``min_density`` are skipped.  Returns the admitted instance id
        or ``None``.  This ranking is *the* first-fit rule — the
        greedy-threshold policy delegates here.
        """
        if demand_id in self._ever_admitted:
            return None
        cands = self.candidates(demand_id)
        ok = self.feasible(cands)
        best = None
        best_key = None
        for iid in cands[ok].tolist():
            length = self.route_length(iid)
            if self._profit[iid] / length < min_density:
                continue
            key = (length, iid)
            if best_key is None or key < best_key:
                best, best_key = iid, key
        if best is None:
            return None
        self.admit(best)
        return best

    def admit_many(self, iids, *, _prechecked: bool = False,
                   _demands: list | None = None,
                   _edges=None, _adds=None) -> None:
        """Admit a batch of instances with *pairwise edge-disjoint*
        routes (the fast path's committed-window contract), atomically.

        The whole batch is validated before any state changes — every
        demand new, no demand twice, every route still feasible — so a
        failed admit leaves no half-applied load (the mirror of the
        service ``feed`` op's whole-batch validation contract).  The
        per-admission effects are then applied in batch order: the load
        scatter-add touches each edge position exactly once
        (disjointness), and the profit counter accumulates one add per
        admission in order, exactly the float sequence the scalar
        :meth:`admit` loop performs.

        ``_prechecked`` skips the validation pass; it is reserved for
        the batch decision kernels, which have just computed the same
        feasibility mask the validation would recompute.  ``_demands``,
        ``_edges`` and ``_adds`` likewise let those kernels hand over
        the demand ids and pre-gathered route edges/heights they
        already hold.  External callers get the validating default.

        Raises
        ------
        ValueError
            If any demand was admitted before (or appears twice in the
            batch), or any instance no longer fits the residual
            capacity.  The ledger is untouched in that case.
        """
        arr = np.asarray(iids, dtype=np.int64)
        if len(arr) == 0:
            return
        t0 = time.perf_counter_ns() if _REC.enabled else 0
        demands = (_demands if _demands is not None else
                   [self.instances[iid].demand_id for iid in arr.tolist()])
        if not _prechecked:
            seen: set[int] = set()
            for d in demands:
                if d in self._ever_admitted or d in seen:
                    raise ValueError(f"demand {d} was already admitted")
                seen.add(d)
            peaks, counts = self.active.route_peaks(arr)
            # Empty routes are exempt, matching the single-instance
            # probe :meth:`admit` itself performs.
            bad = ((peaks + self.index._heights[arr] > 1.0 + 1e-9)
                   & (counts > 0))
            if bad.any():
                culprit = int(arr[bad][0])
                raise ValueError(
                    f"instance {culprit} no longer fits the residual "
                    f"capacity"
                )
        # Validation passed — apply, in batch order.  The routes are
        # disjoint, so the fancy-indexed load add (add_all) and
        # cheapest-column minimum touch each edge once: the same float
        # operations as the scalar admit loop.
        idx = self.index
        iid_list = arr.tolist()
        routes = [self._route_edge_list(iid) for iid in iid_list]
        counts = [len(route) for route in routes]
        if _edges is None:
            _edges = np.concatenate([self._edge_ids(iid) for iid in iid_list])
            _adds = np.repeat(idx._heights[arr], counts)
        self.active.add_all(arr, _edges=_edges, _adds=_adds)
        cheapest = self._cheapest
        cheapest[_edges] = np.minimum(cheapest[_edges],
                                      np.repeat(idx._profits[arr], counts))
        for iid, d, route in zip(iid_list, demands, routes):
            self._hold(iid, d, route)
        if t0:
            _REC.record("ledger.admit_many", t0,
                        time.perf_counter_ns() - t0,
                        {"admitted": len(arr)})

    def release_many(self, demand_ids, *, _disjoint: bool = False) -> list[int]:
        """Release a batch of departed demands; returns their instances.

        The whole batch is validated first (every demand currently
        admitted, none named twice), so a bad entry leaves the ledger
        untouched.  The load subtraction runs as one ``np.subtract.at``
        over the concatenated routes — the index array is in batch
        order, and ``ufunc.at`` applies updates in index order, so the
        float sequence per edge is exactly the scalar per-demand loop's.
        ``_disjoint`` (fast-path internal) promises the released routes
        are pairwise edge-disjoint, so the scatter touches each position
        once and a plain fancy subtract performs the identical single
        float subtraction per edge.

        Raises
        ------
        KeyError
            If a demand is not currently admitted.
        ValueError
            If a demand appears twice in the batch.
        """
        dlist = [int(d) for d in demand_ids]
        iids = []
        for d in dlist:
            iid = self._admitted.get(d)
            if iid is None:
                raise KeyError(f"demand {d} is not admitted")
            iids.append(iid)
        if not iids:
            return []
        if len(set(dlist)) != len(dlist):
            raise ValueError("a demand appears twice in the release batch")
        t0 = time.perf_counter_ns() if _REC.enabled else 0
        idx = self.index
        arr = np.asarray(iids, dtype=np.int64)
        routes = [self._route_edge_list(iid) for iid in iids]
        counts = [len(route) for route in routes]
        edges = np.concatenate([self._edge_ids(iid) for iid in iids])
        if len(edges):
            subs = np.repeat(idx._heights[arr], counts)
            if _disjoint:
                self.active._load[edges] -= subs
            else:
                np.subtract.at(self.active._load, edges, subs)
        self.active._demand_used[idx._dix[arr]] = False
        for d, iid, route in zip(dlist, iids, routes):
            del self._admitted[d]
            self.active._members.discard(iid)
            for eid in route:
                self._holders_by_edge[eid].discard(d)
        if len(edges):
            self._refresh_cheapest(
                edges[self._cheapest[edges]
                      == np.repeat(idx._profits[arr], counts)])
        if t0:
            _REC.record("ledger.release_many", t0,
                        time.perf_counter_ns() - t0,
                        {"released": len(dlist)})
        return iids

    def _remove(self, demand_id: int) -> int:
        """Drop a demand from the admitted set and the holder map."""
        try:
            iid = self._admitted.pop(demand_id)
        except KeyError:
            raise KeyError(f"demand {demand_id} is not admitted") from None
        self.active.remove(iid)
        for eid in self._route_edge_list(iid):
            self._holders_by_edge[eid].discard(demand_id)
        eids = self._edge_ids(iid)
        self._refresh_cheapest(eids[self._cheapest[eids] == self._profit[iid]])
        return iid

    def _refresh_cheapest(self, eids: np.ndarray) -> None:
        """Recompute the cheapest-holder column on ``eids`` from the
        holder sets — called with exactly the edges whose minimum a
        removed holder defined, after the holder sets dropped it."""
        if not len(eids):
            return
        admitted = self._admitted
        profit_of = self._profit
        cheapest = self._cheapest
        for eid in eids.tolist():
            holders = self._holders_by_edge[eid]
            cheapest[eid] = (min([profit_of[admitted[d]] for d in holders])
                             if holders else math.inf)

    def _cheapest_of_admitted(self) -> np.ndarray:
        """The cheapest-holder column derived from the admitted routes."""
        idx = self.index
        held = np.fromiter(self._admitted.values(), dtype=np.int64,
                           count=len(self._admitted))
        edges, counts = gather_rows(idx._indptr, idx._flat_edges, held)
        cheapest = np.full(idx.num_edges, math.inf)
        np.minimum.at(cheapest, edges, np.repeat(idx._profits[held], counts))
        return cheapest

    def release(self, demand_id: int) -> int:
        """Release a departed demand's capacity; returns its instance id.

        A natural departure: the demand keeps its profit.
        """
        return self._remove(demand_id)

    def evict(self, demand_id: int, penalty: float = 0.0) -> int:
        """Preemptively evict an admitted demand; returns its instance id.

        The demand's capacity is released, its profit is *forfeited*
        (subtracted from :attr:`realized_profit`), ``penalty`` is added
        to :attr:`penalty_paid`, and the eviction is recorded in
        :attr:`eviction_log`.  An evicted demand can never be
        re-admitted.

        Raises
        ------
        KeyError
            If the demand is not currently admitted.
        ValueError
            If ``penalty`` is negative.
        """
        if penalty < 0:
            raise ValueError(f"penalty must be >= 0, got {penalty}")
        t0 = time.perf_counter_ns() if _REC.enabled else 0
        iid = self._remove(demand_id)
        self._evicted.add(demand_id)
        self.eviction_log.append((demand_id, iid))
        self._profit_forfeited += float(self.instances[iid].profit)
        self._penalty_paid += float(penalty)
        if t0:
            _REC.record("ledger.evict", t0, time.perf_counter_ns() - t0,
                        {"demand": demand_id, "instance": iid})
        return iid

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-safe snapshot of every mutable field, bit-exact.

        The per-edge loads are stored **verbatim** rather than
        recomputed from the admitted set on restore: re-adding heights
        would replay a *different* float accumulation order, and the
        policies' price functions (``max_gate``, the dual certificate)
        would drift off the uninterrupted run.  Python's JSON float
        round-trip is exact (shortest-repr), so ``tolist`` → restore is
        lossless.
        """
        return {
            "load": self.active._load.tolist(),
            "admitted": [[d, i] for d, i in sorted(self._admitted.items())],
            "ever_admitted": sorted(self._ever_admitted),
            "evicted": sorted(self._evicted),
            "admission_log": [[d, i] for d, i in self.admission_log],
            "eviction_log": [[d, i] for d, i in self.eviction_log],
            "penalty_paid": self._penalty_paid,
        }

    def restore_state(self, state: dict) -> None:
        """Reset a freshly-built ledger to an :meth:`export_state` snapshot.

        The profit counters are *re-accumulated* from the logs in their
        original order — one add per entry, the exact float sequence the
        live run performed — so they land on identical bits without
        being stored.
        """
        self.active._load[:] = np.asarray(state["load"], dtype=np.float64)
        self._admitted = {int(d): int(i) for d, i in state["admitted"]}
        self._ever_admitted = {int(d) for d in state["ever_admitted"]}
        self._evicted = {int(d) for d in state["evicted"]}
        self.admission_log = [(int(d), int(i))
                              for d, i in state["admission_log"]]
        self.eviction_log = [(int(d), int(i))
                             for d, i in state["eviction_log"]]
        self._profit_admitted = 0.0
        for _, iid in self.admission_log:
            # repro: noqa[CERT001] -- deliberate += in original event
            # order: a restore must bit-match the live per-event
            # accumulation, which fsum's exact rounding would not.
            self._profit_admitted += float(self.instances[iid].profit)
        self._profit_forfeited = 0.0
        for _, iid in self.eviction_log:
            # repro: noqa[CERT001] -- same: replays the live += rounding
            # so a warm restart is byte-identical to the original run.
            self._profit_forfeited += float(self.instances[iid].profit)
        self._penalty_paid = float(state["penalty_paid"])
        members = set(self._admitted.values())
        self.active._members = members
        self.active._demand_used[:] = False
        for iid in members:
            self.active._demand_used[self.index._dix[iid]] = True
        for holders in self._holders_by_edge:
            holders.clear()
        for d, iid in self._admitted.items():
            for eid in self._route_edge_list(iid):
                self._holders_by_edge[eid].add(d)
        self._cheapest[:] = self._cheapest_of_admitted()

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def snapshot(self) -> Solution:
        """The currently-admitted instances as a :class:`Solution`."""
        selected = [self.instances[iid] for iid in self._admitted.values()]
        return Solution(
            selected=selected,
            stats={"algorithm": "online-ledger", "admitted": len(selected)},
        )

    def verify(self) -> None:
        """Re-check the current admitted set from first principles.

        Beyond the feasibility re-verification, the profit counters are
        checked against the logs (realized profit must equal the
        admission-log sum minus the eviction-log sum), the active set's
        members against the admitted set, and every edge's live load
        against the heights of the admitted routes that cross it, and
        the cheapest-holder column against the admitted routes' profits.
        """
        sol = self.snapshot()
        if isinstance(self.problem, TreeProblem):
            verify_tree_solution(self.problem, sol, unit_height=False)
        else:
            verify_line_solution(self.problem, sol, unit_height=False)
        log_sum = math.fsum(self.instances[iid].profit
                            for _, iid in self.admission_log)
        evict_sum = math.fsum(self.instances[iid].profit
                              for _, iid in self.eviction_log)
        if abs((log_sum - evict_sum) - self.realized_profit) > 1e-6:
            raise AssertionError(
                "profit counters drifted from the admission/eviction logs: "
                f"{log_sum} - {evict_sum} != {self.realized_profit}"
            )
        active = self.active
        if active._members != set(self._admitted.values()):
            raise AssertionError(
                "active-set members differ from the admitted instances")
        idx = self.index
        held = np.fromiter(self._admitted.values(), dtype=np.int64,
                           count=len(self._admitted))
        edges, counts = gather_rows(idx._indptr, idx._flat_edges, held)
        expect = np.bincount(edges, weights=np.repeat(idx._heights[held],
                                                      counts),
                             minlength=idx.num_edges)
        load = active._load
        if len(load):
            drift = float(np.abs(load - expect).max())
            if drift > _EPS or float(load.min()) < -_EPS:
                raise AssertionError(
                    f"edge loads drifted from the admitted routes: max "
                    f"difference {drift}, min load {float(load.min())}")
        if not np.array_equal(self._cheapest, self._cheapest_of_admitted()):
            raise AssertionError(
                "cheapest-holder column differs from the admitted routes")
