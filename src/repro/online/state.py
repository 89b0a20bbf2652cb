"""Incremental capacity state for streaming admission control.

:class:`CapacityLedger` is the single mutable structure the online
subsystem maintains.  It builds the vectorized
:class:`~repro.core.conflict.ConflictIndex` over the trace's instance
population **once** — interval geometry on lines, Euler-tour geometry on
trees — and owns the live state over it: the per-edge ``load`` column
and the admitted set.  Every event is served with O(path)-amortized
operations on that state:

* ``feasible`` — which of a demand's instances fit the residual
  capacity right now (a per-row probe for a few candidates, one
  batched gather/segment maximum for more);
* ``admit`` / ``release`` / ``evict`` — scatter-add / scatter-subtract
  of the instance's height along its route (and ``admit_many`` /
  ``release_many`` / ``evict_many``, their batch forms, bit for bit);
* ``route_loads`` — the current per-edge loads along a route, which the
  dual-gated policy prices;
* ``holders_on_route`` / ``preemption_plan`` — which admitted demands
  contest a route, and the cheapest-density eviction set that would make
  it feasible (the geometry half of every preemptive policy), read off
  the per-edge holder sets and the per-edge cheapest-holder profit
  column the mutations keep current.

Nothing is ever rebuilt per event.  The batched probe is the same
route-peak reduction (:func:`~repro.core.conflict.route_peaks`) the
offline phase-2 engine's :class:`~repro.core.conflict.ActiveConflictSet`
runs, over the same index; the ledger's state is its own.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..core.conflict import ConflictIndex, gather_rows, route_peaks
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

#: The capacity bound: an instance fits when its route's peak load plus
#: its height does not exceed this.
_CAP = 1.0 + _EPS

#: Candidate sets up to this size are probed row by row in
#: :meth:`CapacityLedger.feasible`; a few per-row maxima cost less than
#: the batched gather/segment machinery's fixed NumPy overhead.
_PROBE_MAX = 8


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
        if index is None:
            #: The shared conflict index: the population's one copy of
            #: its static geometry (routes, columns, candidate CSR),
            #: built from the problem's columns once per problem.
            index = problem.conflict_index()
        elif len(index) != problem.num_instances:
            # A prebuilt index over exactly this problem's instance
            # population — e.g. a :meth:`ConflictIndex.sliced` shard
            # view of one shared global build.
            raise ValueError(
                f"index covers {len(index)} instances, problem has "
                f"{problem.num_instances}"
            )
        self.index = index
        #: Per-edge load, by edge id: the summed heights of the admitted
        #: routes that cross each edge.  Read by the price functions and
        #: the fast path; written only by the ledger's mutations.
        self.load = np.zeros(index.num_edges, dtype=np.float64)
        #: ``demand id -> instance id`` of every demand in the system.
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
        # the policies read them instance by instance on every arrival,
        # where NumPy scalar indexing would dominate.  Route geometry,
        # demands, heights and profits never change, so nothing here
        # invalidates.  Route edge lists and position maps stay lazy:
        # only contested routes need them.
        idx = self.index
        self._route_len: list[int] = np.maximum(
            np.diff(idx._indptr), 1).tolist()
        self._demand: list[int] = idx._dem.tolist()
        self._height: list[float] = idx._heights.tolist()
        self._profit: list[float] = idx._profits.tolist()
        self._route_edges_cache: dict[int, list[int]] = {}
        self._route_pos_cache: dict[int, dict[int, int]] = {}
        #: Bumped by every mutation, so readers can cache what they
        #: derive from the live state (the dual certificate does).
        self._version = 0

    @property
    def instances(self) -> list:
        """The population's instance objects (built on first use, for
        offline readers; the ledger itself reads only columns)."""
        return self.problem.instances()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def candidates(self, demand_id: int) -> np.ndarray:
        """Instance ids of ``demand_id`` (one per network × placement),
        ascending, as a read-only view of the index's candidate CSR;
        ``KeyError`` for a demand with no instance."""
        return self.index.candidates(demand_id)

    def feasible(self, iids) -> np.ndarray:
        """Boolean mask: which instances fit the residual capacity now.

        An instance fits when its demand is not in the system and its
        route's peak load plus its height stays within capacity.  Up to
        :data:`_PROBE_MAX` candidates (one per demand is the common
        population shape) are probed row by row, more with one batched
        gather/segment maximum; both compute the same comparisons, so
        the answer is the same bit for bit.
        """
        arr = np.asarray(iids, dtype=np.int64)
        admitted, demand_of = self._admitted, self._demand
        if len(arr) <= _PROBE_MAX:
            load, height = self.load, self._height
            flat, indptr = self.index._flat_edges, self.index._indptr
            return np.array([
                demand_of[iid] not in admitted
                and load[flat[indptr[iid]:indptr[iid + 1]]].max()
                + height[iid] <= _CAP
                for iid in arr.tolist()], dtype=bool)
        idx = self.index
        peaks = route_peaks(self.load,
                            *gather_rows(idx._indptr, idx._flat_edges, arr))
        fits = peaks + idx._heights[arr] <= _CAP
        for j, iid in enumerate(arr.tolist()):
            if demand_of[iid] in admitted:
                fits[j] = False
        return fits

    def route_loads(self, iid: int) -> np.ndarray:
        """Current load on each edge of instance ``iid``'s route.

        In the CSR row's order — ascending edge id, not the route's
        path sequence — so the result is meant for aggregation (sums,
        maxima, the online price functions).
        """
        return self.load[self._edge_ids(iid)]

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
        return float(self.load.max()) if len(self.load) else 0.0

    # ------------------------------------------------------------------
    # Preemption geometry
    # ------------------------------------------------------------------

    def _edge_ids(self, iid: int) -> np.ndarray:
        """Internal edge ids of instance ``iid``'s route (CSR order)."""
        return self.index.edge_ids(iid)

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
        deficit = [x + height - 1.0 for x in self.load[eids].tolist()]
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
        loads = self.load[eids]
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
        demand_id = self._demand[iid]
        if demand_id in self._ever_admitted:
            raise ValueError(f"demand {demand_id} was already admitted")
        eids = self._edge_ids(iid)
        height = self._height[iid]
        if self.load[eids].max() + height > _CAP:
            raise ValueError(
                f"instance {iid} no longer fits the residual capacity"
            )
        self.load[eids] += height
        self._version += 1
        self._hold(iid, demand_id, self._route_edge_list(iid))
        self._log_admitted(((demand_id, iid),))
        self._cheapest[eids] = np.minimum(self._cheapest[eids],
                                          self._profit[iid])
        if t0:
            _REC.record("ledger.admit", t0, time.perf_counter_ns() - t0,
                        {"demand": demand_id, "instance": iid})

    def _hold(self, iid: int, demand_id: int, route: list[int]) -> None:
        """The admitted-set bookkeeping of one admission: maps and the
        holder sets of ``route`` (the instance's cached route list).
        The log entry and profit add are :meth:`_log_admitted`'s."""
        self._admitted[demand_id] = iid
        self._ever_admitted.add(demand_id)
        for eid in route:
            self._holders_by_edge[eid].add(demand_id)

    def _log_admitted(self, pairs) -> None:
        """Append ``(demand, instance)`` admissions to the admission log
        and the gross profit counter, in the order given — which must be
        event order (the fast path stages them until it is)."""
        log = self.admission_log
        profit_of = self._profit
        for pair in pairs:
            log.append(pair)
            # repro: noqa[CERT001] -- deliberate += in admission order: a
            # batch must bit-match the scalar loop's per-event
            # accumulation, which fsum's exact rounding would not.
            self._profit_admitted += profit_of[pair[1]]

    def _log_evicted(self, entries) -> None:
        """Record ``(demand, instance, penalty)`` evictions — the
        evicted set, the eviction log and the forfeit and penalty
        counters — in the order given (event order, as
        :meth:`_log_admitted`)."""
        log = self.eviction_log
        profit_of = self._profit
        for d, iid, p in entries:
            self._evicted.add(d)
            log.append((d, iid))
            # repro: noqa[CERT001] -- deliberate += in eviction order: a
            # batch must bit-match the scalar evict loop's accumulation.
            self._profit_forfeited += profit_of[iid]
            # repro: noqa[CERT001] -- same, for the penalty account.
            self._penalty_paid += p

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

    def admit_many(self, iids) -> None:
        """Admit a batch of instances with *pairwise edge-disjoint*
        routes, atomically.

        The whole batch is validated before any state changes — every
        demand new, no demand twice, every route still feasible — so a
        failed admit leaves no half-applied load (the mirror of the
        service ``feed`` op's whole-batch validation contract).  The
        admissions are then applied (:meth:`_add_many`) and logged
        (:meth:`_log_admitted`) in batch order: exactly the float
        operations the scalar :meth:`admit` loop performs.

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
        iid_list = arr.tolist()
        demands = [self._demand[iid] for iid in iid_list]
        seen: set[int] = set()
        for d in demands:
            if d in self._ever_admitted or d in seen:
                raise ValueError(f"demand {d} was already admitted")
            seen.add(d)
        idx = self.index
        edges, counts = gather_rows(idx._indptr, idx._flat_edges, arr)
        bad = route_peaks(self.load, edges, counts) + idx._heights[arr] > _CAP
        if bad.any():
            raise ValueError(f"instance {int(arr[bad][0])} no longer fits "
                             f"the residual capacity")
        self._add_many(arr, demands, edges, counts)
        self._log_admitted(zip(demands, iid_list))

    def _add_many(self, arr: np.ndarray, demands: list[int],
                  edges: np.ndarray, counts: np.ndarray) -> None:
        """Apply validated admissions of the instances ``arr`` (their
        ``demands``, their routes concatenated in ``edges`` with lengths
        ``counts``), in batch order: loads, holder sets and the
        cheapest-holder column.  The log entries and profit adds are
        :meth:`_log_admitted`'s (the fast path stages them until every
        earlier event is decided).

        The routes are pairwise edge-disjoint, so the fancy-indexed load
        add and cheapest-column minimum touch each edge once: the same
        float operations as the scalar :meth:`admit` loop.
        """
        t0 = time.perf_counter_ns() if _REC.enabled else 0
        idx = self.index
        self.load[edges] += idx._heights[arr].repeat(counts)
        self._version += 1
        cheapest = self._cheapest
        cheapest[edges] = np.minimum(cheapest[edges],
                                     idx._profits[arr].repeat(counts))
        route_of = self._route_edge_list
        for iid, d in zip(arr.tolist(), demands):
            self._hold(iid, d, route_of(iid))
        if t0:
            _REC.record("ledger.admit_many", t0,
                        time.perf_counter_ns() - t0,
                        {"admitted": len(arr)})

    def release_many(self, demand_ids) -> list[int]:
        """Release a batch of departed demands; returns their instances.

        The whole batch is validated first (every demand currently
        admitted, none named twice), so a bad entry leaves the ledger
        untouched.  The loads drop in batch order, the scalar loop's
        float sequence per edge (:meth:`_drop_many`).

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
        self._drop_many(dlist, iids)
        if t0:
            _REC.record("ledger.release_many", t0,
                        time.perf_counter_ns() - t0,
                        {"released": len(dlist)})
        return iids

    def evict_many(self, demand_ids, penalties) -> list[int]:
        """Preemptively evict a batch of admitted demands, in order;
        returns their instances.

        The batch form of calling :meth:`evict` on each ``(demand,
        penalty)`` pair in turn, bit for bit.  The whole batch is
        validated first (every penalty non-negative, every demand
        currently admitted, none named twice), so a bad entry leaves the
        ledger untouched.  The loads drop in batch order
        (:meth:`_drop_many`), and :meth:`_log_evicted` records the
        evictions and takes one forfeit and penalty add each, in order.

        Raises
        ------
        KeyError
            If a demand is not currently admitted.
        ValueError
            If a penalty is negative, the two sequences differ in
            length, or a demand appears twice in the batch.
        """
        dlist = [int(d) for d in demand_ids]
        paid = [float(p) for p in penalties]
        if len(paid) != len(dlist):
            raise ValueError(f"{len(dlist)} demands but {len(paid)} "
                             f"penalties")
        for p in paid:
            if p < 0:
                raise ValueError(f"penalty must be >= 0, got {p}")
        iids = []
        for d in dlist:
            iid = self._admitted.get(d)
            if iid is None:
                raise KeyError(f"demand {d} is not admitted")
            iids.append(iid)
        if not iids:
            return []
        if len(set(dlist)) != len(dlist):
            raise ValueError("a demand appears twice in the eviction batch")
        t0 = time.perf_counter_ns() if _REC.enabled else 0
        self._drop_many(dlist, iids)
        self._log_evicted(zip(dlist, iids, paid))
        if t0:
            _REC.record("ledger.evict_many", t0, time.perf_counter_ns() - t0,
                        {"evicted": len(dlist)})
        return iids

    def _drop_many(self, dlist: list[int], iids: list[int]) -> None:
        """Remove admitted demands ``dlist`` (holding ``iids``) in
        order: loads, admitted set, holder sets and the cheapest-holder
        column.  The eviction record of an evicted demand is
        :meth:`_log_evicted`'s.

        The load subtraction runs as one ``np.subtract.at`` over the
        concatenated routes — the index array is in batch order, and
        ``ufunc.at`` applies updates in index order, so the float
        sequence per edge is exactly the scalar per-demand loop's.
        """
        self._version += 1
        idx = self.index
        arr = np.asarray(iids, dtype=np.int64)
        edges, counts = gather_rows(idx._indptr, idx._flat_edges, arr)
        np.subtract.at(self.load, edges, idx._heights[arr].repeat(counts))
        route_of = self._route_edge_list
        for d, iid in zip(dlist, iids):
            del self._admitted[d]
            for eid in route_of(iid):
                self._holders_by_edge[eid].discard(d)
        self._refresh_cheapest(
            edges[self._cheapest[edges] == idx._profits[arr].repeat(counts)])

    def _remove(self, demand_id: int) -> int:
        """Drop a demand from the admitted set and the holder map."""
        try:
            iid = self._admitted.pop(demand_id)
        except KeyError:
            raise KeyError(f"demand {demand_id} is not admitted") from None
        self._version += 1
        eids = self._edge_ids(iid)
        self.load[eids] -= self._height[iid]
        for eid in self._route_edge_list(iid):
            self._holders_by_edge[eid].discard(demand_id)
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

    def _check_loads(self) -> None:
        """Every edge's live load against the heights of the admitted
        routes that cross it (within :data:`_EPS`); ``AssertionError``
        on drift."""
        idx = self.index
        held = np.fromiter(self._admitted.values(), dtype=np.int64,
                           count=len(self._admitted))
        edges, counts = gather_rows(idx._indptr, idx._flat_edges, held)
        expect = np.bincount(edges, weights=np.repeat(idx._heights[held],
                                                      counts),
                             minlength=idx.num_edges)
        load = self.load
        if len(load):
            drift = float(np.abs(load - expect).max())
            if drift > _EPS or float(load.min()) < -_EPS:
                raise AssertionError(
                    f"edge loads drifted from the admitted routes: max "
                    f"difference {drift}, min load {float(load.min())}")

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
        self._log_evicted(((demand_id, iid, float(penalty)),))
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
            "load": self.load.tolist(),
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
        being stored.  The stored loads (indexed by edge id) are then
        checked against the admitted routes, as :meth:`verify` does:
        a snapshot whose loads sit on other edges raises ``ValueError``
        instead of resuming into a wrong ledger.
        """
        load = np.asarray(state["load"], dtype=np.float64)
        if load.shape != self.load.shape:
            raise ValueError(
                f"checkpoint carries {load.size} edge loads, the ledger "
                f"has {self.load.size} edges")
        self.load[:] = load
        self._version += 1
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
            self._profit_admitted += self._profit[iid]
        self._profit_forfeited = 0.0
        for _, iid in self.eviction_log:
            # repro: noqa[CERT001] -- same: replays the live += rounding
            # so a warm restart is byte-identical to the original run.
            self._profit_forfeited += self._profit[iid]
        self._penalty_paid = float(state["penalty_paid"])
        for holders in self._holders_by_edge:
            holders.clear()
        for d, iid in self._admitted.items():
            for eid in self._route_edge_list(iid):
                self._holders_by_edge[eid].add(d)
        self._cheapest[:] = self._cheapest_of_admitted()
        try:
            self._check_loads()
        except AssertionError as exc:
            raise ValueError(f"checkpoint does not match its admitted "
                             f"routes: {exc}") from None

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def snapshot(self) -> Solution:
        """The currently-admitted instances as a :class:`Solution`."""
        selected = self.index.instances(list(self._admitted.values()))
        return Solution(
            selected=selected,
            stats={"algorithm": "online-ledger", "admitted": len(selected)},
        )

    def verify(self) -> None:
        """Re-check the current admitted set from first principles.

        Beyond the feasibility re-verification, the profit counters are
        checked against the logs (realized profit must equal the
        admission-log sum minus the eviction-log sum), every edge's live
        load against the heights of the admitted routes that cross it,
        and the cheapest-holder column against the admitted routes'
        profits.
        """
        sol = self.snapshot()
        if isinstance(self.problem, TreeProblem):
            verify_tree_solution(self.problem, sol, unit_height=False)
        else:
            verify_line_solution(self.problem, sol, unit_height=False)
        log_sum = math.fsum(self._profit[iid]
                            for _, iid in self.admission_log)
        evict_sum = math.fsum(self._profit[iid]
                              for _, iid in self.eviction_log)
        if abs((log_sum - evict_sum) - self.realized_profit) > 1e-6:
            raise AssertionError(
                "profit counters drifted from the admission/eviction logs: "
                f"{log_sum} - {evict_sum} != {self.realized_profit}"
            )
        self._check_loads()
        if not np.array_equal(self._cheapest, self._cheapest_of_admitted()):
            raise AssertionError(
                "cheapest-holder column differs from the admitted routes")
