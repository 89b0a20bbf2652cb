"""Columnar batch-decision fast path: bulk verdicts over conflict-closure
windows.

The scalar event loop (``session.feed`` → ``policy.on_arrival`` →
``ledger.admit``) costs ~15–20µs of interpreter work per event.  This
module removes that bottleneck for the policies whose verdicts read
nothing but the ledger state on an arrival's own candidate routes
(``greedy-threshold``, ``dual-gated`` and ``preempt-density``) without
changing a single decision bit:

* :class:`DemandGeometry` — the per-instance policy keys and the
  per-demand footprint CSR, derived **once** per ledger from the shared
  :class:`~repro.core.conflict.ConflictIndex` (cached on the ledger, so
  every session over the same ledger — including the sharded boundary
  pass — reuses one build); candidates, routes, heights and profits
  are read from the index itself, never copied;
* :class:`TraceArrays` — one event batch as columns (kinds, times,
  demand ids, per-event conflict footprints), read straight off an
  :class:`~repro.online.events.EventView`;
* the batch kernels (:data:`BATCH_KERNELS`) — each split into an
  *evaluate* half, a gather/segment-reduce replica of the scalar
  decision path that computes every verdict of a window against the
  ledger as it stands, and *commit*/*tally* halves that apply the
  committed verdicts through the ledger's batch-write routines (the
  apply and removal halves of ``admit_many`` and ``evict_many``) and
  the policy counters, bit for bit (see the float notes below);
* :class:`FastFeeder` — the executor ``AdmissionSession.feed_many``
  engages when the policy advertises a batch kernel.

A *footprint* is the union of every candidate route of a demand plus a
per-demand sentinel pseudo-edge, so two events of the same demand
always meet.  An event's verdict reads nothing outside its footprint.
A rejected arrival changes nothing — no load, no holder, no log entry
— and neither does a departure of a demand not in the system.

The executor keeps each stretch's undecided events pending and
evaluates a window of the first pending events against the ledger as
it stands (:meth:`FastFeeder._closure`).  Walking the window in event
order with a set of dirty edges, an event whose read set meets the set
is *deferred*, and one whose read set does not is *committed*.  The
read set is the footprint, plus the victims' routes and sentinels of a
preempting arrival.  A committed event that changes the ledger dirties
its footprint (which holds its route and sentinel; a preempting
arrival also dirties its victims' routes and sentinels), and so does a
deferred event; a deferred ``preempt-density`` arrival also dirties
the routes and sentinels of the holders of its footprint edges it
could evict once evaluated again (those whose profit times the gate is
below one of its candidates').  So no committed event touches anything
an earlier deferred event may read or write, each committed verdict is
the scalar loop's, and the committed writes are pairwise
edge-disjoint: one batched release, one batched eviction and one
batched admission apply a window.  The paper's distributed rounds have
the same shape — each settles every demand without an unresolved
conflict and defers the rest.  The walk runs as at most
:data:`MAX_ROUNDS` vectorized rounds; the last one cuts the window at
its first deferral.  A *hard* arrival (a ``preempt-density`` arrival
that no candidate fits and whose plan reaches the eviction walk) is
planned in the kernel too: one closed-form walk per window
(:func:`_kernel_preempt_walk`) over the hard arrivals whose footprint
meets no earlier write.  The ledger's effects are applied at commit;
the log entries, the evicted set and the float profit adds are staged
and flushed in event order once every earlier event is decided, and
every pending event is decided before a stretch returns.  Deferred
events are evaluated again in the next window, which takes a quarter
more events than the last window committed.

Bit-exactness ground rules (each empirically verified against this
container's NumPy):

* ``np.add.reduceat`` reduces every segment identically whether it
  sums one segment or many, independent of segment position and buffer
  alignment (it does *not* match ``np.sum``'s pairwise blocking, which
  is why the scalar ``DualGated._price_from_loads`` itself sums through
  a single-segment ``reduceat`` — both paths then share one reduction
  definition and match bit for bit by construction);
* elementwise ufuncs (``np.power``, the planner's ``(load + h) - 1.0``)
  are position-invariant, so evaluating every gathered route edge in
  one call matches per-route calls;
* ``max``/``min`` reductions are order-independent, so
  ``maximum.reduceat`` feasibility probes, the planner's cost bound and
  first-min selection keys are exact;
* within a window's committed events, writes are edge-disjoint, so
  batched scatter-adds touch every load position exactly once — the
  same single float add the scalar loop performs.

The executor amortizes per-window overhead by *pre-gathering* per
chunk: candidate rows, route edges, heights and selection keys for
every batchable arrival in a chunk are gathered once from the index's
CSRs and columns (:func:`_prepare`), so each window reduces to a load
gather plus a handful of segment reductions over contiguous slices.
"""

from __future__ import annotations

import math
import time
from itertools import chain
from typing import Any, Callable, NamedTuple

import numpy as np

from ..core.conflict import gather_rows
from ..obs import tracing as _tracing
from .events import ARRIVAL, DEPARTURE, TICK, EventView
from .state import _CAP, _EPS

__all__ = [
    "DemandGeometry",
    "TraceArrays",
    "FastFeeder",
    "BATCH_KERNELS",
    "geometry_of",
]

#: Events columnarized per pass; a chunk boundary is a forced window
#: boundary — a finer split, which is always sound.  Bounds the
#: transient per-chunk columns (footprints, candidate routes) to a few
#: MiB however long the batch.
CHUNK = 4096

#: When fewer pending events than this are left in a stretch they go
#: through the scalar dispatcher: a window evaluation pays dozens of
#: NumPy-call overheads, which only amortize over several events.
#: Either execution is bit-identical, so this is purely a throughput
#: knob.
MIN_VECTOR_RUN = 2

#: Window bounds, in pending events.  Each window takes a quarter more
#: events than the previous window committed, clamped to
#: ``[MIN_WINDOW, MAX_WINDOW]``: deferred events are evaluated again,
#: and the rounds rescan every footprint, so a window much longer than
#: what commits wastes work, and one much shorter pays more window
#: overheads.  ``MIN_WINDOW`` covers a typical service request whole.
MIN_WINDOW = 64
MAX_WINDOW = 512

#: Closure rounds per window (:meth:`FastFeeder._closure`).  Each round
#: rescans the footprints past the last final status, so the last one
#: defers everything from its first new deferral on — a contiguous cut —
#: rather than let deferrals that spread through overlapping footprints
#: buy rounds that commit little.
MAX_ROUNDS = 4

_INT_MAX = np.iinfo(np.int64).max
_NO_ROWS = np.zeros(0, dtype=np.int64)


# ----------------------------------------------------------------------
# Static per-demand geometry
# ----------------------------------------------------------------------


class DemandGeometry:
    """The fast path's per-instance policy keys and per-demand footprints.

    Routes, heights, profits, interned demands and the demand →
    candidate CSR are read straight from the ledger's shared
    :class:`~repro.core.conflict.ConflictIndex`; this class adds only
    what the batch kernels derive from them: the greedy density and
    selection key per instance, and the per-demand conflict-footprint
    CSR.  Everything here is
    static (routes, profits, densities never change), built once per
    ledger and reused by every batch.  Demand ids index the CSRs
    directly (the trace contract: ``0 .. num_demands-1``; shard-sliced
    subproblems densify to the same convention).
    """

    def __init__(self, ledger) -> None:
        index = ledger.index
        D = int(ledger.problem.num_demands)
        I = len(index)
        E = int(index.num_edges)
        self.index = index
        self.num_demands = D
        self.num_instances = I
        self.num_edges = E

        # The index's candidate CSR (every demand of a validated
        # problem has at least one instance, so it has D rows).
        self.cand_indptr = index._cand_indptr
        counts = np.diff(self.cand_indptr)
        # Owning demand of every instance.
        owner = np.empty(I, dtype=np.int64)
        owner[index._cand_iids] = np.repeat(
            np.arange(D, dtype=np.int64), counts)

        route_counts = np.diff(index._indptr)
        route_len = np.maximum(route_counts, 1)
        # route_length / density exactly as the ledger computes them:
        # max(route, 1) and profit / route_length (one float64 divide).
        self.cand_density = index._profits / route_len.astype(np.float64)
        # Greedy's (route_length, iid) ranking as one sortable int64.
        self.cand_selkey = route_len * np.int64(I) + np.arange(
            I, dtype=np.int64)

        # --- per-demand conflict footprints ---------------------------
        # Union of every candidate route of the demand, deduped in one
        # global argsort pass, plus a sentinel pseudo-edge ``E + d`` so
        # two events of the same demand always conflict.  Stamps range
        # over ``E + D``.
        if len(index._flat_edges):
            key = np.sort(np.repeat(owner, route_counts) * np.int64(E)
                          + index._flat_edges)
            keep = np.empty(len(key), dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            uniq = key[keep]
            owner_u = uniq // E
            edge_u = uniq - owner_u * E
        else:
            uniq = np.zeros(0, dtype=np.int64)
            owner_u = np.zeros(0, dtype=np.int64)
            edge_u = np.zeros(0, dtype=np.int64)
        counts_u = np.bincount(owner_u, minlength=D).astype(np.int64)
        fp_counts = counts_u + 1  # +1 for the sentinel
        self.fp_indptr = np.zeros(D + 1, dtype=np.int64)
        np.cumsum(fp_counts, out=self.fp_indptr[1:])
        fp_edges = np.empty(int(self.fp_indptr[-1]), dtype=np.int64)
        fp_edges[self.fp_indptr[:-1]] = E + np.arange(D, dtype=np.int64)
        if len(uniq):
            u_starts = np.zeros(D, dtype=np.int64)
            np.cumsum(counts_u[:-1], out=u_starts[1:])
            dest = (
                self.fp_indptr[owner_u]
                + 1
                + (np.arange(len(uniq), dtype=np.int64) - u_starts[owner_u])
            )
            fp_edges[dest] = edge_u
        self.fp_edges = fp_edges
        self.fp_counts = fp_counts
        self._walk_order = None

    def walk_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rank, iid, height)``: every instance's rank in the
        preemption walk's order — ascending ``(profit / route_len,
        demand id)`` — and, by rank, the instance and its height (built
        on first use).  The key is static per instance, and one demand
        holds at most one instance at a time, so ranks order any set of
        holders as the walk does."""
        if self._walk_order is None:
            iid = np.lexsort((self.index._dem, self.cand_density))
            rank = np.empty(self.num_instances, dtype=np.int64)
            rank[iid] = np.arange(self.num_instances, dtype=np.int64)
            self._walk_order = (rank, iid, self.index._heights[iid])
        return self._walk_order


def geometry_of(ledger) -> DemandGeometry:
    """The ledger's cached :class:`DemandGeometry` (built on first use).

    Cached on the ledger itself so every session attached to it — the
    replay driver, the service, the sharded boundary pass — shares one
    build.  Route geometry never changes, so the cache never
    invalidates.
    """
    geom = getattr(ledger, "_fastpath_geometry", None)
    if geom is None:
        geom = DemandGeometry(ledger)
        ledger._fastpath_geometry = geom
    return geom


# ----------------------------------------------------------------------
# Columnar event batches
# ----------------------------------------------------------------------


class TraceArrays:
    """One event batch as columns: kinds, times, demand ids, footprints.

    The columns are an :class:`~repro.online.events.EventView`'s, used
    as they are.  ``batchable[i]`` is False for anything the kernels
    must not touch — out-of-range demand ids, demands without
    candidates — which the executor routes through the session's scalar
    decision one at a time (reproducing the scalar path's exact
    behaviour, errors included).
    """

    __slots__ = ("kinds", "times", "demand", "batchable", "fp_indptr",
                 "fp_edges")

    def __init__(self, kinds, times, demand, batchable, fp_indptr,
                 fp_edges) -> None:
        self.kinds = kinds
        self.times = times
        self.demand = demand
        self.batchable = batchable
        self.fp_indptr = fp_indptr
        self.fp_edges = fp_edges

    def __len__(self) -> int:
        return len(self.kinds)

    @classmethod
    def from_events(cls, events: EventView,
                    geom: DemandGeometry) -> "TraceArrays":
        """One view's columns, with footprints from ``geom``'s CSR."""
        kinds, demand = events.kind, events.demand
        n = len(kinds)
        D = geom.num_demands
        # Demand-carrying events with ids outside the population go
        # through the scalar decision (which raises or no-ops exactly
        # as it always did).
        batchable = (kinds == TICK) | (
            (demand >= 0) & (demand < D)
        )
        has_demand = batchable & (demand >= 0)
        # An arrival of a demand with no candidate instances raises in
        # the scalar path (``candidates()`` KeyError); leave it there.
        ok = batchable & has_demand
        cnt = np.zeros(n, dtype=np.int64)
        cnt[ok] = geom.fp_counts[demand[ok]]
        arrivals_no_cand = (
            batchable & (kinds == ARRIVAL) & has_demand
        )
        arrivals_no_cand[arrivals_no_cand] = (
            geom.cand_indptr[demand[arrivals_no_cand] + 1]
            == geom.cand_indptr[demand[arrivals_no_cand]]
        )
        if arrivals_no_cand.any():
            batchable &= ~arrivals_no_cand
            cnt[arrivals_no_cand] = 0
        fp_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cnt, out=fp_indptr[1:])
        fp_edges, _ = gather_rows(geom.fp_indptr, geom.fp_edges,
                                  demand[cnt > 0])
        return cls(kinds, events.time, demand, batchable, fp_indptr,
                   fp_edges)


# ----------------------------------------------------------------------
# Batch decision kernels
# ----------------------------------------------------------------------


class _ChunkPlan:
    """Pre-gathered candidate/route columns for one batch of arrivals.

    Built once per chunk by :func:`_prepare`; every window evaluation
    then works on contiguous slices of these arrays, so the per-window
    work is one load gather plus a handful of segment reductions.  All
    arrays are flat in *chunk arrival order*:

    * ``demands``/``dlist``/``event`` (+ ``top`` for the preemption
      kernel) — per arrival (``event`` is the arrival's index in the
      chunk);
    * ``cstart`` (+ ``cstart_l``, the same as a list) — arrival →
      candidate-range prefix (length n+1);
    * ``height``/``pos``/``iid``/``profit``/``aidx`` (+ ``gkey``/
      ``elig`` for the first-fit kernels) — per candidate;
    * ``estart`` (+ ``estart_l``) — candidate → route-edge-range prefix
      (length C+1);
    * ``edges`` (+ ``eheight``/``ecand`` for the preemption kernel) —
      per route edge of every candidate.

    Every route has at least one edge (a validated problem rejects
    ``u == v`` and empty placements), so every candidate's segment is
    nonempty and plain ``reduceat`` calls reduce them.
    """

    __slots__ = ("demands", "dlist", "event", "cstart", "cstart_l",
                 "height", "pos", "aidx", "estart", "estart_l", "edges",
                 "earange", "gkey", "elig", "profit", "iid", "eheight",
                 "ecand", "top")


def _prepare(feeder: "FastFeeder", demands: np.ndarray,
             event: np.ndarray) -> _ChunkPlan:
    """Flatten the candidate rows of ``demands`` against the index."""
    geom = feeder.geom
    index = geom.index
    p = _ChunkPlan()
    p.demands = demands
    p.dlist = demands.tolist()
    p.event = np.asarray(event)
    iid, ccnt = gather_rows(geom.cand_indptr, index._cand_iids, demands)
    cstart = np.zeros(len(demands) + 1, dtype=np.int64)
    np.cumsum(ccnt, out=cstart[1:])
    C = int(cstart[-1])
    p.cstart = cstart
    p.cstart_l = cstart.tolist()
    p.edges, r_cnt = gather_rows(index._indptr, index._flat_edges, iid)
    estart = np.zeros(C + 1, dtype=np.int64)
    np.cumsum(r_cnt, out=estart[1:])
    p.estart = estart
    p.estart_l = estart.tolist()
    p.height = index._heights[iid]
    p.pos = np.arange(C, dtype=np.int64)
    p.earange = np.arange(len(p.edges), dtype=np.int64)
    p.iid = iid
    p.profit = index._profits[iid]
    # Per-candidate arrival index: expands a per-arrival column to
    # candidates with one gather instead of a per-window ``np.repeat``.
    p.aidx = np.repeat(np.arange(len(demands), dtype=np.int64), ccnt)
    if feeder.gkey is not None:
        p.gkey = feeder.gkey[iid]
        p.elig = p.gkey != _INT_MAX
    else:
        p.gkey = p.elig = None
    if feeder.kernel_name == "preempt-density":
        p.ecand = np.repeat(p.pos, r_cnt)
        p.eheight = p.height[p.ecand]
        # Per arrival, the best candidate profit above the density floor
        # (-inf: none) — what bounds the holders it may evict.
        p.top = np.maximum.reduceat(np.where(p.elig, p.profit, -math.inf),
                                    cstart[:-1]) if C else p.profit
    else:
        p.ecand = p.eheight = p.top = None
    return p


class _Window:
    """One window's route columns: the window-entry loads on every route
    edge of arrivals ``[i0, i1)`` and the segment layout over them."""

    __slots__ = ("c0", "c1", "e0", "e1", "loads", "rel", "relc")

    def __init__(self, feeder: "FastFeeder", plan: _ChunkPlan,
                 i0: int, i1: int) -> None:
        self.c0 = c0 = plan.cstart_l[i0]
        self.c1 = c1 = plan.cstart_l[i1]
        self.e0 = e0 = plan.estart_l[c0]
        self.e1 = e1 = plan.estart_l[c1]
        self.loads = feeder.ledger.load[plan.edges[e0:e1]]
        self.rel = plan.estart[c0:c1] - e0
        self.relc = plan.cstart[i0:i1] - c0


def _fit_keys(plan: _ChunkPlan, w: _Window) -> np.ndarray:
    """First-fit selection per arrival: the smallest ``plan.gkey`` over
    candidates that fit the window-entry loads (``_INT_MAX`` = none fits).

    The feasibility probe is a per-candidate route peak via one segment
    max, the comparison :meth:`CapacityLedger.feasible` makes.
    """
    c0, c1 = w.c0, w.c1
    blocked = (np.maximum.reduceat(w.loads, w.rel) + plan.height[c0:c1]
               > _CAP)
    return np.minimum.reduceat(
        np.where(blocked, _INT_MAX, plan.gkey[c0:c1]), w.relc)


def _kernel_greedy_evaluate(feeder: "FastFeeder", plan: _ChunkPlan,
                            i0: int, i1: int):
    """Vectorized ``GreedyThreshold.on_arrival`` verdicts for arrivals
    ``[i0, i1)`` against the window-entry ledger.

    The density floor is pre-folded into ``plan.gkey`` (below-threshold
    candidates carry ``_INT_MAX``), and the already-admitted early
    return is applied per arrival — the currently-admitted check is
    subsumed, since a demand in the system is by invariant in the
    ever-admitted set.  Returns ``(admits, hard, state)`` as every
    ``evaluate`` half does.
    """
    best = _fit_keys(plan, _Window(feeder, plan, i0, i1))
    admits = best != _INT_MAX
    ever = feeder.ledger._ever_admitted
    if not ever.isdisjoint(plan.dlist[i0:i1]):
        for k in np.flatnonzero(admits).tolist():
            if plan.dlist[i0 + k] in ever:
                admits[k] = False
    return admits, None, best


def _kernel_greedy_pick(feeder: "FastFeeder", plan: _ChunkPlan,
                        best) -> np.ndarray:
    """The instance each evaluated arrival admits (where it admits)."""
    return best % feeder.num_instances


def _commit_admits(feeder: "FastFeeder", iids: np.ndarray,
                   demands: list) -> np.ndarray:
    """Apply the admissions of ``iids`` (of ``demands``), in order and
    unlogged, through the apply half of ``admit_many``
    (:meth:`~repro.online.state.CapacityLedger._add_many`): the kernel
    has just computed the feasibility ``admit_many`` would check.
    Returns the routes' concatenated edges."""
    index = feeder.geom.index
    edges, counts = gather_rows(index._indptr, index._flat_edges, iids)
    feeder.ledger._add_many(iids, demands, edges, counts)
    return edges


def _kernel_greedy_commit(feeder: "FastFeeder", plan: _ChunkPlan, i0: int,
                          sel: np.ndarray, best, moves: list) -> None:
    """Admit the selections of evaluated arrivals ``i0 + sel`` (offsets
    whose verdict admits, in event order), unlogged."""
    _commit_admits(feeder, best[sel] % feeder.num_instances,
                   plan.demands[i0 + sel].tolist())


def _kernel_dual_evaluate(feeder: "FastFeeder", plan: _ChunkPlan,
                          i0: int, i1: int):
    """Vectorized ``DualGated.on_arrival`` verdicts for arrivals
    ``[i0, i1)`` against the window-entry ledger.

    Same candidate ranking (first strict price minimum in candidate
    order), same gate (``profit <= eta * price``) as the scalar path.
    The demand-in-system block is applied per arrival (every candidate
    of such a demand is blocked in the scalar probe, so the arrival
    counts as capacity-blocked either way).
    """
    policy = feeder.policy
    w = _Window(feeder, plan, i0, i1)
    c0, c1 = w.c0, w.c1
    h = plan.height[c0:c1]
    feasible = np.maximum.reduceat(w.loads, w.rel) + h <= _CAP
    # Price every gathered route edge in one ufunc call (elementwise,
    # position-invariant); the per-candidate sums are one multi-segment
    # reduceat — the very reduction the scalar price function performs.
    sums = np.add.reduceat(np.power(policy.mu, w.loads) - 1.0, w.rel)
    priced = np.where(feasible, h * (policy._scale * sums), np.inf)
    best_price = np.minimum.reduceat(priced, w.relc)
    # An arrival has a feasible candidate iff its best price is finite
    # (feasible prices are always finite); a demand already in the
    # system blocks every candidate in the scalar probe, so it counts
    # as capacity-blocked the same way.
    has_any = best_price < np.inf
    admitted = feeder.ledger._admitted
    if not admitted.keys().isdisjoint(plan.dlist[i0:i1]):
        for k in np.flatnonzero(has_any).tolist():
            if plan.dlist[i0 + k] in admitted:
                has_any[k] = False
    # First strict minimum in candidate order — the scalar loop keeps
    # the first candidate attaining the minimum.  Infeasible candidates
    # carry +inf, which only ties a +inf best price — and those
    # arrivals are excluded by ``has_any``.
    at_min = priced == best_price[plan.aidx[c0:c1] - i0]
    first = np.minimum.reduceat(
        np.where(at_min, plan.pos[c0:c1], _INT_MAX), w.relc)
    first[~has_any] = c0
    gated = has_any & (plan.profit[first] <= policy.eta * best_price)
    return has_any & ~gated, None, (best_price, has_any, gated, first)


def _kernel_dual_pick(feeder: "FastFeeder", plan: _ChunkPlan,
                      state) -> np.ndarray:
    """The instance each evaluated arrival admits (where it admits)."""
    return plan.iid[state[3]]


def _kernel_dual_commit(feeder: "FastFeeder", plan: _ChunkPlan, i0: int,
                        sel: np.ndarray, state, moves: list) -> None:
    """Admit evaluated arrivals ``i0 + sel``, unlogged, and fold their
    routes into the price peaks."""
    edges = _commit_admits(feeder, plan.iid[state[3][sel]],
                           plan.demands[i0 + sel].tolist())
    # Batched ``_note_peak``: each admitted route's post-admission loads
    # equal its post-batch loads (disjointness), so one gather after the
    # admissions folds the same values into the peaks as the
    # per-admission scalar notes.  History snapshots are never taken
    # here: the policy only advertises its batch kernel with
    # ``history=False``.
    policy = feeder.policy
    load = feeder.ledger.load
    policy._peak[edges] = np.maximum(policy._peak[edges], load[edges])
    policy._peak_version += 1


def _kernel_dual_tally(feeder: "FastFeeder", state, done: np.ndarray,
                       n_admit: int) -> None:
    """The gate counters and ``max_gate`` trajectory of the evaluated
    arrivals ``done`` (a mask)."""
    best_price, has_any, gated, _ = state
    stats = feeder.policy.stats
    has_any = has_any & done
    n_any = int(np.count_nonzero(has_any))
    stats["capacity_blocked"] += int(np.count_nonzero(done)) - n_any
    if n_any:
        # max_gate folds in every best price seen, gated or not (max is
        # order-independent; cast keeps the stats JSON-safe floats).
        mg = float(best_price[has_any].max())
        if mg > stats["max_gate"]:
            stats["max_gate"] = mg
        stats["gated"] += int(np.count_nonzero(gated & done))


class _PreemptState:
    """One ``preempt-density`` window's evaluation: the first-fit keys
    (``best``), the per-arrival pruned-candidate counts (``pruned``) and
    what the eviction walk needs of stage 1 (``walk``: the window, every
    route edge's hot flag and deficit, each candidate's cost bound and
    walk mask)."""

    __slots__ = ("best", "pruned", "walk")

    def __init__(self, best, pruned, walk) -> None:
        self.best = best
        self.pruned = pruned
        self.walk = walk


def _kernel_preempt_evaluate(feeder: "FastFeeder", plan: _ChunkPlan,
                             i0: int, i1: int):
    """Vectorized ``PreemptDensity`` verdicts for arrivals ``[i0, i1)``
    against the window-entry ledger, up to the eviction walk.

    *Fit half*: the greedy selection with the density floor folded into
    ``plan.gkey``.  *Blocked half*: stage 1 of
    :meth:`~repro.online.state.CapacityLedger.preemption_plan` for every
    candidate that clears the floor, in its exact float expressions.
    An edge is hot iff its deficit ``(load + h) - 1.0`` exceeds
    ``_EPS``; the planner's cost bound is the largest cheapest-holder
    profit over the hot edges before the first hot edge nobody holds; it
    prunes iff ``bound > 0`` and ``profit <= gate * bound``, and
    otherwise such a holderless edge plans ``None``; a candidate without
    a hot edge plans ``[]``.  (Profits are strictly positive, so a hot
    edge with a holder always makes ``bound > 0``.)  An arrival whose
    every planned candidate ends there is rejected in bulk; one with a
    candidate that goes on to the eviction walk is *hard*, and
    :func:`_kernel_preempt_walk` plans it from this evaluation.  A
    repeated arrival is a plain reject.
    """
    ledger = feeder.ledger
    w = _Window(feeder, plan, i0, i1)
    best = _fit_keys(plan, w)
    n = i1 - i0
    ever = ledger._ever_admitted
    dlist = plan.dlist[i0:i1]
    if ever.isdisjoint(dlist):
        planning = best == _INT_MAX
        admits = ~planning
    else:
        repeat = np.fromiter(map(ever.__contains__, dlist), dtype=bool,
                             count=n)
        planning = (best == _INT_MAX) & ~repeat
        admits = ~(planning | repeat)
    hard = pruned = walk = None
    if planning.any():
        c0, c1, e0, e1 = w.c0, w.c1, w.e0, w.e1
        deficit = (w.loads + plan.eheight[e0:e1]) - 1.0
        hot = deficit > _EPS
        held = np.where(hot, ledger._cheapest[plan.edges[e0:e1]], 0.0)
        bound = np.maximum.reduceat(held, w.rel)
        lost = None
        if bound.max() == np.inf:
            # Some hot edge has no holder: the bound only runs up to
            # the first one.
            pos = plan.earange[:e1 - e0]
            lost = np.minimum.reduceat(
                np.where(held == np.inf, pos, _INT_MAX), w.rel)
            bound = np.maximum.reduceat(
                np.where(pos < lost[plan.ecand[e0:e1] - c0], held, 0.0),
                w.rel)
        le = plan.profit[c0:c1] <= feeder.gate * bound
        live = (bound > 0.0) & plan.elig[c0:c1]
        live &= planning[plan.aidx[c0:c1] - i0]
        walks = live & ~le
        if lost is not None:
            walks &= lost == _INT_MAX
        hard = np.logical_or.reduceat(walks, w.relc)
        # The stage-1 prunes of every planning arrival, hard ones
        # included; the walk adds its own.
        pruned = np.add.reduceat(le & live, w.relc, dtype=np.int64)
        walk = (w, hot, deficit, bound, walks)
    return admits, hard, _PreemptState(best, pruned, walk)


def _kernel_preempt_plans(feeder: "FastFeeder", plan: _ChunkPlan, i0: int,
                          k: int, state: _PreemptState):
    """The eviction walk of every walking candidate of the arrivals
    ``[i0, i0 + k)`` against the window-entry ledger; changes nothing.

    Returns ``(walks, short, cut_off, v_cand, v_iid)``: over those
    arrivals' candidates (offsets from the window's first), which ones
    walk, which walks run out of holders (``None``) and which the gate
    prunes (``PRUNED``); and the victims of every walk, as candidate
    offsets and held instances, per candidate in eviction order.

    This is the greedy walk of
    :meth:`~repro.online.state.CapacityLedger.preemption_plan`, in
    closed form.  Order the holders of each hot edge ``e`` by the walk
    key ``(profit / route_len, demand id)`` and let ``P_e(d)`` be
    ``e``'s deficit less the heights of every holder ahead of ``d``,
    subtracted one at a time.  While ``e`` is hot the walk takes every
    holder of ``e``, so its deficit at ``d`` is ``P_e(d)`` for as long
    as either exceeds ``_EPS``: ``d`` is a victim iff some hot edge of
    ``d`` has ``P_e(d) > _EPS``, and the plan completes iff every hot
    edge ends at ``P_e <= _EPS``.  The walk prunes iff ``profit <= gate
    * max(bound, victim profits)``, leaving out the last victim of a
    complete plan (the walk returns before pruning on it).
    """
    ledger = feeder.ledger
    walk_rank, walk_iid, walk_height = feeder.geom.walk_order()
    I = feeder.num_instances
    w, hot, deficit, bound, walks = state.walk
    c0, e0 = w.c0, w.e0
    cc = plan.cstart_l[i0 + k] - c0
    ec = plan.estart_l[c0 + cc] - e0
    cmask = walks[:cc]
    ecand = plan.ecand[e0:e0 + ec]
    # One segment per (walking candidate, hot edge), grouped by
    # candidate; stage 1 saw to it that every such edge has a holder.
    # (Small arrays: the method forms skip NumPy's dispatch wrappers.)
    seg_e = (hot[:ec] & cmask[ecand - c0]).nonzero()[0]
    seg_cand = ecand[seg_e] - c0
    # The holders of each distinct edge, looked up once, then of each
    # segment.
    uniq, inv = np.unique(plan.edges[e0:e0 + ec][seg_e], return_inverse=True)
    sets = list(map(ledger._holders_by_edge.__getitem__, uniq.tolist()))
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, sets), dtype=np.int64, count=len(sets)),
              out=indptr[1:])
    held, cnt = gather_rows(indptr, np.fromiter(
        map(ledger._admitted.__getitem__, chain.from_iterable(sets)),
        dtype=np.int64, count=int(indptr[-1])), inv)
    n = len(held)
    S = len(cnt)
    # Each segment's holders in walk order: one sort of (segment, walk
    # rank) keys, which leaves the segment column as it was.
    seg = np.arange(S, dtype=np.int64).repeat(cnt)
    seg_i = seg * I
    order = walk_rank[held] + seg_i
    order.sort()
    order -= seg_i
    # Row r of ``steps`` holds each segment's r-th holder height (0.0
    # past its last, which subtracts exactly nothing); subtracting down
    # the rows is the walk's own subtraction sequence, one holder rank
    # at a time across every segment.  ``cell`` is each holder's row-
    # major position, ``rank * S + seg``.
    cell = seg + S * (np.arange(n, dtype=np.int64)
                      - (cnt.cumsum() - cnt).repeat(cnt))
    steps = np.zeros((int(cnt.max()) + 1) * S)
    steps[:S] = deficit[seg_e]
    steps[S:][cell] = walk_height[order]
    rows = steps.reshape(-1, S)
    np.subtract.accumulate(rows, axis=0, out=rows)
    # Victims, per candidate in walk order: the distinct (candidate,
    # walk rank) keys among the holders that met a hot deficit.
    key = (seg_cand[seg] * I + order)[steps[cell] > _EPS]
    key.sort()
    fresh = np.empty(len(key), dtype=bool)
    fresh[0] = True
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    v_cand, v_rank = np.divmod(key[fresh], I)
    v_iid = walk_iid[v_rank]
    short = np.zeros(cc, dtype=bool)
    short[seg_cand[steps[-S:] > _EPS]] = True
    # The prune bound: stage 1's, then every victim's profit but a
    # complete plan's last.
    last = np.empty(len(v_cand), dtype=bool)
    last[-1] = True
    np.not_equal(v_cand[1:], v_cand[:-1], out=last[:-1])
    top = bound[:cc].copy()
    np.maximum.at(top, v_cand, np.where(last & ~short[v_cand], 0.0,
                                        feeder.geom.index._profits[v_iid]))
    cut_off = cmask & (plan.profit[c0:c0 + cc] <= feeder.gate * top)
    return cmask, short, cut_off, v_cand, v_iid


def _kernel_preempt_walk(feeder: "FastFeeder", plan: _ChunkPlan, i0: int,
                         k: int, state: _PreemptState) -> dict:
    """The eviction plans of the hard arrivals among ``[i0, i0 + k)``
    against the window-entry ledger: ``{offset: (iid, victims, victim
    profits, victim instances)}`` for each arrival that preempts into
    candidate ``iid`` (the others reject).  Walk prunes are added to
    ``state.pruned``.

    The walks come from :func:`_kernel_preempt_plans`; the viable plans
    are then costed and ranked as ``PreemptDensity`` ranks them:
    ``math.fsum`` of the victims' profits, the gate, and the first
    minimum of ``(cost, route_len, iid)`` in candidate order.
    """
    walks, short, cut_off, v_cand, v_iid = _kernel_preempt_plans(
        feeder, plan, i0, k, state)
    c0 = plan.cstart_l[i0]
    gone = cut_off.nonzero()[0]
    if len(gone):
        np.add.at(state.pruned, plan.aidx[c0 + gone] - i0, 1)
    viable = (walks & ~short & ~cut_off).nonzero()[0]
    chosen: dict = {}
    if not len(viable):
        return chosen
    index = feeder.geom.index
    v_lo = v_cand.searchsorted(viable).tolist()
    v_hi = v_cand.searchsorted(viable, side="right").tolist()
    v_dem = index._dem[v_iid].tolist()
    v_prof = index._profits[v_iid].tolist()
    v_iids = v_iid.tolist()
    route_len = feeder.ledger._route_len
    gate = feeder.gate
    pv = c0 + viable
    for a, profit, c_iid, lo, hi in zip((plan.aidx[pv] - i0).tolist(),
                                        plan.profit[pv].tolist(),
                                        plan.iid[pv].tolist(), v_lo, v_hi):
        prof = v_prof[lo:hi]
        cost = math.fsum(prof)
        if profit <= gate * cost:
            continue
        rank_key = (cost, route_len[c_iid], c_iid)
        have = chosen.get(a)
        if have is None or rank_key < have[0]:
            chosen[a] = (rank_key, c_iid, v_dem[lo:hi], prof, v_iids[lo:hi])
    return {a: have[1:] for a, have in chosen.items()}


def _kernel_preempt_commit(feeder: "FastFeeder", plan: _ChunkPlan, i0: int,
                           sel: np.ndarray, state: _PreemptState,
                           moves: list) -> None:
    """Admit the fits among evaluated arrivals ``i0 + sel`` and execute the
    eviction plans ``moves`` (``(offset, move)`` from
    :func:`_kernel_preempt_walk`, in event order, each route probed to
    fit after its evictions by :meth:`FastFeeder._misfit`), all
    unlogged: every move's victims dropped in one batch (the removal
    half of ``evict_many``,
    :meth:`~repro.online.state.CapacityLedger._drop_many`), then every
    admission applied in one batch in event order.  The moves' routes
    and victims are pairwise edge-disjoint and disjoint from the fits,
    so each edge sees exactly the scalar loop's float operations."""
    if not moves:
        _kernel_greedy_commit(feeder, plan, i0, sel, state.best, moves)
        return
    stats = feeder.policy.stats
    victims: list = []
    v_iids: list = []
    for _, move in moves:
        victims += move[1]
        v_iids += move[3]
    feeder.ledger._drop_many(victims, v_iids)
    stats["evictions"] += len(victims)
    stats["preempt_admits"] += len(moves)
    offs = np.fromiter((a for a, _ in moves), dtype=np.int64,
                       count=len(moves))
    m_iid = np.fromiter((move[0] for _, move in moves), dtype=np.int64,
                        count=len(moves))
    order = np.concatenate((sel, offs))
    iids = np.concatenate((state.best[sel] % feeder.num_instances, m_iid))
    k = order.argsort(kind="stable")
    _commit_admits(feeder, iids[k], plan.demands[i0 + order[k]].tolist())


def _kernel_preempt_tally(feeder: "FastFeeder", state: _PreemptState,
                          done: np.ndarray, n_admit: int) -> None:
    """``preempt_rejected`` / ``preempt_pruned`` for the evaluated
    arrivals ``done`` (a mask; the commit counts the preemptions)."""
    stats = feeder.policy.stats
    stats["preempt_rejected"] += int(np.count_nonzero(done)) - n_admit
    if state.pruned is not None:
        stats["preempt_pruned"] += int(state.pruned[done].sum())


class _Kernel(NamedTuple):
    """One policy's batch kernel (see :data:`BATCH_KERNELS`)."""

    evaluate: Callable
    pick: Callable
    commit: Callable
    tally: Callable | None = None
    walk: Callable | None = None


#: Kernel registry: the names policies advertise via ``batch_kernel()``.
#:
#: * ``evaluate(feeder, plan, i0, i1)`` returns ``(admits, hard,
#:   state)`` for arrivals ``[i0, i1)`` of a :class:`_ChunkPlan`
#:   without touching any state (``hard`` is ``None`` for kernels whose
#:   verdicts need no eviction walk);
#: * ``pick(feeder, plan, state)`` is the instance each arrival that
#:   admits (by fit) takes;
#: * ``commit(feeder, plan, i0, sel, state, moves)`` applies the admits
#:   of arrivals ``i0 + sel`` and the eviction plans ``moves``, unlogged;
#: * ``tally(feeder, state, done, n_admit)`` adds the policy counters of
#:   the evaluated arrivals ``done`` (a mask), ``n_admit`` of which
#:   admitted (``None`` when the policy keeps no per-arrival counters);
#: * ``walk(feeder, plan, i0, k, state)`` plans the hard arrivals among
#:   ``[i0, i0 + k)``: ``{offset: move}`` for those that preempt.
BATCH_KERNELS = {
    "greedy-threshold": _Kernel(_kernel_greedy_evaluate, _kernel_greedy_pick,
                                _kernel_greedy_commit),
    "dual-gated": _Kernel(_kernel_dual_evaluate, _kernel_dual_pick,
                          _kernel_dual_commit, _kernel_dual_tally),
    "preempt-density": _Kernel(_kernel_preempt_evaluate,
                               lambda f, p, s: _kernel_greedy_pick(f, p,
                                                                   s.best),
                               _kernel_preempt_commit, _kernel_preempt_tally,
                               _kernel_preempt_walk),
}


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class _ChunkCounts:
    """The batched events' session counters, flushed once per chunk."""

    __slots__ = ("events", "arrivals", "departures", "admitted", "runs",
                 "discarded", "t_first", "dur")

    def __init__(self) -> None:
        self.events = self.arrivals = self.departures = self.admitted = 0
        self.runs = self.discarded = 0
        self.t_first = self.dur = 0.0


class _Closure(NamedTuple):
    """One evaluated window split by the conflict closure
    (:meth:`FastFeeder._closure`): the chunk events it defers
    (``later``, in event order) and how many it commits (``n_done``);
    the arrivals' evaluation (kernel ``state`` and ``pick`` of the
    arrivals of ``plan`` from ``i0``); and what the commits are: the
    committed arrivals (``c_arr``, a mask from ``i0``), the offsets of
    those that admit by fit (``c_fit``), ``(offset, move)`` for those
    that preempt (``c_mov``), and the demands the committed departures
    release (``c_rel``, in event order) out of ``n_dep`` committed
    departures."""

    later: np.ndarray
    n_done: int
    plan: Any
    i0: int
    state: Any
    pick: Any
    c_arr: Any
    c_fit: np.ndarray
    c_mov: list
    c_rel: list
    n_dep: int


class FastFeeder:
    """Drives one session's ``feed_many`` batches through the kernels.

    Constructed by :class:`~repro.session.kernel.AdmissionSession` when
    the policy advertises a batch kernel (and keeps the base no-op
    departure/tick hooks).  Each batch is columnarized per
    :data:`CHUNK`; each maximal stretch of batchable events is then
    decided window by window (:meth:`_stretch`), every window over the
    first pending events of the stretch.  A stretch's lone last pending
    event goes to the session's scalar dispatcher directly (a window
    costs more than one scalar decision), as does every unbatchable
    event.
    """

    def __init__(self, session, kernel_name: str) -> None:
        if kernel_name not in BATCH_KERNELS:
            raise ValueError(f"unknown batch kernel {kernel_name!r}")
        self.session = session
        self.ledger = session.ledger
        self.policy = session.policy
        self.kernel_name = kernel_name
        kernel = BATCH_KERNELS[kernel_name]
        self.evaluate, self.pick, self.commit = (kernel.evaluate, kernel.pick,
                                                 kernel.commit)
        self.tally, self.walk = kernel.tally, kernel.walk
        self.geom = geometry_of(session.ledger)
        self.num_instances = self.geom.num_instances
        # The density floor is static per session: fold it into the
        # first-fit selection key once, so the fit test is just the
        # feasibility mask.
        if kernel_name in ("greedy-threshold", "preempt-density"):
            self.gkey = np.where(
                self.geom.cand_density < self.policy.threshold,
                _INT_MAX, self.geom.cand_selkey,
            )
        else:
            self.gkey = None
        if kernel_name == "preempt-density":
            # The very gate PreemptDensity passes the planner.
            self.gate = self.policy.factor + self.policy.penalty
        #: Per footprint edge, the first window position that dirties
        #: it during one :meth:`_closure` (``_INT_MAX`` between calls).
        self._dirty = np.full(self.geom.num_edges + self.geom.num_demands,
                              _INT_MAX, dtype=np.int64)
        self.window = MIN_WINDOW

    def feed(self, events: EventView) -> None:
        """Apply a whole batch (the ``feed_many`` fast route), read as
        the view's columns one :data:`CHUNK` at a time."""
        if len(events) and self.session.closed:
            raise RuntimeError("session is closed")
        for c0 in range(0, len(events), CHUNK):
            ta = TraceArrays.from_events(events[c0:c0 + CHUNK], self.geom)
            self._feed_chunk(ta)

    def _load_chunk(self, ta: TraceArrays) -> None:
        """Chunk-wide pregather: candidate/route columns for every
        batchable arrival, event → arrival/departure prefix maps so each
        window's span bounds are O(1) lookups, and an empty staging area
        for the log entries of the chunk's committed verdicts."""
        n = len(ta)
        barr = ta.batchable & (ta.kinds == ARRIVAL)
        bdep = ta.batchable & (ta.kinds == DEPARTURE)
        arr_ofs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(barr, out=arr_ofs[1:])
        dep_ofs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(bdep, out=dep_ofs[1:])
        self._ta = ta
        self._plan = _prepare(self, ta.demand[barr], np.flatnonzero(barr))
        self._dep_event = np.flatnonzero(bdep)
        self._arr_ofs = arr_ofs.tolist()
        self._dep_ofs = dep_ofs.tolist()
        self._fp_indptr = ta.fp_indptr.tolist()
        #: The event each ``fp_edges`` entry belongs to (nondecreasing).
        self._fp_owner = np.arange(n, dtype=np.int64).repeat(
            np.diff(ta.fp_indptr))
        #: The log entries of committed verdicts, kept until every
        #: earlier event is decided: per chunk event, the instance it
        #: admitted (-1: none), and the evictions of each preempting
        #: event (``(demand, instance, penalty)``); ``_logged`` is the
        #: first event not yet flushed.
        self._admits = np.full(n, -1, dtype=np.int64)
        self._evictions: dict = {}
        self._logged = 0
        # The scalar decision of one chunk event, from its column values.
        kl, tl, dl = ta.kinds.tolist(), ta.times.tolist(), ta.demand.tolist()
        self._demands = dl
        decide = self.session._decide
        self._scalar = lambda i: decide(kl[i], tl[i], dl[i])

    def _feed_chunk(self, ta: TraceArrays) -> None:
        session = self.session
        stats = session.fastpath_stats
        n = len(ta)
        self._load_chunk(ta)
        bl = ta.batchable.tolist()
        # Counter updates accumulate locally and flush once per chunk,
        # also when a scalar decision raises (those update the session
        # directly, so totals come out identical either way).
        self._acc = acc = _ChunkCounts()
        try:
            lo = 0
            while lo < n:
                if not bl[lo]:
                    stats["scalar_fallbacks"] += 1
                    self._scalar(lo)
                    lo += 1
                    continue
                hi = lo
                while hi < n and bl[hi]:
                    hi += 1
                self._stretch(lo, hi)
                lo = hi
        finally:
            # After an error, log what was committed (in event order).
            self._flush(n)
            self._ta = self._plan = self._scalar = self._admits = None
            self._demands = None
            stats["discarded"] += acc.discarded
            if acc.runs:
                session.events += acc.events
                session.arrivals += acc.arrivals
                session.departures += acc.departures
                session.ticks += acc.events - acc.arrivals - acc.departures
                stats["runs"] += acc.runs
                stats["batched_events"] += acc.events
                # One aggregated span per chunk, not one per window:
                # per-window spans cost ~2µs each, a measurable slice of
                # the hot path (the obs-overhead gate caught it).
                # ``dur`` sums only the windows' own time, so scalar
                # decisions (fallbacks and hard events) stay out.
                if _tracing.RECORDER.enabled:
                    _tracing.record_complete(
                        "session.batch_decide", acc.t_first, acc.dur,
                        {"events": acc.events, "arrivals": acc.arrivals,
                         "departures": acc.departures,
                         "admitted": acc.admitted, "runs": acc.runs},
                    )

    def _stretch(self, lo: int, hi: int) -> None:
        """Decide the batchable chunk events ``[lo, hi)``: each window
        takes the first :attr:`window` pending events — the ones earlier
        windows deferred, then fresh ones — and leaves its deferred
        events pending.  Returns with all of them decided and logged."""
        head = _NO_ROWS  # deferred events, in order
        nxt = lo  # first fresh event
        while len(head) + hi - nxt >= MIN_VECTOR_RUN:
            w = self.window
            if len(head) >= w:
                head = np.concatenate((self._window(head[:w]), head[w:]))
            else:
                take = min(hi, nxt + w - len(head))
                head = self._window(np.concatenate(
                    (head, np.arange(nxt, take, dtype=np.int64))))
                nxt = take
        if len(head) or nxt < hi:
            self._decide_scalar(int(head[0]) if len(head) else nxt)
        self._flush(hi)

    def _decide_scalar(self, i: int) -> None:
        """Decide chunk event ``i`` — the first undecided one — through
        the session's scalar dispatcher."""
        self.session.fastpath_stats["scalar_fallbacks"] += 1
        self._flush(i)
        self._scalar(i)

    def _flush(self, upto: int) -> None:
        """Log the staged verdicts of the events before ``upto`` (every
        one of which is decided), in event order."""
        lo = self._logged
        if upto <= lo:
            return
        self._logged = upto
        # The two logs and their accumulators are independent, so each
        # only needs its own entries in event order.
        evictions = self._evictions
        if evictions:
            for i in sorted(i for i in evictions if i < upto):
                self.ledger._log_evicted(evictions.pop(i))
        iids = self._admits[lo:upto]
        at = (iids >= 0).nonzero()[0]
        if len(at):
            self.ledger._log_admitted(zip(
                self._ta.demand[lo + at].tolist(), iids[at].tolist()))

    def _closure(self, win: np.ndarray) -> _Closure:
        """Evaluate the chunk events ``win`` (ascending) against the
        current ledger and split them into the events to commit and the
        events to defer; changes nothing.

        Walking the window in event order with a set of *dirty* edges
        (footprint edges and sentinels), an event is deferred iff its
        read set meets the dirty set, and committed otherwise.  The read
        set is the footprint, plus the victims' routes and sentinels of
        a preempting arrival.  An event that changes the ledger — an
        admission, a release, a preemption — dirties its footprint,
        which holds its route and sentinel, and a preempting arrival
        also its victims' routes and sentinels; so does a deferred event
        (it may change the ledger once evaluated again), and a deferred
        ``preempt-density`` arrival also dirties the routes and
        sentinels of the holders of its footprint edges it could evict
        (:meth:`_stamp_victims`).  A committed rejection or no-op
        departure dirties nothing.

        So no committed event reads or writes anything an earlier
        deferred event may touch, and committed writes are pairwise
        disjoint: each committed verdict is the one the scalar loop
        reaches, and one batched release, eviction and admission
        apply them.

        The walk runs in bulk, as rounds over the window's positions in
        its span of the chunk.  The writes are stamped up front with
        their event's position, committed or not: a deferred event
        dirties them anyway.  Each round defers every event whose reads
        meet an earlier stamp, then stamps the extra edges of the newly
        deferred events; statuses before the first new deferral are
        final, and the rounds stop when none is new — the event-order
        walk's result.  Round :data:`MAX_ROUNDS` defers everything from
        its first new deferral on instead: a contiguous cut, which is
        sound anywhere.  Preemption plans are walked only for the hard
        arrivals whose footprint meets no earlier write.
        """
        ledger = self.ledger
        s0 = int(win[0])
        s1 = int(win[-1]) + 1
        n = s1 - s0
        # Events of the span that earlier windows decided are masked out.
        inwin = None
        if len(win) < n:
            inwin = np.zeros(n, dtype=bool)
            inwin[win - s0] = True
        plan = self._plan
        i0, i1 = self._arr_ofs[s0], self._arr_ofs[s1]
        d0, d1 = self._dep_ofs[s0], self._dep_ofs[s1]
        # The span positions of the events that write if committed.
        writes = np.zeros(n, dtype=bool)
        state = hard = pick = a_pos = fit = None
        if i1 > i0:
            a_pos = plan.event[i0:i1] - s0
            fit, hard, state = self.evaluate(self, plan, i0, i1)
            if inwin is not None:
                a_in = inwin[a_pos]
                fit &= a_in
                if hard is not None:
                    hard &= a_in
            writes[a_pos[fit]] = True
            pick = self.pick(self, plan, state)
            if hard is not None and not hard.any():
                hard = None
        dep_pos = _NO_ROWS
        rel: list = []  # the span positions of the releasing departures
        if d1 > d0:
            dep_pos = self._dep_event[d0:d1] - s0
            if inwin is not None:
                dep_pos = dep_pos[inwin[dep_pos]]
            admitted = ledger._admitted
            demand = self._demands
            rel = [p for p in dep_pos.tolist() if demand[s0 + p] in admitted]
            writes[rel] = True
        # Read entries: the span's footprints, with their span positions
        # (chunk event ``i``'s entries start at ``r_at[i] - f0``).
        r_at = self._fp_indptr
        f0, f1 = r_at[s0], r_at[s1]
        r_edge = self._ta.fp_edges[f0:f1]
        r_pos = self._fp_owner[f0:f1] - s0
        dirty = self._dirty
        stamped: list = []  # every index array stamped into ``dirty``
        moves = None
        m_pos = m_edge = _NO_ROWS
        try:
            self._stamp(writes, r_edge, r_pos, stamped)
            if hard is not None:
                # A hard arrival whose footprint meets an earlier write
                # is deferred whatever the plans are: walk the others,
                # then stamp their writes and add their victims' routes
                # and sentinels to their reads.
                base = np.zeros(n, dtype=bool)
                base[r_pos[dirty[r_edge] < r_pos]] = True
                moves = self._walk(plan, i0, i1, state, (
                    hard & ~base[a_pos]).nonzero()[0])
                if moves:
                    m_pos, m_edge = self._stamp_moves(moves, a_pos, stamped)
                    preempts = np.zeros(n, dtype=bool)
                    preempts[a_pos[list(moves)]] = True
                    self._stamp(preempts, r_edge, r_pos, stamped)
            closing = self.walk is not None and i1 > i0
            alive = None  # the window events not deferred so far
            e0 = 0  # read entries before ``e0`` have final statuses
            for rounds in range(1, MAX_ROUNDS + 1):
                pos = r_pos[e0:]
                hit = pos[dirty[r_edge[e0:]] < pos]
                if len(m_pos):
                    hit = np.concatenate((hit, m_pos[dirty[m_edge] < m_pos]))
                if not len(hit):
                    break
                if alive is None:
                    alive = (inwin.copy() if inwin is not None
                             else np.ones(n, dtype=bool))
                new = np.zeros(n, dtype=bool)
                new[hit] = True
                new &= alive
                rows = new.nonzero()[0]
                if not len(rows):
                    break
                first = int(rows[0])
                alive[rows] = False
                if not alive[first:].any():
                    break  # everything after the first is deferred
                if rounds == MAX_ROUNDS:
                    alive[first:] = False
                    break
                e1 = r_at[s0 + first] - f0
                e0 = r_at[s0 + first + 1] - f0
                self._stamp(new, r_edge[e1:], r_pos[e1:], stamped)
                if closing:
                    offs = new[a_pos].nonzero()[0]
                    if len(offs):
                        self._stamp_victims(plan, i0, offs, a_pos, stamped)
        finally:
            for idx in stamped:
                dirty[idx] = _INT_MAX
        later = c_arr = c_fit = _NO_ROWS
        c_mov: list = []
        n_dep = len(dep_pos)
        if alive is None:  # nothing deferred
            if a_pos is not None:
                c_arr = (inwin[a_pos] if inwin is not None
                         else np.ones(len(a_pos), dtype=bool))
        else:
            deferred = ~alive
            if inwin is not None:
                deferred &= inwin
            later = deferred.nonzero()[0] + s0
            if a_pos is not None:
                c_arr = alive[a_pos]
            if rel:
                rel = [p for p, x in zip(rel, alive[rel].tolist()) if x]
            n_dep -= int(np.count_nonzero(deferred[dep_pos]))
        if a_pos is not None:
            c_fit = (fit & c_arr).nonzero()[0]
            if moves:
                c_mov = [(a, m) for a, m in moves.items() if c_arr[a]]
        demand = self._demands
        return _Closure(later, len(win) - len(later), plan, i0, state, pick,
                        c_arr, c_fit, c_mov,
                        [demand[s0 + p] for p in rel], n_dep)

    def _stamp(self, rows: np.ndarray, r_edge: np.ndarray,
               r_pos: np.ndarray, stamped: list) -> None:
        """Stamp the read entries ``(r_edge, r_pos)`` of the span
        positions ``rows`` (a mask) as dirty from their positions,
        listing them in ``stamped``."""
        sel = rows[r_pos]
        edges = r_edge[sel]
        stamped.append(edges)
        np.minimum.at(self._dirty, edges, r_pos[sel])

    def _walk(self, plan: _ChunkPlan, i0: int, i1: int, state,
              offs: np.ndarray) -> dict:
        """The kernel's eviction walk over the hard arrivals ``i0 +
        offs`` only (see :func:`_kernel_preempt_walk`)."""
        if not len(offs):
            return {}
        w, hot, deficit, bound, walks = state.walk
        keep = np.zeros(i1 - i0, dtype=bool)
        keep[offs] = True
        c0, c1 = plan.cstart_l[i0], plan.cstart_l[i1]
        state.walk = (w, hot, deficit, bound,
                      walks & keep[plan.aidx[c0:c1] - i0])
        return self.walk(self, plan, i0, i1 - i0, state)

    def _stamp_moves(self, moves: dict, a_pos: np.ndarray, stamped: list):
        """Stamp the victims' routes and sentinels of the eviction plans
        ``moves`` as dirty from their arrival's span position, listing
        them in ``stamped``; returns them as the arrivals' extra read
        entries ``(positions, edges)``."""
        route_of = self.ledger._route_edge_list
        sentinel = self.geom.num_edges
        edges: list = []
        owner: list = []
        for a, (_, victims, _, v_iids) in moves.items():
            extra = [sentinel + v for v in victims]
            for v_iid in v_iids:
                extra += route_of(v_iid)
            edges += extra
            owner += [int(a_pos[a])] * len(extra)
        m_edge = np.array(edges, dtype=np.int64)
        m_pos = np.array(owner, dtype=np.int64)
        stamped.append(m_edge)
        np.minimum.at(self._dirty, m_edge, m_pos)
        return m_pos, m_edge

    def _stamp_victims(self, plan: _ChunkPlan, i0: int, offs: np.ndarray,
                       a_pos: np.ndarray, stamped: list) -> None:
        """Stamp, for each newly deferred arrival ``i0 + offs``, the
        routes and sentinels of the holders of its footprint edges it
        could evict once evaluated again, as dirty from its span
        position, listing them in ``stamped``.

        A plan costs at least each of its victims' profits, so a holder
        can only be a victim if the gate times its profit is below the
        arrival's best candidate profit above the density floor
        (``plan.top``); an edge whose cheapest holder fails that has
        none.  A repeated arrival evicts nothing."""
        ledger = self.ledger
        geom = self.geom
        index = geom.index
        dem = plan.demands[i0 + offs]
        keep = plan.top[i0 + offs] > -math.inf
        ever = ledger._ever_admitted
        if not ever.isdisjoint(dem.tolist()):
            keep &= ~np.fromiter(map(ever.__contains__, dem.tolist()),
                                 dtype=bool, count=len(dem))
        # Every (arrival, footprint edge) pair, sentinels left out.
        edges, counts = gather_rows(geom.fp_indptr, geom.fp_edges,
                                    dem[keep])
        lim = plan.top[i0 + offs[keep]].repeat(counts)
        pos = a_pos[offs[keep]].repeat(counts)
        sel = edges < geom.num_edges
        sel[sel] = self.gate * ledger._cheapest[edges[sel]] < lim[sel]
        if not sel.any():
            return
        edges, lim, pos = edges[sel], lim[sel], pos[sel]
        # The holders of each distinct edge, looked up once, then of each
        # pair.
        uniq, inv = np.unique(edges, return_inverse=True)
        sets = list(map(ledger._holders_by_edge.__getitem__, uniq.tolist()))
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, sets), dtype=np.int64, count=len(sets)),
                  out=indptr[1:])
        held, cnt = gather_rows(indptr, np.fromiter(
            map(ledger._admitted.__getitem__, chain.from_iterable(sets)),
            dtype=np.int64, count=int(indptr[-1])), inv)
        pos = pos.repeat(cnt)
        ok = self.gate * index._profits[held] < lim.repeat(cnt)
        held, pos = held[ok], pos[ok]
        routes, r_cnt = gather_rows(index._indptr, index._flat_edges, held)
        sentinels = geom.num_edges + index._dem[held]
        stamped += (routes, sentinels)
        dirty = self._dirty
        np.minimum.at(dirty, routes, pos.repeat(r_cnt))
        np.minimum.at(dirty, sentinels, pos)

    def _window(self, win: np.ndarray) -> np.ndarray:
        """Decide the chunk events ``win`` from one evaluation
        (:meth:`_closure`): commit the events it clears — their ledger
        effects now, their log entries staged until every earlier event
        is decided — and return the deferred events."""
        t0 = time.perf_counter()
        session = self.session
        ledger = self.ledger
        cl = self._closure(win)
        tail = _NO_ROWS
        bad = self._misfit(cl) if cl.c_mov else None
        if bad is not None:
            # A preempting route that would not fit after its evictions:
            # commit only the events before it, and decide it through
            # the scalar dispatcher (which raises the scalar loop's
            # error) once it is the first pending event.
            if bad == win[0]:
                self._decide_scalar(bad)
                return win[1:]
            tail = win[win >= bad]
            cl = self._closure(win[win < bad])
        later = np.concatenate((cl.later, tail)) if len(tail) else cl.later
        if cl.c_rel:
            ledger.release_many(cl.c_rel)
        n_admit = len(cl.c_fit) + len(cl.c_mov)
        i0 = cl.i0
        if n_admit:
            plan = cl.plan
            self.commit(self, plan, i0, cl.c_fit, cl.state, cl.c_mov)
            sel = cl.c_fit
            self._admits[plan.event[i0 + sel]] = cl.pick[sel]
            if cl.c_mov:
                penalty = self.policy.penalty
                for a, (iid, victims, profits, v_iids) in cl.c_mov:
                    i = int(plan.event[i0 + a])
                    self._admits[i] = iid
                    self._evictions[i] = [
                        (v, v_iid, penalty * p)
                        for v, v_iid, p in zip(victims, v_iids, profits)]
        n_arr = int(np.count_nonzero(cl.c_arr))
        if self.tally is not None and n_arr:
            self.tally(self, cl.state, cl.c_arr, n_admit)
        rn = cl.n_done
        dur = time.perf_counter() - t0
        session.latency.observe(dur * 1e6, rn)
        acc = self._acc
        acc.discarded += len(later)
        acc.events += rn
        acc.arrivals += n_arr
        acc.departures += cl.n_dep
        acc.admitted += n_admit
        if not acc.runs:
            acc.t_first = t0
        acc.runs += 1
        acc.dur += dur
        stats = session.fastpath_stats
        if rn > stats["max_run_len"]:
            stats["max_run_len"] = rn
        self.window = min(MAX_WINDOW, max(MIN_WINDOW, rn + rn // 4))
        return later

    def _misfit(self, cl: _Closure) -> int | None:
        """The first chunk event among ``cl``'s preempting arrivals
        whose route would not fit once the window's evictions are done,
        else None.  The walk's deficits and the loads after the
        evictions round differently, so each route is probed as the
        scalar admission probes it, on a copy of the loads with the
        victims subtracted as the eviction commit subtracts them."""
        index = self.geom.index
        heights = index._heights
        v_iid = np.array([v for _, move in cl.c_mov for v in move[3]],
                         dtype=np.int64)
        load = self.ledger.load.copy()
        edges, counts = gather_rows(index._indptr, index._flat_edges, v_iid)
        np.subtract.at(load, edges, heights[v_iid].repeat(counts))
        # A preempting route holds the hot edges its victims free, so it
        # is never empty.
        m_iid = np.array([move[0] for _, move in cl.c_mov], dtype=np.int64)
        edges, counts = gather_rows(index._indptr, index._flat_edges, m_iid)
        peaks = np.maximum.reduceat(load[edges], counts.cumsum() - counts)
        bad = (peaks + heights[m_iid] > _CAP).nonzero()[0]
        if not len(bad):
            return None
        return int(cl.plan.event[cl.i0 + cl.c_mov[int(bad[0])][0]])
