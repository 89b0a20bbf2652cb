"""Columnar batch-decision fast path: bulk verdicts over mutation-aware
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
  ledger as it stands, and *commit*/*tally* halves that apply a prefix
  of those verdicts through ``admit_many`` and the policy counters, bit
  for bit (see the float notes below);
* :class:`FastFeeder` — the executor ``AdmissionSession.feed_many``
  engages when the policy advertises a batch kernel.

A *footprint* is the union of every candidate route of a demand plus a
per-demand sentinel pseudo-edge, so two events of the same demand
always meet.  An event's verdict reads nothing outside its footprint.
A rejected arrival changes nothing — no load, no holder, no log entry
— and neither does a departure of a demand not in the system, so only
*mutators* (an arrival whose verdict admits, a departure of an
admitted demand) can make a later verdict stale, and only one whose
footprint meets theirs.  The executor evaluates a window of events
against the run-entry state, then cuts it at the first event whose
footprint meets an earlier mutator's (:meth:`FastFeeder._segment`).
Every verdict before the cut equals the scalar one, and the prefix's
admits and releases are footprint-disjoint, so one ``admit_many`` and
one ``release_many`` commit them.  A *hard* arrival — a
``preempt-density`` arrival that no candidate fits and whose plan
reaches the eviction walk — is planned in the kernel too: one
closed-form walk per window over every hard arrival before the cut
(:func:`_kernel_preempt_walk`), against the same run-entry state.  In
event order, a hard arrival that rejects changes nothing and the window
goes on past it; one that preempts commits through ``evict_many`` +
``admit_many`` and cuts the window at the first later event meeting a
route or demand it changed.  Events past the cut are evaluated again in
the next window, which spans twice the last run.

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
* within a window's committed prefix, routes are edge-disjoint, so
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
from bisect import bisect_left
from itertools import chain
from typing import Any, Callable, NamedTuple

import numpy as np

from ..core.conflict import gather_rows
from ..obs import tracing as _tracing
from .events import ARRIVAL, DEPARTURE, TICK, EventView
from .state import _EPS

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

#: Stretches of batchable events shorter than this go through the
#: scalar dispatcher: a window evaluation pays ~a dozen NumPy-call
#: overheads, which only amortize over several events.  Either
#: execution is bit-identical, so this is purely a throughput knob.
MIN_VECTOR_RUN = 2

#: Window bounds, in events.  Each window spans twice the previous
#: window's run, clamped to ``[MIN_WINDOW, MAX_WINDOW]``: events past a
#: cut are evaluated again, so a window much longer than the run wastes
#: work, and one much shorter pays more window overheads.
MIN_WINDOW = 8
MAX_WINDOW = 512

_INT_MAX = np.iinfo(np.int64).max
_NO_ROWS = np.zeros(0, dtype=np.int64)

#: The ledger's capacity bound: an admission is blocked when the route's
#: peak load plus the instance height exceeds this (the exact comparison
#: :meth:`ActiveConflictSet.blocked_mask` performs).
_CAP = 1.0 + 1e-9


# ----------------------------------------------------------------------
# Static per-demand geometry
# ----------------------------------------------------------------------


class DemandGeometry:
    """The fast path's per-instance policy keys and per-demand footprints.

    Routes, heights, profits, interned demands and the demand →
    candidate CSR are read straight from the ledger's shared
    :class:`~repro.core.conflict.ConflictIndex`; this class adds only
    what the batch kernels derive from them, indexed by instance id:
    the greedy density and selection key, the feasibility-test mask,
    and the per-demand conflict-footprint CSR.  Everything here is
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
        # blocked_mask's single- vs multi-candidate asymmetry: the
        # single-candidate probe skips the load test on an empty route,
        # the batched probe applies it.  True where the load test
        # applies (nonempty route, or demand with several candidates).
        self.cand_apply = (route_counts > 0) | (counts > 1)[owner]

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
                 "fp_edges", "fp_owner")

    def __init__(self, kinds, times, demand, batchable, fp_indptr,
                 fp_edges) -> None:
        self.kinds = kinds
        self.times = times
        self.demand = demand
        self.batchable = batchable
        self.fp_indptr = fp_indptr
        self.fp_edges = fp_edges
        #: The event each ``fp_edges`` entry belongs to (nondecreasing).
        self.fp_owner = np.repeat(np.arange(len(kinds), dtype=np.int64),
                                  np.diff(fp_indptr))

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

    * ``demands``/``dlist``/``event`` — per arrival (``event`` is the
      arrival's index in the chunk);
    * ``cstart`` (+ ``cstart_l``, the same as a list) — arrival →
      candidate-range prefix (length n+1);
    * ``height``/``pos``/``iid``/``profit``/``aidx`` (+ ``gkey``/
      ``elig`` for the first-fit kernels) — per candidate;
    * ``estart`` (+ ``estart_l``) — candidate → route-edge-range prefix
      (length C+1);
    * ``edges`` (+ ``eheight``/``ecand`` for the preemption kernel) —
      per route edge of every candidate.

    ``has_empty`` flags chunks containing empty-route candidates; only
    those pay the masked reductions (and the ``apply`` exemption mask
    replicating ``blocked_mask``'s single- vs multi-candidate
    asymmetry).
    """

    __slots__ = ("demands", "dlist", "event", "cstart", "cstart_l",
                 "height", "pos", "aidx", "estart", "estart_l", "edges",
                 "earange", "has_empty", "apply", "gkey", "elig", "profit",
                 "iid", "eheight", "ecand")


def _prepare(feeder: "FastFeeder", demands: np.ndarray,
             event: np.ndarray) -> _ChunkPlan:
    """Flatten the candidate rows of ``demands`` against the index."""
    geom = feeder.geom
    index = geom.index
    p = _ChunkPlan()
    p.demands = demands
    p.dlist = demands.tolist()
    p.event = event
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
    p.has_empty = bool((r_cnt == 0).any())
    p.apply = geom.cand_apply[iid] if p.has_empty else None
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
    else:
        p.ecand = p.eheight = None
    return p


class _Window:
    """One window's route columns: the run-entry loads on every route
    edge of arrivals ``[i0, i1)`` and the segment layout over them."""

    __slots__ = ("c0", "c1", "e0", "e1", "loads", "rel", "relc",
                 "nonempty")

    def __init__(self, feeder: "FastFeeder", plan: _ChunkPlan,
                 i0: int, i1: int) -> None:
        self.c0 = c0 = plan.cstart_l[i0]
        self.c1 = c1 = plan.cstart_l[i1]
        self.e0 = e0 = plan.estart_l[c0]
        self.e1 = e1 = plan.estart_l[c1]
        self.loads = feeder.ledger.active._load[plan.edges[e0:e1]]
        self.rel = plan.estart[c0:c1] - e0
        self.relc = plan.cstart[i0:i1] - c0
        # Empty routes make empty segments, which ``reduceat`` cannot
        # express; only chunks that contain one pay the masked shape.
        self.nonempty = ((plan.estart[c0 + 1:c1 + 1] > plan.estart[c0:c1])
                         if plan.has_empty else None)

    def reduce(self, ufunc, values: np.ndarray, fill) -> np.ndarray:
        """Per-candidate ``ufunc`` reduction of per-route-edge
        ``values``; an empty route reduces to ``fill``."""
        if self.nonempty is None:
            return ufunc.reduceat(values, self.rel)
        out = np.full(self.c1 - self.c0, fill, dtype=values.dtype)
        if values.size:
            out[self.nonempty] = ufunc.reduceat(values,
                                                self.rel[self.nonempty])
        return out


def _fit_keys(plan: _ChunkPlan, w: _Window) -> np.ndarray:
    """First-fit selection per arrival: the smallest ``plan.gkey`` over
    candidates that fit the run-entry loads (``_INT_MAX`` = none fits).

    The feasibility probe is a per-candidate route peak via one segment
    max (empty segments read 0.0, exactly as the scalar probe sees
    them, and the ``apply`` mask exempts the empty routes the scalar
    single-candidate probe does not test).
    """
    c0, c1 = w.c0, w.c1
    blocked = w.reduce(np.maximum, w.loads, 0.0) + plan.height[c0:c1] > _CAP
    if plan.has_empty:
        blocked &= plan.apply[c0:c1]
    return np.minimum.reduceat(
        np.where(blocked, _INT_MAX, plan.gkey[c0:c1]), w.relc)


def _kernel_greedy_evaluate(feeder: "FastFeeder", plan: _ChunkPlan,
                            i0: int, i1: int):
    """Vectorized ``GreedyThreshold.on_arrival`` verdicts for arrivals
    ``[i0, i1)`` against the run-entry ledger.

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
    if ever:
        for k in np.flatnonzero(admits).tolist():
            if plan.dlist[i0 + k] in ever:
                admits[k] = False
    return admits, None, best


def _kernel_greedy_commit(feeder: "FastFeeder", plan: _ChunkPlan, i0: int,
                          sel: np.ndarray, best) -> None:
    """Admit the selections of evaluated arrivals ``i0 + sel`` (offsets
    whose verdict admits, in event order) in one ``admit_many``."""
    feeder.ledger.admit_many(best[sel] % feeder.num_instances,
                             _prechecked=True,
                             _demands=plan.demands[i0 + sel].tolist())


def _kernel_dual_evaluate(feeder: "FastFeeder", plan: _ChunkPlan,
                          i0: int, i1: int):
    """Vectorized ``DualGated.on_arrival`` verdicts for arrivals
    ``[i0, i1)`` against the run-entry ledger.

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
    feasible = w.reduce(np.maximum, w.loads, 0.0) + h <= _CAP
    if plan.has_empty:
        # ~blocked with blocked = (load test) & apply.
        feasible |= ~plan.apply[c0:c1]
    # Price every gathered route edge in one ufunc call (elementwise,
    # position-invariant); the per-candidate sums are one multi-segment
    # reduceat — the very reduction the scalar price function performs.
    sums = w.reduce(np.add, np.power(policy.mu, w.loads) - 1.0, 0.0)
    priced = np.where(feasible, h * (policy._scale * sums), np.inf)
    best_price = np.minimum.reduceat(priced, w.relc)
    # An arrival has a feasible candidate iff its best price is finite
    # (feasible prices are always finite); a demand already in the
    # system blocks every candidate in the scalar probe, so it counts
    # as capacity-blocked the same way.
    has_any = best_price < np.inf
    has_any &= ~feeder.ledger.active._demand_used[
        feeder.geom.index._dix[plan.iid[plan.cstart[i0:i1]]]]
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


def _kernel_dual_commit(feeder: "FastFeeder", plan: _ChunkPlan, i0: int,
                        sel: np.ndarray, state) -> None:
    """Admit evaluated arrivals ``i0 + sel`` in one ``admit_many`` and
    fold their routes into the price peaks."""
    first_sel = state[3][sel]
    # One route-edge gather serves the load scatter-add, the holder
    # bookkeeping inputs, and the peak notes.
    estart = plan.estart
    r0 = estart[first_sel]
    r_cnt = estart[first_sel + 1] - r0
    total = int(r_cnt.sum())
    if total:
        csum = np.zeros(len(first_sel), dtype=np.int64)
        np.cumsum(r_cnt[:-1], out=csum[1:])
        edges = plan.edges[plan.earange[:total] + (r0 - csum).repeat(r_cnt)]
        adds = plan.height[first_sel].repeat(r_cnt)
    else:
        edges = adds = None
    feeder.ledger.admit_many(
        plan.iid[first_sel], _prechecked=True,
        _demands=plan.demands[i0 + sel].tolist(), _edges=edges, _adds=adds)
    if total:
        # Batched ``_note_peak``: each admitted route's post-admission
        # loads equal its post-batch loads (disjointness), so one
        # gather after admit_many folds the same values into the peaks
        # as the per-admission scalar notes.  History snapshots are
        # never taken here: the policy only advertises its batch
        # kernel with ``history=False``.
        peak = feeder.policy._peak
        load = feeder.ledger.active._load
        peak[edges] = np.maximum(peak[edges], load[edges])


def _kernel_dual_tally(feeder: "FastFeeder", state, k: int,
                       n_admit: int) -> None:
    """The gate counters and ``max_gate`` trajectory of the first ``k``
    evaluated arrivals."""
    best_price, has_any, gated, _ = state
    stats = feeder.policy.stats
    n_any = int(np.count_nonzero(has_any[:k]))
    stats["capacity_blocked"] += k - n_any
    if n_any:
        # max_gate folds in every best price seen, gated or not (max is
        # order-independent; cast keeps the stats JSON-safe floats).
        mg = float(best_price[:k][has_any[:k]].max())
        if mg > stats["max_gate"]:
            stats["max_gate"] = mg
        stats["gated"] += int(np.count_nonzero(gated[:k]))


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
    against the run-entry ledger, up to the eviction walk.

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
        bound = w.reduce(np.maximum, held, 0.0)
        lost = None
        if bound.max() == np.inf:
            # Some hot edge has no holder: the bound only runs up to
            # the first one.
            pos = plan.earange[:e1 - e0]
            lost = w.reduce(np.minimum,
                            np.where(held == np.inf, pos, _INT_MAX), _INT_MAX)
            bound = w.reduce(
                np.maximum,
                np.where(pos < lost[plan.ecand[e0:e1] - c0], held, 0.0), 0.0)
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
    ``[i0, i0 + k)`` against the run-entry ledger; changes nothing.

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
    sets = list(map(ledger._holders_by_edge.__getitem__,
                    plan.edges[e0:e0 + ec][seg_e].tolist()))
    lens = list(map(len, sets))
    n = sum(lens)
    S = len(lens)
    cnt = np.fromiter(lens, dtype=np.int64, count=S)
    held = np.fromiter(map(ledger._admitted.__getitem__,
                           chain.from_iterable(sets)),
                       dtype=np.int64, count=n)
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
    steps = np.zeros((max(lens) + 1) * S)
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
    against the run-entry ledger: ``{offset: (iid, victims, victim
    profits)}`` for each arrival that preempts into candidate ``iid``
    (the others reject).  Walk prunes are added to ``state.pruned``.

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
            chosen[a] = (rank_key, c_iid, v_dem[lo:hi], prof)
    return {a: have[1:] for a, have in chosen.items()}


def _kernel_preempt_evict(feeder: "FastFeeder", plan: _ChunkPlan, a: int,
                          move) -> list:
    """Execute arrival ``a``'s eviction plan ``move`` from
    :func:`_kernel_preempt_walk`: the victims go in one ``evict_many``
    (their penalties and forfeits in walk order), then the arrival is
    admitted; returns the ``(demand, instance)`` pairs it changed."""
    ledger = feeder.ledger
    policy = feeder.policy
    iid, victims, profits = move
    penalty = policy.penalty
    v_iids = ledger.evict_many(victims, [penalty * p for p in profits])
    policy.stats["evictions"] += len(victims)
    policy.stats["preempt_admits"] += 1
    demand = plan.dlist[a]
    # The walk's deficits and the loads after the evictions round
    # differently, so the route is probed as the scalar admission
    # probes it; should it not fit, the validating admit_many raises
    # the scalar path's error.
    route = ledger._edge_ids(iid)
    height = feeder.geom.index._heights[iid]
    fits = (not len(route)
            or np.maximum.reduce(ledger.active._load[route]) + height <= _CAP)
    ledger.admit_many([iid], _prechecked=fits, _demands=[demand],
                      _edges=route, _adds=np.full(len(route), height))
    changed = list(zip(victims, v_iids))
    changed.append((demand, iid))
    return changed


def _kernel_preempt_commit(feeder: "FastFeeder", plan: _ChunkPlan, i0: int,
                           sel: np.ndarray, state: _PreemptState) -> None:
    """Admit the fits among evaluated arrivals ``i0 + sel``."""
    _kernel_greedy_commit(feeder, plan, i0, sel, state.best)


def _kernel_preempt_tally(feeder: "FastFeeder", state: _PreemptState, k: int,
                          n_admit: int) -> None:
    """``preempt_rejected`` / ``preempt_pruned`` for the first ``k``
    evaluated arrivals (the walk and the commit count the rest)."""
    stats = feeder.policy.stats
    stats["preempt_rejected"] += k - n_admit
    if state.pruned is not None:
        stats["preempt_pruned"] += int(state.pruned[:k].sum())


class _Kernel(NamedTuple):
    """One policy's batch kernel (see :data:`BATCH_KERNELS`)."""

    evaluate: Callable
    commit: Callable
    tally: Callable | None = None
    walk: Callable | None = None
    preempt: Callable | None = None


#: Kernel registry: the names policies advertise via ``batch_kernel()``.
#:
#: * ``evaluate(feeder, plan, i0, i1)`` returns ``(admits, hard,
#:   state)`` for arrivals ``[i0, i1)`` of a :class:`_ChunkPlan`
#:   without touching any state (``hard`` is ``None`` for kernels whose
#:   verdicts need no eviction walk);
#: * ``commit(feeder, plan, i0, sel, state)`` applies the admits of
#:   arrivals ``i0 + sel``;
#: * ``tally(feeder, state, k, n_admit)`` adds the policy counters of
#:   the first ``k`` evaluated arrivals, ``n_admit`` of which admitted
#:   (``None`` when the policy keeps no per-arrival counters);
#: * ``walk(feeder, plan, i0, k, state)`` plans the hard arrivals among
#:   ``[i0, i0 + k)`` (``{offset: move}`` for those that preempt) and
#:   ``preempt(feeder, plan, a, move)`` executes one move, returning the
#:   ``(demand, instance)`` pairs it changed.
BATCH_KERNELS = {
    "greedy-threshold": _Kernel(_kernel_greedy_evaluate,
                                _kernel_greedy_commit),
    "dual-gated": _Kernel(_kernel_dual_evaluate, _kernel_dual_commit,
                          _kernel_dual_tally),
    "preempt-density": _Kernel(_kernel_preempt_evaluate,
                               _kernel_preempt_commit, _kernel_preempt_tally,
                               _kernel_preempt_walk, _kernel_preempt_evict),
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


class _Segment(NamedTuple):
    """One evaluated, cut window (:meth:`FastFeeder._segment`): the
    kernel ``state`` of the arrivals from ``i0``, the offsets ``sel`` of
    those that admit (and their chunk events ``adm_events``), the hard
    arrivals before the cut (their events, and ``(event, move)`` for
    each that preempts), the releasing departures (``rel``,
    indices into the chunk's departures, the first of the window being
    ``d0``) and the ``cut``."""

    i0: int
    d0: int
    state: Any
    sel: np.ndarray
    adm_events: list
    hard_events: list
    moves: list
    rel: list
    cut: int


class FastFeeder:
    """Drives one session's ``feed_many`` batches through the kernels.

    Constructed by :class:`~repro.session.kernel.AdmissionSession` when
    the policy advertises a batch kernel (and keeps the base no-op
    departure/tick hooks).  Each batch is columnarized per
    :data:`CHUNK`; each maximal stretch of batchable events is then
    consumed window by window (:meth:`_window`).  A stretch's lone last
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
        self.evaluate, self.commit, self.tally = (kernel.evaluate,
                                                  kernel.commit, kernel.tally)
        self.walk, self.preempt = kernel.walk, kernel.preempt
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
        # Earliest mutator per footprint edge during one :meth:`_cut`
        # (``_INT_MAX`` between calls).
        self._first_mutator = np.full(
            self.geom.num_edges + self.geom.num_demands, _INT_MAX,
            dtype=np.int64)
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
        batchable arrival, plus event → arrival/departure prefix maps so
        each window's slice bounds are O(1) lookups."""
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
        self._dep_demands = ta.demand[bdep].tolist()
        self._arr_ofs = arr_ofs.tolist()
        self._dep_ofs = dep_ofs.tolist()
        self._fp_indptr = ta.fp_indptr.tolist()
        # The scalar decision of one chunk event, from its column values.
        kl, tl, dl = ta.kinds.tolist(), ta.times.tolist(), ta.demand.tolist()
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
                while hi - lo >= MIN_VECTOR_RUN:
                    lo = self._window(lo, min(hi, lo + self.window))
                if lo < hi:
                    stats["scalar_fallbacks"] += hi - lo
                    for i in range(lo, hi):
                        self._scalar(i)
                lo = hi
        finally:
            self._ta = self._plan = self._scalar = None
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

    def _segment(self, lo: int, b: int) -> _Segment:
        """Evaluate events ``[lo, b)`` of the loaded chunk against the
        current ledger and cut them (:meth:`_cut`); changes nothing.

        Mutators are the arrivals whose verdict admits and the
        departures of demands in the system.  A departure of a demand
        the window admits meets that admission's footprint, so it falls
        past the cut.  Hard arrivals do not cut here: the kernel walks
        the eviction plans of those before the cut, and :meth:`_window`
        executes them as it reaches them.
        """
        plan = self._plan
        i0, i1 = self._arr_ofs[lo], self._arr_ofs[b]
        d0, d1 = self._dep_ofs[lo], self._dep_ofs[b]
        hard = state = None
        sel = _NO_ROWS
        if i1 > i0:
            admits, hard, state = self.evaluate(self, plan, i0, i1)
            sel = np.flatnonzero(admits)
        adm_events = plan.event[i0 + sel]
        adm_events_l = adm_events.tolist()
        admitted_map = self.ledger._admitted
        dep_demands = self._dep_demands
        rel = [j for j in range(d0, d1) if dep_demands[j] in admitted_map]
        if len(sel) or rel:
            cut = self._cut(lo, b, adm_events, self._dep_event[rel])
        else:
            cut = b
        hard_events = moves = []
        if hard is not None:
            k = self._arr_ofs[cut] - i0
            offs = np.flatnonzero(hard[:k])
            if len(offs):
                hard_events = plan.event[i0 + offs].tolist()
                moves = [(int(plan.event[i0 + a]), move) for a, move
                         in self.walk(self, plan, i0, k, state).items()]
        return _Segment(i0, d0, state, sel, adm_events_l, hard_events, moves,
                        rel, cut)

    def _window(self, lo: int, b: int) -> int:
        """Decide events ``[lo, b)`` of the loaded chunk from one
        evaluation (:meth:`_segment`); returns where the next window
        starts.

        The events before the cut are committed in bulk, and each hard
        arrival's eviction plan in event order against the state
        committed before it.  A hard arrival that rejects changes
        nothing, so every later verdict stays valid and the window goes
        on past it; one that preempts is a mutator whose footprint is
        what it changed — its route, its victims' routes and their
        sentinels — and cuts the window at the first later event that
        meets it (:meth:`_touched`).
        """
        t0 = time.perf_counter()
        session = self.session
        ledger = self.ledger
        plan = self._plan
        dep_ofs = self._dep_ofs
        i0, d0, state, sel, adm_events_l, hard_events, moves, rel, cut = \
            self._segment(lo, b)
        dep_demands = self._dep_demands
        # Commit the pieces between the preempting arrivals in event
        # order; within a piece the admits and releases are pairwise
        # footprint-disjoint, so one admit_many and one release_many
        # apply them.
        a_done = r_done = n_pre = 0
        for q, move in moves + [(cut, None)]:
            if q > cut:
                q = cut
            a_next = bisect_left(adm_events_l, q, a_done)
            if a_next > a_done:
                self.commit(self, plan, i0, sel[a_done:a_next], state)
                a_done = a_next
            r_next = r_done
            while r_next < len(rel) and dep_ofs[q] > rel[r_next]:
                r_next += 1
            if r_next > r_done:
                ledger.release_many([dep_demands[j]
                                     for j in rel[r_done:r_next]],
                                    _disjoint=True)
                r_done = r_next
            if q == cut:
                break
            n_pre += 1
            cut = self._touched(q + 1, cut, self.preempt(
                self, plan, self._arr_ofs[q], move))
        nxt = cut
        k = self._arr_ofs[nxt] - i0
        if self.tally is not None and k:
            self.tally(self, state, k, a_done + n_pre)
        stats = session.fastpath_stats
        rn = nxt - lo
        acc = self._acc
        acc.discarded += b - nxt
        if rn:
            dur = time.perf_counter() - t0
            session.latency.observe(dur * 1e6, rn)
            acc.events += rn
            acc.arrivals += k
            acc.departures += dep_ofs[nxt] - d0
            acc.admitted += a_done + n_pre
            if not acc.runs:
                acc.t_first = t0
            acc.runs += 1
            acc.dur += dur
            if rn > stats["max_run_len"]:
                stats["max_run_len"] = rn
        self.window = min(MAX_WINDOW, max(MIN_WINDOW, 2 * (nxt - lo)))
        return nxt

    def _cut(self, lo: int, b: int, adm_events: np.ndarray,
             rel_events: np.ndarray) -> int:
        """The first event of ``[lo, b)`` whose footprint meets the
        footprint of an earlier mutator — an admitting arrival (chunk
        event indices ``adm_events``) or a release of an admitted demand
        (``rel_events``) — else ``b``.

        Every verdict before the cut read exactly the state it would
        have read one event at a time: rejections and no-op departures
        change nothing, and no earlier mutation touched its footprint.
        One scatter-min stamps each mutated footprint edge with its
        earliest mutator; an entry conflicts iff its edge's stamp is an
        earlier event.
        """
        ta = self._ta
        mut = np.zeros(b - lo, dtype=bool)
        mut[adm_events - lo] = True
        mut[rel_events - lo] = True
        f0 = self._fp_indptr[lo]
        f1 = self._fp_indptr[b]
        owner = ta.fp_owner[f0:f1]
        edges = ta.fp_edges[f0:f1]
        m = mut[owner - lo]
        me = edges[m]
        first = self._first_mutator
        np.minimum.at(first, me, owner[m])
        conflict = first[edges] < owner
        first[me] = _INT_MAX
        if conflict.any():
            return int(owner[int(conflict.argmax())])
        return b

    def _touched(self, lo: int, b: int, changed: list) -> int:
        """The first event of ``[lo, b)`` whose footprint meets a
        ``(demand, instance)`` pair in ``changed`` — the instance's route
        or the demand's sentinel — else ``b``."""
        if lo >= b:
            return b
        sentinel = self.geom.num_edges
        route_of = self.ledger._route_edge_list
        me: list = []
        for d, iid in changed:
            me += route_of(iid)
            me.append(sentinel + d)
        mark = self._first_mutator
        mark[me] = lo
        f0 = self._fp_indptr[lo]
        f1 = self._fp_indptr[b]
        hit = mark[self._ta.fp_edges[f0:f1]] == lo
        mark[me] = _INT_MAX
        if hit.any():
            return int(self._ta.fp_owner[f0 + int(hit.argmax())])
        return b
