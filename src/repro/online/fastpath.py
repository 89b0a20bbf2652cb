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
* :class:`TraceArrays` — a columnar view of one event batch (kinds,
  demand ids, per-event conflict footprints);
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
one ``release_many`` commit them.  A *hard* arrival — one the kernel
cannot decide in bulk, a ``preempt-density`` arrival whose plan would
walk evictions — goes to the session's scalar dispatcher in event
order; if it changed nothing the window goes on past it, otherwise the
cut falls at the first later event meeting a route or demand it
changed.  Events past the cut are evaluated again in the next window,
which spans twice the last run.

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

import time
from bisect import bisect_left
from typing import Any, NamedTuple

import numpy as np

from ..core.conflict import gather_rows
from ..obs import tracing as _tracing
from .events import Arrival, Departure, Tick
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
        I = len(ledger.instances)
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


_KIND_ARRIVAL = 0
_KIND_DEPARTURE = 1
_KIND_TICK = 2
_KIND_OTHER = 3


class TraceArrays:
    """One event batch as columns: kinds, demand ids, footprints.

    ``batchable[i]`` is False for anything the kernels must not touch —
    unknown event types, out-of-range demand ids, demands without
    candidates — which the executor routes through the scalar
    dispatcher one at a time (reproducing the scalar path's exact
    behaviour, errors included).
    """

    __slots__ = ("events", "kinds", "demand", "batchable",
                 "fp_indptr", "fp_edges", "fp_owner")

    def __init__(self, events, kinds, demand, batchable,
                 fp_indptr, fp_edges) -> None:
        self.events = events
        self.kinds = kinds
        self.demand = demand
        self.batchable = batchable
        self.fp_indptr = fp_indptr
        self.fp_edges = fp_edges
        #: The event each ``fp_edges`` entry belongs to (nondecreasing).
        self.fp_owner = np.repeat(np.arange(len(events), dtype=np.int64),
                                  np.diff(fp_indptr))

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def from_events(cls, events: list, geom: DemandGeometry) -> "TraceArrays":
        """Columnarize one batch against ``geom``'s footprint CSR."""
        n = len(events)
        D = geom.num_demands
        # Exact-type dispatch (the event classes are final by
        # convention; subclasses would fall to _KIND_OTHER and the
        # scalar dispatcher, which handles anything).
        kind_of = {Arrival: _KIND_ARRIVAL, Departure: _KIND_DEPARTURE,
                   Tick: _KIND_TICK}.get
        kl = [kind_of(type(ev), _KIND_OTHER) for ev in events]
        dl = [ev.demand_id if k <= _KIND_DEPARTURE else -1
              for k, ev in zip(kl, events)]
        kinds = np.asarray(kl, dtype=np.int8)
        demand = np.asarray(dl, dtype=np.int64)
        # Demand-carrying events with ids outside the population go
        # through the scalar dispatcher (which raises or no-ops exactly
        # as it always did).
        batchable = (kinds == _KIND_TICK) | (
            (demand >= 0) & (demand < D)
        )
        has_demand = batchable & (demand >= 0)
        # An arrival of a demand with no candidate instances raises in
        # the scalar path (``candidates()`` KeyError); leave it there.
        ok = batchable & has_demand
        cnt = np.zeros(n, dtype=np.int64)
        cnt[ok] = geom.fp_counts[demand[ok]]
        arrivals_no_cand = (
            batchable & (kinds == _KIND_ARRIVAL) & has_demand
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
        return cls(events, kinds, demand, batchable, fp_indptr, fp_edges)


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


def _kernel_dual_tally(feeder: "FastFeeder", state, k: int, n_hard: int,
                       n_admit: int) -> None:
    """The gate counters and ``max_gate`` trajectory of the first ``k``
    evaluated arrivals (the kernel flags none of them hard)."""
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


def _kernel_preempt_evaluate(feeder: "FastFeeder", plan: _ChunkPlan,
                             i0: int, i1: int):
    """Vectorized ``PreemptDensity.on_arrival`` verdicts for arrivals
    ``[i0, i1)`` against the run-entry ledger.

    *Fit half*: the greedy selection with the density floor folded into
    ``plan.gkey``.  *Blocked half*: stage 1 of
    :meth:`~repro.online.state.CapacityLedger.preemption_plan` for every
    candidate that clears the floor, in its exact float expressions.
    An edge is hot iff ``(load + h) - 1.0 > _EPS``; the planner's cost
    bound is the largest cheapest-holder profit over the hot edges
    before the first hot edge nobody holds; it prunes iff ``bound > 0``
    and ``profit <= gate * bound``, and otherwise such a holderless
    edge plans ``None``; a candidate without a hot edge plans ``[]``.
    (Profits are strictly positive, so a hot edge with a holder always
    makes ``bound > 0``.)  An arrival whose every planned candidate
    ends there is rejected in bulk; one with a candidate that would go
    on to the eviction walk is *hard*.  A repeated arrival is a plain
    reject.
    """
    ledger = feeder.ledger
    w = _Window(feeder, plan, i0, i1)
    best = _fit_keys(plan, w)
    n = i1 - i0
    ever = ledger._ever_admitted
    repeat = np.fromiter((d in ever for d in plan.dlist[i0:i1]),
                         dtype=bool, count=n)
    planning = (best == _INT_MAX) & ~repeat
    admits = ~(planning | repeat)
    hard = pruned = None
    if planning.any():
        c0, c1, e0, e1 = w.c0, w.c1, w.e0, w.e1
        hot = (w.loads + plan.eheight[e0:e1]) - 1.0 > _EPS
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
        walks = live & ~le
        if lost is not None:
            walks &= lost == _INT_MAX
        hard = np.logical_or.reduceat(walks, w.relc) & planning
        pruned = np.add.reduceat(le & live, w.relc, dtype=np.int64)
        # Only bulk rejects count here: the dispatcher recounts a hard
        # arrival's candidates itself.
        pruned[hard | ~planning] = 0
    return admits, hard, (best, pruned)


def _kernel_preempt_commit(feeder: "FastFeeder", plan: _ChunkPlan, i0: int,
                           sel: np.ndarray, state) -> None:
    """Admit the fits among evaluated arrivals ``i0 + sel``."""
    _kernel_greedy_commit(feeder, plan, i0, sel, state[0])


def _kernel_preempt_tally(feeder: "FastFeeder", state, k: int, n_hard: int,
                          n_admit: int) -> None:
    """``preempt_rejected`` / ``preempt_pruned`` for the first ``k``
    evaluated arrivals, less the ``n_hard`` the dispatcher decided."""
    pruned = state[1]
    stats = feeder.policy.stats
    stats["preempt_rejected"] += k - n_hard - n_admit
    if pruned is not None:
        stats["preempt_pruned"] += int(pruned[:k].sum())


#: Kernel registry: the names policies advertise via ``batch_kernel()``.
#: Values are ``(evaluate, commit, tally)``:
#:
#: * ``evaluate(feeder, plan, i0, i1)`` returns ``(admits, hard,
#:   state)`` for arrivals ``[i0, i1)`` of a :class:`_ChunkPlan`
#:   without touching any state (``hard`` is ``None`` for kernels that
#:   decide every arrival);
#: * ``commit(feeder, plan, i0, sel, state)`` applies the admits of
#:   arrivals ``i0 + sel``;
#: * ``tally(feeder, state, k, n_hard, n_admit)`` adds the policy
#:   counters of the first ``k`` evaluated arrivals, ``n_hard`` of which
#:   the scalar dispatcher decided and ``n_admit`` of which admitted
#:   (``None`` when the policy keeps no per-arrival counters).
BATCH_KERNELS = {
    "greedy-threshold": (_kernel_greedy_evaluate, _kernel_greedy_commit,
                         None),
    "dual-gated": (_kernel_dual_evaluate, _kernel_dual_commit,
                   _kernel_dual_tally),
    "preempt-density": (_kernel_preempt_evaluate, _kernel_preempt_commit,
                        _kernel_preempt_tally),
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
    arrivals' events, the releasing departures (``rel``, indices into
    the chunk's departures, the first of the window being ``d0``) and
    the ``cut``."""

    i0: int
    d0: int
    state: Any
    sel: np.ndarray
    adm_events: list
    hard_events: list
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
        self.evaluate, self.commit, self.tally = BATCH_KERNELS[kernel_name]
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
            # The very gate PreemptDensity._best_plan passes the planner.
            self.gate = self.policy.factor + self.policy.penalty
        # Earliest mutator per footprint edge during one :meth:`_cut`
        # (``_INT_MAX`` between calls).
        self._first_mutator = np.full(
            self.geom.num_edges + self.geom.num_demands, _INT_MAX,
            dtype=np.int64)
        self.window = MIN_WINDOW

    def feed(self, events) -> None:
        """Apply a whole batch (the ``feed_many`` fast route)."""
        evs = events if isinstance(events, list) else list(events)
        if evs and self.session.closed:
            raise RuntimeError("session is closed")
        for c0 in range(0, len(evs), CHUNK):
            chunk = evs[c0:c0 + CHUNK]
            ta = TraceArrays.from_events(chunk, self.geom)
            self._feed_chunk(ta)

    def _load_chunk(self, ta: TraceArrays) -> None:
        """Chunk-wide pregather: candidate/route columns for every
        batchable arrival, plus event → arrival/departure prefix maps so
        each window's slice bounds are O(1) lookups."""
        n = len(ta)
        barr = ta.batchable & (ta.kinds == _KIND_ARRIVAL)
        bdep = ta.batchable & (ta.kinds == _KIND_DEPARTURE)
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

    def _feed_chunk(self, ta: TraceArrays) -> None:
        session = self.session
        stats = session.fastpath_stats
        n = len(ta)
        self._load_chunk(ta)
        bl = ta.batchable.tolist()
        # Counter updates accumulate locally and flush once per chunk
        # (the scalar dispatcher keeps updating the session directly,
        # so totals come out identical either way).
        self._acc = acc = _ChunkCounts()
        lo = 0
        while lo < n:
            if not bl[lo]:
                stats["scalar_fallbacks"] += 1
                session._dispatch(ta.events[lo])
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
                    session._dispatch(ta.events[i])
            lo = hi
        self._ta = self._plan = None
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
            # the hot path (the obs-overhead gate caught it).  ``dur``
            # sums only the windows' own time, so scalar decisions
            # (fallbacks and hard events) stay out.
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
        past the cut.  Hard arrivals do not cut here; :meth:`_window`
        handles them as it reaches them.
        """
        plan = self._plan
        i0, i1 = self._arr_ofs[lo], self._arr_ofs[b]
        d0, d1 = self._dep_ofs[lo], self._dep_ofs[b]
        hard_events: list = []
        state = None
        sel = _NO_ROWS
        if i1 > i0:
            admits, hard, state = self.evaluate(self, plan, i0, i1)
            sel = np.flatnonzero(admits)
            if hard is not None and hard.any():
                hard_events = plan.event[i0 + np.flatnonzero(hard)].tolist()
        adm_events = plan.event[i0 + sel]
        adm_events_l = adm_events.tolist()
        admitted_map = self.ledger._admitted
        dep_demands = self._dep_demands
        rel = [j for j in range(d0, d1) if dep_demands[j] in admitted_map]
        if len(sel) or rel:
            cut = self._cut(lo, b, adm_events, self._dep_event[rel])
        else:
            cut = b
        return _Segment(i0, d0, state, sel, adm_events_l, hard_events, rel,
                        cut)

    def _window(self, lo: int, b: int) -> int:
        """Decide events ``[lo, b)`` of the loaded chunk from one
        evaluation (:meth:`_segment`); returns where the next window
        starts.

        The events before the cut are committed in bulk, except hard
        arrivals, which the scalar dispatcher decides in event order
        against the state committed before them.  A hard arrival that
        changes nothing (a rejection after the eviction walk) leaves
        every later verdict valid, so the window goes on past it; one
        that admits or evicts is a mutator whose footprint is what it
        changed, and cuts the window at the first later event that
        meets it (:meth:`_touched`).
        """
        t0 = time.perf_counter()
        session = self.session
        ledger = self.ledger
        plan = self._plan
        dep_ofs = self._dep_ofs
        i0, d0, state, sel, adm_events_l, hard_events, rel, cut = \
            self._segment(lo, b)
        dep_demands = self._dep_demands
        # Commit the pieces between the hard arrivals in event order;
        # within a piece the admits and releases are pairwise
        # footprint-disjoint, so one admit_many and one release_many
        # apply them.
        a_done = r_done = n_hard = 0
        t_scalar = 0.0
        for q in hard_events + [cut]:
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
            # A hard arrival: the scalar dispatcher decides it.
            n_hard += 1
            n_adm = len(ledger.admission_log)
            n_ev = len(ledger.eviction_log)
            t1 = time.perf_counter()
            session._dispatch(self._ta.events[q])
            t_scalar += time.perf_counter() - t1
            if (len(ledger.admission_log) != n_adm
                    or len(ledger.eviction_log) != n_ev):
                cut = self._touched(q + 1, cut,
                                    ledger.admission_log[n_adm:]
                                    + ledger.eviction_log[n_ev:])
        nxt = cut
        k = self._arr_ofs[nxt] - i0
        if self.tally is not None and k:
            self.tally(self, state, k, n_hard, a_done)
        stats = session.fastpath_stats
        stats["scalar_fallbacks"] += n_hard
        rn = nxt - lo - n_hard
        acc = self._acc
        acc.discarded += b - nxt
        if rn:
            dur = time.perf_counter() - t0 - t_scalar
            session.latencies.extend([dur / rn] * rn)
            acc.events += rn
            acc.arrivals += k - n_hard
            acc.departures += dep_ofs[nxt] - d0
            acc.admitted += a_done
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
