"""Columnar batch-decision fast path: vectorized admission over
conflict-free runs.

The scalar event loop (``session.feed`` → ``policy.on_arrival`` →
``ledger.admit``) costs ~15–20µs of interpreter work per event.  This
module removes that bottleneck for the two stateless-per-event policies
(``greedy-threshold`` and ``dual-gated``) without changing a single
decision bit:

* :class:`DemandGeometry` — per-demand candidate/route/footprint CSR
  arrays resolved **once** per ledger against the shared
  :class:`~repro.core.conflict.ConflictIndex` (cached on the ledger, so
  every session over the same ledger — including the sharded boundary
  pass — reuses one build);
* :class:`TraceArrays` — a columnar view of one event batch (kinds,
  demand ids, per-event conflict footprints);
* :func:`conflict_free_runs` — splits consecutive events into *maximal*
  runs whose footprints are pairwise disjoint, so every decision inside
  a run reads exactly the loads it would have read under one-at-a-time
  processing;
* batch kernels :func:`batch_greedy_threshold` and
  :func:`batch_dual_gated` — gather/segment-reduce replicas of the
  scalar decision paths, bit-for-bit (see the float notes below);
* :class:`FastFeeder` — the executor ``AdmissionSession.feed_many``
  engages when the policy advertises a batch kernel.

Bit-exactness ground rules (each empirically verified against this
container's NumPy):

* ``np.add.reduceat`` reduces every segment identically whether it
  sums one segment or many, independent of segment position and buffer
  alignment (it does *not* match ``np.sum``'s pairwise blocking, which
  is why the scalar ``DualGated._price_from_loads`` itself sums through
  a single-segment ``reduceat`` — both paths then share one reduction
  definition and match bit for bit by construction);
* elementwise ufuncs (``np.power``) are position-invariant, so pricing
  every gathered route edge in one call matches per-route calls;
* ``max``/``min`` reductions are order-independent, so
  ``maximum.reduceat`` feasibility probes and first-min selection keys
  are exact;
* within a run, routes are edge-disjoint, so batched scatter-adds touch
  every load position exactly once — the same single float add the
  scalar loop performs.

The executor amortizes per-run overhead by *pre-gathering* per chunk:
candidate rows, route edges, heights and selection keys for every
batchable arrival in a chunk are flattened once (:func:`_prepare`),
so each run reduces to a load gather plus a handful of segment
reductions over contiguous slices.

A *footprint* is the union of every candidate route of a demand plus a
per-demand sentinel pseudo-edge: two events of the same demand always
conflict (the arrival/departure bookkeeping is order-dependent), and
any two demands whose admitted-or-considered routes could share an edge
conflict.  Splitting finer than first-footprint-overlap is always
sound; :func:`conflict_free_runs` is exactly maximal, and the property
tests pin that.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs import tracing as _tracing
from .events import Arrival, Departure, Tick

__all__ = [
    "DemandGeometry",
    "TraceArrays",
    "FastFeeder",
    "BATCH_KERNELS",
    "conflict_free_runs",
    "geometry_of",
]

#: Events columnarized (and segmented) per pass; a chunk boundary is a
#: forced run boundary — a finer split, which is always sound.
CHUNK = 32768

#: Runs shorter than this are executed through the scalar dispatcher:
#: the vectorized kernels pay ~a dozen NumPy-call overheads per run,
#: which only amortize over enough events.  Either execution is
#: bit-identical, so this is purely a throughput knob.
MIN_VECTOR_RUN = 2

_INT_MAX = np.iinfo(np.int64).max

#: The ledger's capacity bound: an admission is blocked when the route's
#: peak load plus the instance height exceeds this (the exact comparison
#: :meth:`ActiveConflictSet.blocked_mask` performs).
_CAP = 1.0 + 1e-9


# ----------------------------------------------------------------------
# Static per-demand geometry
# ----------------------------------------------------------------------


class DemandGeometry:
    """Candidate/route/footprint CSR arrays over a ledger's population.

    Everything here is static (routes, profits, densities never change),
    resolved once against the ledger's shared
    :class:`~repro.core.conflict.ConflictIndex` and reused by every
    batch.  Demand ids index the CSR directly (the trace contract:
    ``0 .. num_demands-1``; shard-sliced subproblems densify to the same
    convention).
    """

    def __init__(self, ledger) -> None:
        index = ledger.index
        problem = ledger.problem
        D = int(problem.num_demands)
        I = len(ledger.instances)
        E = int(index.num_edges)
        self.num_demands = D
        self.num_instances = I
        self.num_edges = E

        # --- per-demand candidate CSR (ascending instance ids, exactly
        # the order ledger.candidates() reports) -----------------------
        counts = np.zeros(D, dtype=np.int64)
        for inst in ledger.instances:
            counts[inst.demand_id] += 1
        self.cand_indptr = np.zeros(D + 1, dtype=np.int64)
        np.cumsum(counts, out=self.cand_indptr[1:])
        cand_iids = np.empty(I, dtype=np.int64)
        fill = self.cand_indptr[:-1].copy()
        for inst in ledger.instances:
            d = inst.demand_id
            cand_iids[fill[d]] = inst.instance_id
            fill[d] += 1
        self.cand_iids = cand_iids

        # --- per-candidate columns (aligned with cand_iids) -----------
        indptr = index._indptr
        route_counts = (indptr[1:] - indptr[:-1])[cand_iids]
        self.cand_route_len = np.maximum(route_counts, 1)
        profits = np.asarray(
            [float(d.profit) for d in ledger.instances], dtype=np.float64
        )
        self.cand_profit = profits[cand_iids]
        self.cand_height = index._heights[cand_iids].astype(
            np.float64, copy=True
        )
        self.cand_dix = index._dix[cand_iids]
        # route_length / density exactly as the ledger caches them:
        # max(route, 1) and profit / route_length (one float64 divide).
        self.cand_density = self.cand_profit / self.cand_route_len.astype(
            np.float64
        )
        # Greedy's (route_length, iid) ranking as one sortable int64.
        self.cand_selkey = self.cand_route_len * np.int64(I) + cand_iids
        # blocked_mask's single- vs multi-candidate asymmetry: the
        # single-candidate probe skips the load test on an empty route,
        # the batched probe applies it.  True where the load test
        # applies (nonempty route, or demand with several candidates).
        self.cand_apply = (route_counts > 0) | np.repeat(
            counts > 1, counts
        )

        # --- per-candidate route CSR (the index's own edge rows,
        # re-packed in candidate order) --------------------------------
        self.rr_indptr = np.zeros(I + 1, dtype=np.int64)
        np.cumsum(route_counts, out=self.rr_indptr[1:])
        total = int(self.rr_indptr[-1])
        if total:
            offsets = np.repeat(
                indptr[cand_iids] - self.rr_indptr[:-1], route_counts
            )
            self.rr_edges = index._flat_edges[
                np.arange(total, dtype=np.int64) + offsets
            ]
        else:
            self.rr_edges = np.zeros(0, dtype=np.int64)

        # --- per-demand conflict footprints ---------------------------
        # Union of every candidate route of the demand, deduped in one
        # global argsort pass, plus a sentinel pseudo-edge ``E + d`` so
        # two events of the same demand always conflict.  Stamps range
        # over ``E + D``.
        if total:
            owner = np.repeat(
                np.repeat(
                    np.arange(D, dtype=np.int64),
                    counts,
                ),
                route_counts,
            )
            key = owner * np.int64(E) + self.rr_edges
            key = np.sort(key)
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
                 "fp_indptr", "fp_edges")

    def __init__(self, events, kinds, demand, batchable,
                 fp_indptr, fp_edges) -> None:
        self.events = events
        self.kinds = kinds
        self.demand = demand
        self.batchable = batchable
        self.fp_indptr = fp_indptr
        self.fp_edges = fp_edges

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
        total = int(fp_indptr[-1])
        if total:
            ok = cnt > 0
            starts = geom.fp_indptr[demand[ok]]
            offsets = np.repeat(starts - fp_indptr[:-1][ok], cnt[ok])
            fp_edges = geom.fp_edges[
                np.arange(total, dtype=np.int64) + offsets
            ]
        else:
            fp_edges = np.zeros(0, dtype=np.int64)
        return cls(events, kinds, demand, batchable, fp_indptr, fp_edges)


def conflict_free_runs(ta: TraceArrays, lo: int = 0,
                       hi: int | None = None) -> list[tuple[int, int]]:
    """Maximal conflict-free runs of ``ta.events[lo:hi]``.

    Returns half-open ``(start, stop)`` index pairs covering
    ``[lo, hi)`` in order.  Within a run every pair of events has
    disjoint footprints; each run boundary sits exactly at the first
    event whose footprint overlaps the current run (*exact maximality*
    — any finer split is sound, any coarser would reorder conflicting
    decisions).

    One argsort over the stretch's footprint entries: sorting by
    ``(edge, event)`` makes each entry's nearest earlier same-edge
    holder its sort-predecessor; the per-event max of those predecessors
    is the latest earlier conflicting event, and a boundary is needed
    exactly when it falls inside the current run.
    """
    if hi is None:
        hi = len(ta)
    n = hi - lo
    if n <= 0:
        return []
    if n == 1:
        return [(lo, hi)]
    f0 = int(ta.fp_indptr[lo])
    f1 = int(ta.fp_indptr[hi])
    edges = ta.fp_edges[f0:f1]
    if len(edges) == 0:
        return [(lo, hi)]
    indptr = ta.fp_indptr[lo:hi + 1] - f0
    counts = indptr[1:] - indptr[:-1]
    owner = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.argsort(edges * np.int64(n) + owner)
    s_edges = edges[order]
    s_owner = owner[order]
    prev_vals = np.full(len(edges), -1, dtype=np.int64)
    same = s_edges[1:] == s_edges[:-1]
    prev_vals[1:][same] = s_owner[:-1][same]
    prev_flat = np.empty(len(edges), dtype=np.int64)
    prev_flat[order] = prev_vals
    max_prev = np.full(n, -1, dtype=np.int64)
    nonempty = counts > 0
    if nonempty.any():
        max_prev[nonempty] = np.maximum.reduceat(
            prev_flat, indptr[:-1][nonempty]
        )
    runs: list[tuple[int, int]] = []
    run_start = 0
    mp = max_prev.tolist()
    for i in range(1, n):
        if mp[i] >= run_start:
            runs.append((lo + run_start, lo + i))
            run_start = i
    runs.append((lo + run_start, hi))
    return runs


# ----------------------------------------------------------------------
# Batch decision kernels
# ----------------------------------------------------------------------


class _ChunkPlan:
    """Pre-gathered candidate/route columns for one batch of arrivals.

    Built once per chunk by :func:`_prepare`; every per-run kernel call
    then works on contiguous slices of these arrays, so the run-time
    work is one load gather plus a handful of segment reductions.  All
    arrays are flat in *chunk arrival order*:

    * ``demands``/``ccnt``/``dix`` — per arrival;
    * ``cstart`` — arrival → candidate-range prefix (length n+1);
    * ``gidx``/``height``/``pos`` (+ per-kernel ``gkey`` or
      ``profit``/``iid``) — per candidate;
    * ``estart`` — candidate → route-edge-range prefix (length C+1);
    * ``edges`` — flat route edge ids per candidate.

    ``has_empty`` flags chunks containing empty-route candidates; only
    those pay the masked reductions (and the ``apply`` exemption mask
    replicating ``blocked_mask``'s single- vs multi-candidate
    asymmetry).
    """

    __slots__ = ("demands", "ccnt", "dix", "cstart", "gidx", "height",
                 "pos", "aidx", "estart", "edges", "earange",
                 "has_empty", "apply", "gkey", "profit", "iid")


def _prepare(feeder: "FastFeeder", demands: np.ndarray) -> _ChunkPlan:
    """Flatten the candidate rows of ``demands`` against the geometry."""
    geom = feeder.geom
    p = _ChunkPlan()
    p.demands = demands
    ci0 = geom.cand_indptr[demands]
    ccnt = geom.cand_indptr[demands + 1] - ci0
    cstart = np.zeros(len(demands) + 1, dtype=np.int64)
    np.cumsum(ccnt, out=cstart[1:])
    C = int(cstart[-1])
    gidx = np.arange(C, dtype=np.int64) + np.repeat(ci0 - cstart[:-1], ccnt)
    p.ccnt = ccnt
    p.cstart = cstart
    p.gidx = gidx
    p.dix = geom.cand_dix[gidx[cstart[:-1]]]
    r0 = geom.rr_indptr[gidx]
    r_cnt = geom.rr_indptr[gidx + 1] - r0
    estart = np.zeros(C + 1, dtype=np.int64)
    np.cumsum(r_cnt, out=estart[1:])
    total = int(estart[-1])
    if total:
        p.edges = geom.rr_edges[
            np.arange(total, dtype=np.int64) + np.repeat(r0 - estart[:-1],
                                                         r_cnt)
        ]
    else:
        p.edges = np.zeros(0, dtype=np.int64)
    p.estart = estart
    p.height = geom.cand_height[gidx]
    p.pos = np.arange(C, dtype=np.int64)
    p.earange = np.arange(total, dtype=np.int64)
    p.has_empty = bool((r_cnt == 0).any())
    p.apply = geom.cand_apply[gidx] if p.has_empty else None
    if feeder.gkey is not None:
        p.gkey = feeder.gkey[gidx]
        p.aidx = p.profit = p.iid = None
    else:
        p.gkey = None
        # Per-candidate arrival index: lets the kernels expand a
        # per-arrival column to candidates with one gather instead of a
        # per-run ``np.repeat``.
        p.aidx = np.repeat(
            np.arange(len(demands), dtype=np.int64), ccnt
        )
        p.profit = geom.cand_profit[gidx]
        p.iid = geom.cand_iids[gidx]
    return p


def _kernel_greedy(feeder: "FastFeeder", plan: _ChunkPlan,
                   i0: int, i1: int) -> np.ndarray:
    """Vectorized ``GreedyThreshold.on_arrival`` over one run's arrivals.

    Arrivals ``[i0, i1)`` of the plan (all distinct demands, pairwise
    footprint-disjoint).  Returns the admitted instance ids in event
    order; the ledger is mutated exactly as the scalar ``try_admit``
    sequence would have mutated it.  The density floor is pre-folded
    into ``plan.gkey`` (below-threshold candidates carry ``_INT_MAX``),
    and the already-admitted early return is applied per arrival — the
    currently-admitted check is subsumed, since a demand in the system
    is by invariant in the ever-admitted set.
    """
    ledger = feeder.ledger
    cstart = plan.cstart
    estart = plan.estart
    c0 = cstart[i0]
    c1 = cstart[i1]
    e0 = estart[c0]
    loads = ledger.active._load[plan.edges[e0:estart[c1]]]
    # The feasibility probe: per-candidate route peak via one segment
    # max (the rare empty-route chunks take the masked shape, where
    # empty segments stay 0.0 exactly as the scalar probe sees them).
    rel = estart[c0:c1] - e0
    if not plan.has_empty:
        seg_max = np.maximum.reduceat(loads, rel)
    else:
        seg_max = np.zeros(c1 - c0, dtype=np.float64)
        ne = (estart[c0 + 1:c1 + 1] - estart[c0:c1]) > 0
        if loads.size:
            seg_max[ne] = np.maximum.reduceat(loads, rel[ne])
    blocked = seg_max + plan.height[c0:c1] > _CAP
    if plan.has_empty:
        blocked &= plan.apply[c0:c1]
    key = np.where(blocked, _INT_MAX, plan.gkey[c0:c1])
    best = np.minimum.reduceat(key, cstart[i0:i1] - c0)
    sel = np.nonzero(best != _INT_MAX)[0]
    if not len(sel):
        return _EMPTY_IIDS
    dems = plan.demands[i0 + sel].tolist()
    ever = ledger._ever_admitted
    if ever:
        keep = [k for k, d in enumerate(dems) if d not in ever]
        if len(keep) != len(dems):
            if not keep:
                return _EMPTY_IIDS
            sel = sel[np.asarray(keep, dtype=np.int64)]
            dems = [dems[k] for k in keep]
    best_iids = best[sel] % feeder.num_instances
    ledger.admit_many(best_iids, _prechecked=True, _demands=dems)
    return best_iids


def _kernel_dual(feeder: "FastFeeder", plan: _ChunkPlan,
                 i0: int, i1: int) -> np.ndarray:
    """Vectorized ``DualGated.on_arrival`` over one run's arrivals.

    Same candidate ranking (first strict price minimum in candidate
    order), same gate (``profit <= eta * price``), same stats counters
    and ``max_gate`` trajectory, same peak-load notes — computed from
    the run-entry loads, which within a conflict-free run are exactly
    the loads the scalar loop would observe event by event.  The
    demand-in-system block is applied per arrival (every candidate of
    such a demand is blocked in the scalar probe, so the arrival counts
    as capacity-blocked either way).
    """
    ledger = feeder.ledger
    policy = feeder.policy
    cstart = plan.cstart
    estart = plan.estart
    c0 = cstart[i0]
    c1 = cstart[i1]
    e0 = estart[c0]
    load = ledger.active._load
    loads = load[plan.edges[e0:estart[c1]]]
    h = plan.height[c0:c1]
    # Feasibility probe (see the greedy kernel for the masked shape).
    rel = estart[c0:c1] - e0
    if not plan.has_empty:
        seg_max = np.maximum.reduceat(loads, rel)
    else:
        seg_max = np.zeros(c1 - c0, dtype=np.float64)
        ne = (estart[c0 + 1:c1 + 1] - estart[c0:c1]) > 0
        if loads.size:
            seg_max[ne] = np.maximum.reduceat(loads, rel[ne])
    feasible = seg_max + h <= _CAP
    if plan.has_empty:
        # ~blocked with blocked = (load test) & apply.
        feasible |= ~plan.apply[c0:c1]
    # Price every gathered route edge in one ufunc call (elementwise,
    # position-invariant); the per-candidate sums are one multi-segment
    # reduceat — the very reduction the scalar price function performs.
    pw = np.power(policy.mu, loads) - 1.0
    if not plan.has_empty:
        sums = np.add.reduceat(pw, rel)
    else:
        sums = np.zeros(c1 - c0, dtype=np.float64)
        if loads.size:
            sums[ne] = np.add.reduceat(pw, rel[ne])
    price = h * (policy._scale * sums)
    priced = np.where(feasible, price, np.inf)
    relc = cstart[i0:i1] - c0
    best_price = np.minimum.reduceat(priced, relc)
    # An arrival has a feasible candidate iff its best price is finite
    # (feasible prices are always finite); a demand already in the
    # system blocks every candidate in the scalar probe, so it counts
    # as capacity-blocked the same way.
    has_any = best_price < np.inf
    has_any &= ~ledger.active._demand_used[plan.dix[i0:i1]]
    stats = policy.stats
    n_any = int(np.count_nonzero(has_any))
    if n_any == i1 - i0:
        # Common shape in an uncongested stretch: every arrival admits
        # a candidate, so the per-arrival compaction gathers vanish.
        ai = None
    else:
        stats["capacity_blocked"] += (i1 - i0) - n_any
        if not n_any:
            return _EMPTY_IIDS
        ai = np.nonzero(has_any)[0]
    # First strict minimum in candidate order — the scalar loop keeps
    # the first candidate attaining the minimum.  Infeasible candidates
    # carry +inf, which only ties a +inf best price — and those
    # arrivals are already excluded by ``has_any``.
    at_min = priced == best_price[plan.aidx[c0:c1] - i0]
    first = np.minimum.reduceat(
        np.where(at_min, plan.pos[c0:c1], _INT_MAX), relc
    )
    if ai is None:
        first_sel = first
        best_prices = best_price
    else:
        first_sel = first[ai]
        best_prices = best_price[ai]
    # max_gate folds in every best price seen, gated or not (max is
    # order-independent; cast keeps the stats JSON-safe floats).
    mg = float(best_prices.max())
    if mg > stats["max_gate"]:
        stats["max_gate"] = mg
    gated = plan.profit[first_sel] <= policy.eta * best_prices
    n_gated = int(np.count_nonzero(gated))
    if n_gated:
        stats["gated"] += n_gated
        if n_gated == len(gated):
            return _EMPTY_IIDS
        keep = ~gated
        first_sel = first_sel[keep]
        ai = np.nonzero(keep)[0] if ai is None else ai[keep]
    # One route-edge gather serves the load scatter-add, the holder
    # bookkeeping inputs, and the peak notes.
    r0 = estart[first_sel]
    r_cnt = estart[first_sel + 1] - r0
    total = int(r_cnt.sum())
    if total:
        csum = np.zeros(len(first_sel), dtype=np.int64)
        np.cumsum(r_cnt[:-1], out=csum[1:])
        edges = plan.edges[
            plan.earange[:total] + (r0 - csum).repeat(r_cnt)
        ]
        adds = plan.height[first_sel].repeat(r_cnt)
    else:
        edges = adds = None
    best_iids = plan.iid[first_sel]
    dems = (plan.demands[i0:i1] if ai is None
            else plan.demands[i0 + ai]).tolist()
    ledger.admit_many(
        best_iids, _prechecked=True, _demands=dems,
        _edges=edges, _adds=adds,
    )
    if total:
        # Batched ``_note_peak``: each admitted route's post-admission
        # loads equal its post-batch loads (disjointness), so one
        # gather after admit_many folds the same values into the peaks
        # as the per-admission scalar notes.  History snapshots are
        # never taken here: the policy only advertises its batch
        # kernel with ``history=False``.
        peak = policy._peak
        peak[edges] = np.maximum(peak[edges], load[edges])
    return best_iids


_EMPTY_IIDS = np.zeros(0, dtype=np.int64)


def batch_greedy_threshold(feeder: "FastFeeder",
                           demands: np.ndarray) -> np.ndarray:
    """One-shot :func:`_kernel_greedy` over ``demands`` (event order)."""
    demands = np.asarray(demands, dtype=np.int64)
    if not len(demands):
        return _EMPTY_IIDS
    return _kernel_greedy(feeder, _prepare(feeder, demands),
                          0, len(demands))


def batch_dual_gated(feeder: "FastFeeder",
                     demands: np.ndarray) -> np.ndarray:
    """One-shot :func:`_kernel_dual` over ``demands`` (event order)."""
    demands = np.asarray(demands, dtype=np.int64)
    if not len(demands):
        return _EMPTY_IIDS
    return _kernel_dual(feeder, _prepare(feeder, demands),
                        0, len(demands))


#: Kernel registry: the names policies advertise via ``batch_kernel()``.
#: Values are ``(one_shot, per_run)`` — the one-shot form takes raw
#: demand ids, the per-run form a :class:`_ChunkPlan` arrival range.
BATCH_KERNELS = {
    "greedy-threshold": (batch_greedy_threshold, _kernel_greedy),
    "dual-gated": (batch_dual_gated, _kernel_dual),
}


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class FastFeeder:
    """Drives one session's ``feed_many`` batches through the kernels.

    Constructed by :class:`~repro.session.kernel.AdmissionSession` when
    the policy advertises a batch kernel (and keeps the base no-op
    departure/tick hooks).  Each batch is columnarized per
    :data:`CHUNK`, segmented into conflict-free runs, and executed run
    by run: departures release in one batched call, arrivals decide in
    one kernel call.  Anything the kernels must not touch — unbatchable
    events, runs shorter than :data:`MIN_VECTOR_RUN` — goes through the
    session's scalar dispatcher, which is bit-identical by definition.
    """

    def __init__(self, session, kernel_name: str) -> None:
        if kernel_name not in BATCH_KERNELS:
            raise ValueError(f"unknown batch kernel {kernel_name!r}")
        self.session = session
        self.ledger = session.ledger
        self.policy = session.policy
        self.kernel, self._krun = BATCH_KERNELS[kernel_name]
        self.geom = geometry_of(session.ledger)
        self.num_instances = self.geom.num_instances
        # Greedy's density floor is static per session: fold it into the
        # selection key once, so the kernel's eligibility test is just
        # the feasibility mask.
        if kernel_name == "greedy-threshold":
            self.gkey = np.where(
                self.geom.cand_density < self.policy.threshold,
                _INT_MAX, self.geom.cand_selkey,
            )
        else:
            self.gkey = None

    def feed(self, events) -> None:
        """Apply a whole batch (the ``feed_many`` fast route)."""
        evs = events if isinstance(events, list) else list(events)
        if evs and self.session.closed:
            raise RuntimeError("session is closed")
        for c0 in range(0, len(evs), CHUNK):
            chunk = evs[c0:c0 + CHUNK]
            ta = TraceArrays.from_events(chunk, self.geom)
            self._feed_chunk(ta)

    def _feed_chunk(self, ta: TraceArrays) -> None:
        session = self.session
        stats = session.fastpath_stats
        n = len(ta)
        batchable = ta.batchable
        # Chunk-wide pregather: candidate/route columns for every
        # batchable arrival, plus event → arrival/departure prefix maps
        # so each run's slice bounds are O(1) lookups.
        barr = batchable & (ta.kinds == _KIND_ARRIVAL)
        bdep = batchable & (ta.kinds == _KIND_DEPARTURE)
        arr_ofs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(barr, out=arr_ofs[1:])
        dep_ofs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(bdep, out=dep_ofs[1:])
        plan = _prepare(self, ta.demand[barr])
        dep_demands = ta.demand[bdep].tolist()
        arr_ofs_l = arr_ofs.tolist()
        dep_ofs_l = dep_ofs.tolist()
        bl = batchable.tolist()
        # Per-run counter updates accumulate locally and flush once per
        # chunk (the scalar dispatcher keeps updating the session
        # directly, so totals come out identical either way).
        c_events = c_arr = c_dep = c_runs = c_adm = 0
        t_first = dur_sum = 0.0
        max_run = stats["max_run_len"]
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
            for a, b in conflict_free_runs(ta, lo, hi):
                if b - a < MIN_VECTOR_RUN:
                    stats["scalar_fallbacks"] += b - a
                    dispatch = session._dispatch
                    for i in range(a, b):
                        dispatch(ta.events[i])
                else:
                    t0, dur, admitted = self._run(
                        ta, plan, arr_ofs_l, dep_ofs_l, dep_demands, a, b)
                    rn = b - a
                    c_events += rn
                    c_arr += arr_ofs_l[b] - arr_ofs_l[a]
                    c_dep += dep_ofs_l[b] - dep_ofs_l[a]
                    c_adm += admitted
                    if not c_runs:
                        t_first = t0
                    dur_sum += dur
                    c_runs += 1
                    if rn > max_run:
                        max_run = rn
            lo = hi
        if c_runs:
            session.events += c_events
            session.arrivals += c_arr
            session.departures += c_dep
            session.ticks += c_events - c_arr - c_dep
            stats["runs"] += c_runs
            stats["batched_events"] += c_events
            stats["max_run_len"] = max_run
            # One aggregated span per chunk, not one per run: per-run
            # spans cost ~2µs each, which the batch kernels made a
            # measurable slice of the hot path (the obs-overhead gate
            # caught it).  ``dur`` sums only the in-run kernel windows,
            # so scalar fallbacks interleaved between runs stay out.
            if _tracing.RECORDER.enabled:
                _tracing.record_complete(
                    "session.batch_decide", t_first, dur_sum,
                    {"events": c_events, "arrivals": c_arr,
                     "departures": c_dep, "admitted": c_adm,
                     "runs": c_runs},
                )

    def _run(self, ta: TraceArrays, plan: _ChunkPlan, arr_ofs: list,
             dep_ofs: list, dep_demands: list, a: int,
             b: int) -> tuple[float, float, int]:
        """Execute one conflict-free run of batchable events.

        Releases go first (the scalar loop performs them outside the
        decision clock too); the arrival kernel then reads loads that —
        by footprint disjointness — match what each scalar decision
        would have read in event order.  Ticks are no-ops here by
        construction (the policy keeps the base ``on_tick``).
        """
        session = self.session
        ledger = self.ledger
        t0 = time.perf_counter()
        d0 = dep_ofs[a]
        d1 = dep_ofs[b]
        if d1 > d0:
            admitted_map = ledger._admitted
            live = [d for d in dep_demands[d0:d1] if d in admitted_map]
            if live:
                ledger.release_many(live, _disjoint=True)
        i0 = arr_ofs[a]
        i1 = arr_ofs[b]
        admitted = 0
        if i1 > i0:
            admitted = len(self._krun(self, plan, i0, i1))
        dur = time.perf_counter() - t0
        n = b - a
        session.latencies.extend([dur / n] * n)
        return t0, dur, admitted
