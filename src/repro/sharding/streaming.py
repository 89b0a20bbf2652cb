"""Sharded replay: shard workers over one shared geometry, then a
serialized boundary pass.

:class:`StreamedShardedDriver` replays one event trace across ``N``
shards of a :class:`~repro.sharding.planner.ShardPlan`:

* **Shared geometry** — one full-problem
  :class:`~repro.core.conflict.ConflictIndex` is built once
  (:class:`SharedGeometry`); the coordinator ledger uses it directly and
  every shard ledger gets a relabeled :meth:`ConflictIndex.sliced` view
  that shares its edge-id space, edge-key table and Euler tours, so no
  shard rebuilds routes or conflict structure.
* **Phase A** — every shard's local stream (cut-interior demands only,
  plus ticks) is replayed through its own
  :class:`~repro.session.AdmissionSession` with a fresh policy instance.
  With ``processes > 1`` each shard runs in a ``multiprocessing`` fork
  worker that inherits its ledger copy-on-write and sends back exactly
  one message, its final :class:`~repro.session.kernel.ReplayResult`;
  otherwise the shards run inline.  Shard edge sets are disjoint, so
  the workers never contend, and fork and inline decide identically.
* **Phase B** — every shard's final admitted set is absorbed into the
  coordinator, and the cut-crossing demands are serialized through one
  more unmodified policy instance bound to that exact global view.  The
  coordinator then re-verifies the merged admitted set from first
  principles.

With ``shards=1`` every demand is local, the single shard stream is the
original trace, and phase B is empty: the run is event-for-event
identical to the single-ledger :func:`~repro.online.driver.replay`.
"""

from __future__ import annotations

import math
import queue as _queue
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.solution import Solution
from ..obs import tracing as _tracing
from ..online.events import EventTrace
from ..online.metrics import ReplayMetrics
from ..online.policies import make_policy
from ..online.state import CapacityLedger
from ..session.kernel import AdmissionSession, ReplayResult
from .planner import ShardPlanner

__all__ = ["SharedGeometry", "StreamedShardedDriver",
           "StreamedReplayResult"]


# ----------------------------------------------------------------------
# Shared geometry: one index build, N sliced views
# ----------------------------------------------------------------------


class SharedGeometry:
    """One full-problem conflict index serving coordinator and shards.

    Builds the coordinator :class:`~repro.online.state.CapacityLedger`
    over the problem's (shared, columnar) conflict index;
    :meth:`shard_view` then hands each shard a ledger over a
    :meth:`~repro.core.conflict.ConflictIndex.sliced` view whose
    edge-id space, edge-key table and Euler tours are shared read-only
    with the full build.  A view slices columns only: no instance
    objects and no routes are built for it.
    """

    def __init__(self, problem, plan):
        self.problem = problem
        self.plan = plan
        #: The exact global capacity view, owning the full index.
        self.coordinator = CapacityLedger(problem)
        self.index = self.coordinator.index

    def shard_view(self, s: int) -> CapacityLedger:
        """Shard ``s``'s ledger over a sliced view of the full index."""
        plan = self.plan
        gids = np.asarray(plan.instance_map(s), dtype=np.int64)
        # Local demand ids are the demands' ranks in the shard's
        # ascending demand list.
        local = np.searchsorted(
            np.asarray(plan.shard_demands[s], dtype=np.int64),
            self.index._dem[gids])
        return CapacityLedger(plan.subproblem(s),
                              index=self.index.sliced(gids, local))


# ----------------------------------------------------------------------
# Stream splitting: column selections over the trace
# ----------------------------------------------------------------------


def _split_streams(plan, trace: EventTrace):
    """Route the trace into per-shard local streams (densified ids) and
    the boundary stream (global ids), as column views selected from the
    trace's own columns: the streams of ``plan.subtrace(s, trace)`` and
    ``plan.boundary_events(trace)``, without re-validating them."""
    return ([plan.shard_stream(s, trace.events)
             for s in range(plan.n_shards)], plan.boundary_events(trace))


def _shard_meta(plan, trace: EventTrace, s: int) -> dict:
    """The sub-trace meta ``plan.subtrace`` would attach (result parity)."""
    meta = dict(trace.meta)
    meta.update({"shard": s, "shards": plan.n_shards, "shard_by": plan.by})
    return meta


# ----------------------------------------------------------------------
# Phase A: one shard's replay, inline or in a fork worker
# ----------------------------------------------------------------------


def _replay_shard(s, events, ledger, meta, policy_name, params,
                  verify) -> ReplayResult:
    """Replay shard ``s``'s local stream over its sliced-view ledger."""
    with _tracing.span("shard.phaseA", shard=s):
        session = AdmissionSession(ledger.problem,
                                   make_policy(policy_name, **params),
                                   ledger=ledger, trace_meta=meta)
        session.feed_many(events)
        return session.close(verify=verify)


def _stream_worker(s, events, ledger, meta, policy_name, params, verify,
                   queue):
    """One fork worker: replay shard ``s`` and send back one message.

    The ledger (with its sliced index) is built pre-fork in the parent
    and inherited copy-on-write; only the final result crosses the pipe,
    together with the shard's span ring (``None`` when tracing is off).
    """
    try:
        recording = _tracing.RECORDER.enabled
        if recording:
            # The fork inherited the parent's ring copy-on-write; this
            # shard's recorder must start empty so the spans it ships
            # back are exactly its own phase-A work.
            _tracing.RECORDER.clear()
        result = _replay_shard(s, events, ledger, meta, policy_name,
                               params, verify)
        spans = _tracing.RECORDER.drain() if recording else None
        queue.put(("done", s, result, spans))
    except BaseException as exc:  # surfaced in the parent
        import traceback

        queue.put(("error", s, f"{exc!r}\n{traceback.format_exc()}"))
        raise


def _run_forked(views, shard_events, metas, policy, params,
                verify) -> list[ReplayResult]:
    """Phase A over one fork worker per shard; results in shard order."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    queue = ctx.Queue()
    n = len(views)
    procs = [
        ctx.Process(target=_stream_worker,
                    args=(s, shard_events[s], views[s], metas[s], policy,
                          params, verify, queue),
                    daemon=True)
        for s in range(n)
    ]
    for p in procs:
        p.start()
    shard_results: list = [None] * n
    worker_spans: list = [None] * n
    remaining = n
    empties_after_death = 0
    while remaining:
        try:
            msg = queue.get(timeout=1.0)
        except _queue.Empty:  # poll worker liveness
            dead = [s for s, p in enumerate(procs)
                    if not p.is_alive() and shard_results[s] is None]
            if dead:
                # A feeder thread may still be flushing: give the queue
                # one more beat before declaring the loss.
                empties_after_death += 1
                if empties_after_death >= 2:
                    for p in procs:
                        p.terminate()
                    raise RuntimeError(
                        f"shard worker(s) {dead} exited without a "
                        "result") from None
            continue
        empties_after_death = 0
        if msg[0] == "error":
            _, s, detail = msg
            for p in procs:
                p.terminate()
            raise RuntimeError(f"shard worker {s} failed:\n{detail}")
        _, s, result, spans = msg
        shard_results[s] = result
        worker_spans[s] = spans
        remaining -= 1
    for p in procs:
        p.join()
    if _tracing.RECORDER.enabled:
        # Merge the shipped per-shard rings in shard order, before the
        # serialized phase B records its own spans, so the sequence
        # matches what the inline transport records.
        for spans in worker_spans:
            if spans:
                _tracing.RECORDER.extend(spans)
    return shard_results


# ----------------------------------------------------------------------
# Phase B hand-off and the merge
# ----------------------------------------------------------------------


def _absorb_results(coordinator: CapacityLedger, plan,
                    shard_results) -> tuple[int, float]:
    """Pre-admit every shard's final set into the coordinator (shard
    order, snapshot order within a shard).

    The union over shards is feasible by construction: shard edge sets
    are disjoint and each final set is verified per shard.
    """
    count = 0
    profits: list[float] = []
    for s, result in enumerate(shard_results):
        gids = plan.instance_map(s)
        for inst in result.final_solution.selected:
            coordinator.admit(gids[inst.instance_id])
            profits.append(float(inst.profit))
            count += 1
    return count, math.fsum(profits)


def _merge(trace: EventTrace, shard_results: list[ReplayResult],
           boundary_result: ReplayResult | None, wall: float,
           coordinator_cert: dict | None = None) -> ReplayMetrics:
    """Merged metrics: trace-level counts + summed outcome counters.

    Boundary metrics are already deltas over the absorbed baseline, so
    a plain sum never double counts; latency percentiles cannot be
    merged exactly without raw samples, so the merged tail is the
    conservative maximum across shard and boundary rows.
    """
    with _tracing.span("boundary.merge", shards=len(shard_results)):
        return _merge_rows(trace, shard_results, boundary_result, wall,
                           coordinator_cert)


def _merge_rows(trace: EventTrace, shard_results: list[ReplayResult],
                boundary_result: ReplayResult | None, wall: float,
                coordinator_cert: dict | None = None) -> ReplayMetrics:
    rows = [r.metrics for r in shard_results]
    if boundary_result is not None:
        rows.append(boundary_result.metrics)
    # The peak-based companion column (history-mode certificates)
    # merges only where the tightened bound is a single row's: the
    # multi-shard sum mixes tightened and peak semantics.
    if boundary_result is not None:
        peak = boundary_result.metrics.dual_upper_bound_peak
    elif len(shard_results) == 1:
        peak = shard_results[0].metrics.dual_upper_bound_peak
    else:
        peak = None
    arrivals = trace.num_arrivals
    accepted = sum(m.accepted for m in rows)
    # Money columns merge with fsum: the merged totals must not
    # depend on shard enumeration order.
    realized = math.fsum(m.realized_profit for m in rows)
    penalty = math.fsum(m.penalty_paid for m in rows)
    if boundary_result is not None:
        # The boundary pass's certificate is computed on the coordinator
        # over the full population — a valid global upper bound.
        cert = boundary_result.metrics.dual_upper_bound
    elif len(shard_results) == 1:
        # One shard, nothing crossing: the run *is* the unsharded
        # replay, certificate included (event-for-event identity).
        cert = shard_results[0].metrics.dual_upper_bound
    else:
        # No demand crosses a cut: the LP separates across shards, so
        # the per-shard certificates sum to a global bound; the boundary
        # pass still priced the coordinator over the absorbed state, which is
        # an independent valid bound — report the tighter of the two.
        shard_certs = [r.metrics.dual_upper_bound for r in shard_results]
        candidates = []
        if all(c is not None for c in shard_certs):
            candidates.append(math.fsum(shard_certs))
        if coordinator_cert is not None:
            candidates.append(coordinator_cert["upper_bound"])
        cert = min(candidates) if candidates else None
    return ReplayMetrics(
        policy=rows[0].policy,
        events=len(trace.events),
        arrivals=arrivals,
        departures=trace.num_departures,
        ticks=len(trace.events) - arrivals - trace.num_departures,
        accepted=accepted,
        rejected=arrivals - accepted,
        acceptance_ratio=accepted / arrivals if arrivals else 0.0,
        realized_profit=realized,
        evictions=sum(m.evictions for m in rows),
        forfeited_profit=math.fsum(m.forfeited_profit for m in rows),
        penalty_paid=penalty,
        penalty_adjusted_profit=realized - penalty,
        elapsed_s=wall,
        events_per_sec=len(trace.events) / wall if wall > 0 else 0.0,
        latency_p50_us=max(m.latency_p50_us for m in rows),
        latency_p90_us=max(m.latency_p90_us for m in rows),
        latency_p99_us=max(m.latency_p99_us for m in rows),
        latency_mean_us=max(m.latency_mean_us for m in rows),
        dual_upper_bound=cert,
        dual_upper_bound_peak=peak,
    )


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


@dataclass
class StreamedReplayResult:
    """Everything one sharded replay produced.

    Attributes
    ----------
    plan:
        The :class:`~repro.sharding.planner.ShardPlan` summary dict —
        per-shard demand counts and the boundary-demand population (the
        first-order divergence scale vs the unsharded replay).
    shard_results:
        One :class:`~repro.session.kernel.ReplayResult` per shard, over
        local demand ids (``trace_meta["shard"]`` names the shard).
    boundary_result:
        The serialized boundary replay (counter deltas; global demand
        ids), or ``None`` when no demand crossed a cut.
    merged:
        The merged :class:`~repro.online.metrics.ReplayMetrics` — whole
        trace event counts, summed acceptance/profit/eviction counters,
        wall-clock throughput, and the conservative (max) latency tail
        across shards.
    merged_solution:
        The coordinator's final admitted set (verified feasible).
    policy_stats:
        ``{"shards": [...], "boundary": {...}, "absorbed": {...}}`` —
        per-policy counters plus the absorb hand-off tally.
    wall_s / critical_path_s:
        Replay wall clock on this host (geometry build included) vs the
        slowest shard + absorb + boundary-phase sum, the modeled time of
        a deployment with one core per shard.
    """

    plan: dict
    shard_results: list[ReplayResult]
    boundary_result: ReplayResult | None
    merged: ReplayMetrics
    merged_solution: Solution | None
    policy_stats: dict = field(default_factory=dict)
    wall_s: float = 0.0
    critical_path_s: float = 0.0

    @property
    def critical_path_events_per_sec(self) -> float:
        """Modeled throughput: total events / critical-path seconds."""
        if self.critical_path_s <= 0:
            return 0.0
        return self.merged.events / self.critical_path_s


class StreamedShardedDriver:
    """Replay traces across shard workers and merge the outcome.

    Parameters
    ----------
    shards:
        Number of shards (>= 1).
    shard_by:
        Partition strategy, ``"subtree"`` or ``"layer"`` (see
        :class:`~repro.sharding.planner.ShardPlanner`).
    processes:
        Phase-A worker count.  ``None`` uses ``min(shards, cpu_count)``;
        ``<= 1`` runs the shards inline.  Fork workers need the
        ``fork`` start method (POSIX); elsewhere the driver falls back
        to inline.  Decisions are identical either way.
    boundary:
        Must be ``"two-phase"``, the only boundary mode.
    """

    def __init__(self, shards: int, shard_by: str = "subtree",
                 processes: int | None = None,
                 boundary: str = "two-phase"):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if boundary != "two-phase":
            raise ValueError(
                f"boundary must be 'two-phase', got {boundary!r}")
        self.shards = shards
        self.planner = ShardPlanner(shard_by)
        self.processes = processes

    def run(self, trace: EventTrace, policy: str,
            params: dict | None = None, *,
            verify: bool = True) -> StreamedReplayResult:
        """Replay ``trace`` through ``policy`` across the shards.

        ``policy`` is a registry name (one fresh instance is built per
        shard plus one for the boundary pass); ``params`` are its
        constructor keywords — validated up front so misconfigurations
        fail before any replay work starts.
        """
        params = dict(params or {})
        boundary_policy = make_policy(policy, **params)  # validates early
        plan = self.planner.plan(trace.problem, self.shards)
        shard_events, boundary_events = _split_streams(plan, trace)
        n = plan.n_shards
        metas = [_shard_meta(plan, trace, s) for s in range(n)]
        # Subproblem demand containers are trace prep; the geometry and
        # ledger builds below stay inside the wall window.
        for s in range(n):
            plan.subproblem(s)

        t0 = time.perf_counter()
        geometry = SharedGeometry(trace.problem, plan)
        views = [geometry.shard_view(s) for s in range(n)]
        coordinator = geometry.coordinator

        nproc = self.processes
        if nproc is None:
            import os

            nproc = min(n, os.cpu_count() or 1)
        use_fork = False
        if min(nproc, n) > 1:
            import multiprocessing as mp

            use_fork = "fork" in mp.get_all_start_methods()
        if use_fork:
            shard_results = _run_forked(views, shard_events, metas, policy,
                                        params, verify)
        else:
            shard_results = [
                _replay_shard(s, shard_events[s], views[s], metas[s],
                              policy, params, verify)
                for s in range(n)
            ]

        t_absorb = time.perf_counter()
        with _tracing.span("shard.absorb"):
            count, profit = _absorb_results(coordinator, plan, shard_results)
        absorb_s = time.perf_counter() - t_absorb
        with _tracing.span("shard.phaseB", events=len(boundary_events)):
            session = AdmissionSession.over_ledger(
                coordinator, boundary_policy, trace_meta=trace.meta)
            session.feed_many(boundary_events)
            result = session.close(verify=verify)
        boundary_result = result if boundary_events else None
        wall = time.perf_counter() - t0

        # The boundary certificate is priced on the coordinator over the
        # full population, so the merge can use it even when no demand
        # crossed a cut.
        merged = _merge(trace, shard_results, boundary_result, wall,
                        coordinator_cert=session.certificate)
        critical = (max(r.metrics.elapsed_s for r in shard_results)
                    + absorb_s
                    + (boundary_result.metrics.elapsed_s
                       if boundary_result else 0.0))
        policy_stats = {
            "shards": [dict(r.policy_stats) for r in shard_results],
            "boundary": (dict(boundary_result.policy_stats)
                         if boundary_result else {}),
            "absorbed": {"count": count, "profit": profit},
        }
        return StreamedReplayResult(
            plan=plan.summary(),
            shard_results=shard_results,
            boundary_result=boundary_result,
            merged=merged,
            merged_solution=coordinator.snapshot(),
            policy_stats=policy_stats,
            wall_s=wall,
            critical_path_s=critical,
        )
