"""The admission-session kernel: one event loop to rule them all.

:class:`AdmissionSession` owns the state every replay needs — the
:class:`~repro.online.state.CapacityLedger`, the bound policy, and the
metrics accumulators (event counts, per-event latency samples, the
baseline offsets for delta accounting) — and exposes the three-verb
lifecycle the service layer and both replay drivers consume:

* :meth:`submit` — apply one :class:`~repro.online.events.Arrival` /
  :class:`~repro.online.events.Departure` /
  :class:`~repro.online.events.Tick` and return the :class:`Decision` it
  produced.  The timing semantics are exactly the historical replay
  loop's: every event's *policy* work is timed individually, while the
  ledger bookkeeping on a departure (``ledger.release``) happens outside
  the timed window, so latency percentiles measure decision latency, not
  the kernel's own accounting.  (:meth:`feed` is the same application
  without the Decision record — the replay drivers' hot path.)
* :meth:`snapshot` — the live counters as a JSON-safe dict (plus
  :meth:`solution` for the admitted set), readable mid-stream.
* :meth:`close` — time the policy's final ``finish()`` flush (one extra
  latency sample, often the single most expensive operation for batching
  policies), optionally re-verify the admitted set from first
  principles, collect the price certificate, and assemble the
  :class:`ReplayResult`.

Two construction modes:

* ``AdmissionSession(problem, policy)`` builds a fresh ledger — the
  ordinary replay (:func:`~repro.online.driver.replay` is now a thin
  loop over this) and the sharded driver's per-shard workers;
* :meth:`AdmissionSession.over_ledger` attaches to an *existing* ledger
  and captures a baseline of its counters, so the result reports
  **deltas** — the sharded driver runs its serialized boundary phase
  this way over the coordinator's absorbed state.

Admission decisions are deterministic given (event sequence, policy
configuration): the only nondeterminism in the result is wall-clock
timing.  That determinism is what makes the service layer's journaled
warm restart exact — re-submitting a journal into a fresh session
reconstructs the ledger and metrics bit-for-bit (timing aside).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from ..core.instance import LineProblem, TreeProblem

from ..core.solution import Solution
from ..obs import tracing as _tracing
from ..online.events import Arrival, Departure, Tick
from ..online.metrics import ReplayMetrics, latency_percentiles
from ..online.policies import AdmissionPolicy
from ..online.state import CapacityLedger

__all__ = ["AdmissionSession", "Decision", "ReplayResult",
           "assemble_result", "certificate_of"]


@dataclass
class ReplayResult:
    """Everything one replay (or service session) produced.

    Attributes
    ----------
    metrics:
        The flat :class:`~repro.online.metrics.ReplayMetrics` record.
    admission_log:
        ``(demand_id, instance_id)`` in admission order (never shrinks;
        includes demands that later departed or were evicted).
    eviction_log:
        ``(demand_id, instance_id)`` in eviction order — the demands a
        preemptive policy displaced (empty for non-preemptive policies).
    final_solution:
        The instances still admitted when the stream ended, as a
        verified-feasible :class:`~repro.core.solution.Solution`
        (``None`` for delta-mode sessions, whose ledger outlives them).
    policy_stats:
        The policy's own counters (gates, flushes, ...).
    trace_meta:
        The trace's provenance dict, echoed for reports.
    """

    metrics: ReplayMetrics
    admission_log: list = field(default_factory=list)
    eviction_log: list = field(default_factory=list)
    final_solution: Solution | None = None
    policy_stats: dict = field(default_factory=dict)
    trace_meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Decision:
    """What one submitted event did to the session.

    ``admitted`` / ``evicted`` are the ``(demand_id, instance_id)``
    pairs this event appended to the ledger's logs — for an arrival
    that's the arrival itself (possibly plus its preemption victims),
    for a tick it's whatever a batch flush let in.  ``accepted`` is the
    arrival-centric summary: the arriving demand itself got admitted
    during its own event.
    """

    kind: str
    time: float
    demand_id: int | None
    accepted: bool
    admitted: tuple = ()
    evicted: tuple = ()
    latency_s: float = 0.0

    def to_dict(self) -> dict:
        """JSON-safe form (the service layer's response payload)."""
        return {
            "kind": self.kind,
            "time": self.time,
            "demand": self.demand_id,
            "accepted": self.accepted,
            "admitted": [list(p) for p in self.admitted],
            "evicted": [list(p) for p in self.evicted],
            "latency_us": self.latency_s * 1e6,
        }


def certificate_of(policy: AdmissionPolicy) -> dict | None:
    """A price-carrying policy's upper-bound certificate, else ``None``.

    Called after the replay clock stops, so the certificate never
    pollutes the latency percentiles.
    """
    certify = getattr(policy, "price_certificate", None)
    return certify() if callable(certify) else None


def assemble_result(ledger: CapacityLedger, policy: AdmissionPolicy, *,
                    events: int, arrivals: int, departures: int, ticks: int,
                    latencies: list, elapsed: float, trace_meta: dict,
                    certificate: dict | None,
                    baseline: dict | None = None,
                    final_solution: Solution | None = None) -> ReplayResult:
    """Build the metrics/logs/stats record every session shares.

    ``baseline`` holds counter and log offsets captured before the loop
    ran (``accepted`` / ``evicted`` log lengths, ``realized`` /
    ``forfeited`` / ``penalty`` counters) — a delta-mode session (the
    sharded driver's boundary phase) reports *deltas* over absorbed
    state; ``None`` means a fresh ledger.
    """
    base = baseline or {}
    base_accepted = base.get("accepted", 0)
    base_evicted = base.get("evicted", 0)
    realized = ledger.realized_profit - base.get("realized", 0.0)
    penalty = ledger.penalty_paid - base.get("penalty", 0.0)
    accepted = len(ledger.admission_log) - base_accepted
    pct = latency_percentiles(latencies)
    metrics = ReplayMetrics(
        policy=policy.name,
        events=events,
        arrivals=arrivals,
        departures=departures,
        ticks=ticks,
        accepted=accepted,
        rejected=arrivals - accepted,
        acceptance_ratio=accepted / arrivals if arrivals else 0.0,
        realized_profit=realized,
        evictions=len(ledger.eviction_log) - base_evicted,
        forfeited_profit=ledger.forfeited_profit - base.get("forfeited", 0.0),
        penalty_paid=penalty,
        penalty_adjusted_profit=realized - penalty,
        elapsed_s=elapsed,
        events_per_sec=events / elapsed if elapsed > 0 else 0.0,
        latency_p50_us=pct["p50_us"],
        latency_p90_us=pct["p90_us"],
        latency_p99_us=pct["p99_us"],
        latency_mean_us=pct["mean_us"],
        dual_upper_bound=(certificate["upper_bound"]
                          if certificate else None),
        dual_upper_bound_peak=(certificate.get("peak_upper_bound")
                               if certificate else None),
    )
    policy_stats = dict(policy.stats)
    if certificate:
        policy_stats["dual_certificate"] = certificate
    return ReplayResult(
        metrics=metrics,
        admission_log=list(ledger.admission_log[base_accepted:]),
        eviction_log=list(ledger.eviction_log[base_evicted:]),
        final_solution=final_solution,
        policy_stats=policy_stats,
        trace_meta=dict(trace_meta),
    )


class AdmissionSession:
    """Ledger + policy + metrics accumulation behind submit/snapshot/close.

    Parameters
    ----------
    problem:
        The frozen demand population (a
        :class:`~repro.core.instance.TreeProblem` or
        :class:`~repro.core.instance.LineProblem`).
    policy:
        An :class:`~repro.online.policies.AdmissionPolicy`; it is bound
        here (to the fresh ledger, or to ``ledger`` when given), so one
        policy object can be reused across sessions.
    ledger:
        Attach to an existing ledger instead of building one.  Use
        :meth:`over_ledger` for the delta-reporting variant.
    trace_meta:
        Provenance echoed into the final :class:`ReplayResult`.
    delta_baseline:
        Capture the ledger's current counters and report the close-time
        result as deltas over them (and omit ``final_solution``, since
        the attached ledger outlives the session).
    fastpath:
        Allow :meth:`feed_many` to engage the columnar batch-decision
        fast path (:mod:`repro.online.fastpath`) when the policy
        advertises a batch kernel.  Decisions are byte-identical either
        way; ``False`` pins the scalar loop (the benchmark baseline).

    Notes
    -----
    The throughput clock starts when the session is constructed (after
    the ledger build and policy bind, matching the historical replay
    loop) and stops at :meth:`close`; for a long-lived service session
    ``elapsed_s`` therefore includes idle time between requests — the
    latency percentiles are the per-decision numbers either way.
    """

    def __init__(self, problem: TreeProblem | LineProblem,
                 policy: AdmissionPolicy, *,
                 ledger: CapacityLedger | None = None,
                 trace_meta: dict | None = None,
                 delta_baseline: bool = False,
                 fastpath: bool = True) -> None:
        self.problem = problem
        self.ledger = ledger if ledger is not None else CapacityLedger(problem)
        self.policy = policy
        policy.bind(self.ledger)
        self.trace_meta = dict(trace_meta or {})
        self._baseline: dict | None = None
        if delta_baseline:
            self._baseline = {
                "accepted": len(self.ledger.admission_log),
                "evicted": len(self.ledger.eviction_log),
                "realized": self.ledger.realized_profit,
                "forfeited": self.ledger.forfeited_profit,
                "penalty": self.ledger.penalty_paid,
            }
        self.events = 0
        self.arrivals = 0
        self.departures = 0
        self.ticks = 0
        self.latencies: list[float] = []
        #: The policy's price certificate, populated at :meth:`close`.
        self.certificate: dict | None = None
        self.closed = False
        #: Columnar fast-path telemetry (never checkpointed: the scalar
        #: and batched paths are byte-identical, so a warm restart may
        #: legitimately disagree on *how* events were executed).
        #: ``discarded`` counts events a window evaluated past its cut
        #: (and so evaluated again); every event is counted once in
        #: ``batched_events`` or ``scalar_fallbacks``.
        self.fastpath_stats = {"enabled": False, "runs": 0,
                               "batched_events": 0, "scalar_fallbacks": 0,
                               "max_run_len": 0, "discarded": 0}
        self._fast = None
        kern = policy.batch_kernel() if hasattr(policy, "batch_kernel") \
            else None
        if (fastpath and kern is not None
                and type(policy).on_departure is AdmissionPolicy.on_departure
                and type(policy).on_tick is AdmissionPolicy.on_tick):
            # Engage only when departures and ticks are provably no-ops
            # for the policy (the base hooks), so batching them inside
            # a run cannot change any decision.  The geometry build is
            # part of session construction, before the throughput clock
            # starts — same convention as the ledger build.
            from ..online.fastpath import FastFeeder
            self._fast = FastFeeder(self, kern)
            self.fastpath_stats["enabled"] = True
        self._t0 = time.perf_counter()

    @classmethod
    def over_ledger(cls, ledger: CapacityLedger, policy: AdmissionPolicy,
                    trace_meta: dict | None = None) -> "AdmissionSession":
        """A delta-mode session over an existing (possibly pre-admitted)
        ledger — the sharded boundary pass's construction."""
        return cls(ledger.problem, policy, ledger=ledger,
                   trace_meta=trace_meta, delta_baseline=True)

    # ------------------------------------------------------------------
    # The event loop, one event at a time
    # ------------------------------------------------------------------

    def submit(self, event: Arrival | Departure | Tick) -> Decision:
        """Apply one event; returns the :class:`Decision` it produced.

        Raises
        ------
        RuntimeError
            If the session is already closed.
        TypeError
            For anything that is not an Arrival / Departure / Tick.
        """
        ledger = self.ledger
        adm0 = len(ledger.admission_log)
        ev0 = len(ledger.eviction_log)
        kind, demand_id, accepted, latency = self._dispatch(event)
        return Decision(
            kind=kind,
            time=event.time,
            demand_id=demand_id,
            accepted=accepted,
            admitted=tuple(ledger.admission_log[adm0:]),
            evicted=tuple(ledger.eviction_log[ev0:]),
            latency_s=latency,
        )

    def feed(self, event: Arrival | Departure | Tick) -> None:
        """:meth:`submit` without assembling a :class:`Decision` — the
        hot path for drivers that replay a whole trace and only read
        the close-time result (the Decision's log slices and dataclass
        construction are measurable at benchmark event rates)."""
        self._dispatch(event)

    def feed_many(self,
                  events: Iterable[Arrival | Departure | Tick]) -> None:
        """:meth:`feed` a whole batch in one call.

        The batched hot path the replay drivers and the service's
        ``feed`` op use: one method call (and, upstream, one request
        decode and one journal commit) amortized over the batch.
        """
        if self._fast is not None:
            # The columnar fast path: windows of events decided by the
            # policy's batch kernel, byte-identical to the scalar loop
            # below.
            self._fast.feed(events)
            return
        dispatch = self._dispatch
        for event in events:
            dispatch(event)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def export_counters(self) -> dict:
        """The event counters a checkpoint must carry (JSON-safe).

        Latency samples are deliberately *not* exported: they are
        wall-clock noise excluded from
        :func:`~repro.online.metrics.deterministic_metrics`, the
        equality the warm-restart guarantee is stated over.
        """
        return {
            "events": self.events,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "ticks": self.ticks,
        }

    def restore_counters(self, state: dict) -> None:
        """Reset the event counters to an exported snapshot."""
        self.events = int(state["events"])
        self.arrivals = int(state["arrivals"])
        self.departures = int(state["departures"])
        self.ticks = int(state["ticks"])

    def _dispatch(
        self, event: Arrival | Departure | Tick
    ) -> tuple[str, int | None, bool, float]:
        """Apply one event; returns ``(kind, demand_id, accepted,
        latency_s)`` and updates every accumulator."""
        if self.closed:
            raise RuntimeError("session is closed")
        ledger = self.ledger
        if isinstance(event, Arrival):
            self.arrivals += 1
            t0 = time.perf_counter()
            iid = self.policy.on_arrival(event.demand_id)
            latency = time.perf_counter() - t0
            kind, demand_id, accepted = "arrival", event.demand_id, iid is not None
        elif isinstance(event, Departure):
            self.departures += 1
            # The ledger's own bookkeeping is not policy work: release
            # before starting the clock, so the latency sample measures
            # only the policy's decision path.
            if ledger.is_admitted(event.demand_id):
                ledger.release(event.demand_id)
            t0 = time.perf_counter()
            self.policy.on_departure(event.demand_id)
            latency = time.perf_counter() - t0
            kind, demand_id, accepted = "departure", event.demand_id, False
        elif isinstance(event, Tick):
            self.ticks += 1
            t0 = time.perf_counter()
            self.policy.on_tick(event.time)
            latency = time.perf_counter() - t0
            kind, demand_id, accepted = "tick", None, False
        else:
            raise TypeError(f"unknown event type {type(event).__name__}")
        self.events += 1
        self.latencies.append(latency)
        if _tracing.RECORDER.enabled:
            # Reuse the latency clock the kernel already ran — no extra
            # timing calls on the decision path.
            _tracing.record_complete(
                "session.decide", t0, latency,
                {"kind": kind, "demand": demand_id, "accepted": accepted},
            )
        return kind, demand_id, accepted, latency

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The live counters as a JSON-safe dict (readable mid-stream)."""
        base = self._baseline or {}
        ledger = self.ledger
        realized = ledger.realized_profit - base.get("realized", 0.0)
        penalty = ledger.penalty_paid - base.get("penalty", 0.0)
        return {
            "events": self.events,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "ticks": self.ticks,
            "accepted": len(ledger.admission_log) - base.get("accepted", 0),
            "evictions": len(ledger.eviction_log) - base.get("evicted", 0),
            "num_admitted": ledger.num_admitted,
            "realized_profit": realized,
            "forfeited_profit": (ledger.forfeited_profit
                                 - base.get("forfeited", 0.0)),
            "penalty_paid": penalty,
            "penalty_adjusted_profit": realized - penalty,
            "utilization": ledger.utilization(),
            "closed": self.closed,
        }

    def solution(self) -> Solution:
        """The currently-admitted set as a (live) solution."""
        return self.ledger.snapshot()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self, *, verify: bool = True) -> ReplayResult:
        """Flush, verify, and assemble the final :class:`ReplayResult`.

        The policy's ``finish()`` is timed as one extra latency sample;
        ``verify`` re-checks the admitted set against the problem
        definition from first principles (cheap; disable only in
        throughput benchmarks).  Idempotent calls are an error — the
        result is a one-shot hand-off.
        """
        if self.closed:
            raise RuntimeError("session is already closed")
        t0 = time.perf_counter()
        self.policy.finish()
        self.latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - self._t0
        self.closed = True
        if verify:
            self.ledger.verify()
        self.certificate = certificate_of(self.policy)
        return assemble_result(
            self.ledger, self.policy,
            events=self.events, arrivals=self.arrivals,
            departures=self.departures, ticks=self.ticks,
            latencies=self.latencies, elapsed=elapsed,
            trace_meta=self.trace_meta,
            certificate=self.certificate,
            baseline=self._baseline,
            final_solution=(None if self._baseline is not None
                            else self.ledger.snapshot()),
        )
