"""Replay metrics: acceptance, profit vs the offline optimum, latency.

The offline benchmark is the trace's own frozen problem — every demand
that ever arrives, solved by any registry solver (``exact`` for the true
optimum, an approximation algorithm for a cheaper yardstick).  With
departures in the trace the clairvoyant adversary is weaker than the
frozen instance suggests (capacity freed mid-stream can be reused), so a
policy can legitimately exceed the frozen optimum; ratios above 1 are
reported as computed, not clamped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from .events import EventTrace

__all__ = ["ReplayMetrics", "TIMING_FIELDS", "deterministic_metrics",
           "offline_optimum", "with_offline"]

#: The wall-clock-dependent metrics fields — everything else is a pure
#: function of (trace, policy configuration).
TIMING_FIELDS = ("elapsed_s", "events_per_sec", "latency_p50_us",
                 "latency_p90_us", "latency_p99_us", "latency_mean_us")


def deterministic_metrics(metrics) -> dict:
    """``metrics`` (a record or its ``to_dict`` form) minus the
    wall-clock-dependent fields — the projection that must agree exactly
    between a warm-restarted session and an uninterrupted replay, and
    that the shards=1 equivalence tests compare byte for byte."""
    doc = dict(metrics if isinstance(metrics, dict) else metrics.to_dict())
    for k in TIMING_FIELDS:
        doc.pop(k, None)
    return doc


@dataclass(frozen=True)
class ReplayMetrics:
    """Flat, JSON-safe outcome of one (trace, policy) replay."""

    policy: str
    events: int
    arrivals: int
    departures: int
    ticks: int
    accepted: int
    rejected: int
    acceptance_ratio: float
    realized_profit: float
    elapsed_s: float
    events_per_sec: float
    #: Per-event decision latency quantiles, read from the session's
    #: log-bucket histogram (so within one 2^¼ bucket ratio of the
    #: exact sample quantile).  An event the columnar fast path decided
    #: in a batch counts its whole run's wall duration.
    latency_p50_us: float
    latency_p90_us: float
    latency_p99_us: float
    latency_mean_us: float
    #: Demands preemptively evicted (0 for non-preemptive policies).
    evictions: int = 0
    #: Profit forfeited by evicted demands (already netted out of
    #: ``realized_profit``).
    forfeited_profit: float = 0.0
    #: Eviction penalties charged on top of the forfeits.
    penalty_paid: float = 0.0
    #: ``realized_profit - penalty_paid`` — the apples-to-apples number
    #: for comparing preemptive and non-preemptive policies.
    penalty_adjusted_profit: float = 0.0
    #: LP-dual upper bound on the frozen-instance optimum, certified by
    #: the dual-gated price trajectory (``None`` for policies that carry
    #: no prices).  Mirrors the offline ``opt_upper_bound`` certificate:
    #: always ``>= offline_profit`` by weak duality, and computed from
    #: the replay itself — no offline solve needed.
    dual_upper_bound: float | None = None
    #: The peak-only bound, reported alongside the (tightened)
    #: ``dual_upper_bound`` when the policy records per-edge price
    #: *histories* (``dual-gated`` / ``preempt-dual-gated`` with
    #: ``history=True``); ``None`` otherwise.
    dual_upper_bound_peak: float | None = None
    #: Profit of the frozen-instance benchmark (``None`` when not computed).
    offline_profit: float | None = None
    #: ``adjusted / offline`` — the fraction of the benchmark captured
    #: (penalty-adjusted, so preemptive rows are comparable).
    profit_vs_offline: float | None = None
    #: ``offline / adjusted`` — the (empirical) competitive ratio.
    competitive_ratio: float | None = None

    def to_dict(self) -> dict:
        """The metrics as a plain dict (JSON-serialisable)."""
        return asdict(self)


def offline_optimum(trace: EventTrace, solver: str = "exact", **params) -> float:
    """Profit of ``solver`` on the trace's frozen problem.

    ``registry.solve`` semantics: unknown keyword arguments are dropped
    per solver, so one parameter dict can drive any benchmark solver.
    """
    from ..algorithms import registry

    return float(registry.solve(solver, trace.problem, **params).profit)


def with_offline(metrics: ReplayMetrics, offline_profit: float) -> ReplayMetrics:
    """A copy of ``metrics`` with the offline-benchmark ratios filled in.

    Ratios are computed on the *penalty-adjusted* profit (realized minus
    eviction penalties), which coincides with ``realized_profit`` for
    non-preemptive policies, so preemptive and non-preemptive rows on
    the same trace are directly comparable.  The degenerate 0/0 case —
    an empty or fully-gated trace whose offline benchmark is also 0 —
    reports both ratios as 1.0 (the policy captured everything there was
    to capture) instead of blanking the sweep-table cells.
    """
    adjusted = metrics.realized_profit - metrics.penalty_paid
    offline = float(offline_profit)
    if offline == 0.0 and adjusted == 0.0:
        vs_offline = competitive = 1.0
    else:
        vs_offline = adjusted / offline if offline > 0 else None
        competitive = offline / adjusted if adjusted > 0 else None
    return replace(
        metrics,
        offline_profit=offline,
        profit_vs_offline=vs_offline,
        competitive_ratio=competitive,
    )
