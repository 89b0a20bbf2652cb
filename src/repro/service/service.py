"""The long-lived admission service: request/response over a session.

:class:`AdmissionService` turns the :class:`~repro.session.
AdmissionSession` kernel into a *server-shaped* object: events arrive
as requests from outside the process (stdin, a socket, a test driver),
every applied event is first written to an append-only binary
**admission journal** (:class:`~repro.io.JournalWriter`), and a killed
service **warm-restarts** from that journal — replaying the journaled
events into a fresh session reconstructs the exact ledger/metrics
state, so resuming and finishing a trace produces metrics identical to
an uninterrupted run (timing fields aside; replay decisions are
deterministic).

Every event — a request, a ``feed`` batch, a journal tail on restart,
the rest of the trace — enters as :class:`~repro.online.events.
EventView` columns through one routine that validates the batch in
O(batch), journals it, then applies it; a rejected batch changes
nothing.

Request/response API (JSON-safe dicts, see :meth:`AdmissionService.
handle`):

========  ============================================================
op        meaning
========  ============================================================
admit     an arrival: ``{"op": "admit", "demand": 3, "time": 1.5}``
release   a departure: ``{"op": "release", "demand": 3, "time": 9.0}``
tick      a clock edge (batching policies may flush)
submit    a raw trace-schema event: ``{"op": "submit", "event": {...}}``
feed      a batch of raw events: ``{"op": "feed", "events": [...]}`` —
          one validation sweep, journal commit window and batched
          decision pass over the batch; a bad record rejects it whole
query     one demand's admission status
stats     live counters (events, accepted, profit, utilization, ...),
          the fast-path counters, the transport's ``server`` section
          (same keys on every transport; nulls outside the async
          server), the live dual upper bound, and the metrics registry
          (Prometheus text is served on ``--metrics-port``)
snapshot  the currently-admitted set as a solution document
close     final flush + verify; responds with the full metrics record
trace     the flight-recorder ring as Chrome ``trace_event`` JSON
          (``"last"`` caps the span count)
explain   one demand's decision provenance:
          ``{"op": "explain", "demand": 3}``
========  ============================================================

Event responses report two watermarks when journaling: ``seq`` (this
event's sequence number — *accepted*) and ``commit_seq`` (the last
sequence the journal has flushed to the OS, fsynced under ``--sync`` —
*durable*).  With the default ``sync_window=1`` they always coincide;
wider group-commit windows trade a bounded acknowledgement lag for
amortized durability cost.

**Checkpoints** (``checkpoint_every=N``) periodically append the full
serialized session state to the journal, so :meth:`resume` restores the
last checkpoint and replays only the tail — restart cost proportional
to the post-checkpoint suffix, not total history.  :meth:`compact`
rewrites a journal as header + one checkpoint.  A JSON-lines journal
from an earlier writer is read, and rewritten that way as binary by
:meth:`resume` or :meth:`compact`.  Journals written with a
``shards``/``shard_by`` header (the retired sharded backend) resume
onto the single ledger: that backend's checkpoints stored only the
coordinator, which is exactly this service's ledger state.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from ..io import (
    JournalWriter,
    _events_v1,
    _fsync_dir,
    parse_demand_id,
    parse_event_time,
    scan_journal,
    solution_to_dict,
    trace_from_dict,
    trace_to_columns,
)
from ..obs import tracing as _tracing
from ..obs.explain import explain_demand
from ..obs.metrics import MetricsRegistry
from ..online.events import (ARRIVAL, DEPARTURE, NO_DEMAND, TICK,
                              EventTrace, EventView, lifecycle_error)
from ..online.policies import make_policy
from ..session.kernel import (AdmissionSession, Decision, ReplayResult,
                              certificate_of)

__all__ = ["AdmissionService"]


#: How a checkpoint numbers the edges of its per-edge vectors (the
#: ledger's ``load``, the dual-gated policy's ``peak`` and
#: ``snapshots``): by the conflict index's edge id, which ranks edge
#: keys in sorted order.  Checkpoints without the field number edges in
#: first-appearance order over the instances' route sets.
EDGE_ORDER = "key"

#: Events per :meth:`AdmissionService._intake` call of ``run_remaining``.
REMAINING_BATCH = 256

#: How the service words each :func:`~repro.online.events.lifecycle_error`
#: rule (``d`` the offending event's demand, ``m`` the population).
_INTAKE_ERRORS = {"unknown": "unknown demand {d} (population has {m})",
                  "arrived": "demand {d} already arrived",
                  "early": "demand {d} departs before arriving",
                  "departed": "demand {d} already departed"}


def _legacy_edge_ids(ledger) -> np.ndarray:
    """``ids[k]`` = the edge id, in key order, of the edge a checkpoint
    without ``edge_order`` stored at position ``k``: that older
    numbering interned each instance's ``frozenset`` of global edges in
    instance order, first appearance first."""
    problem = ledger.problem
    legacy: dict = {}
    for inst in problem.instances():
        # repro: noqa[DET001] -- the legacy numbering *is* this set
        # iteration order (deterministic: keys are tuples of ints).
        for edge in frozenset(problem.global_edges_of(inst)):
            legacy.setdefault(edge, len(legacy))
    edge_id = {key: k for k, key in enumerate(ledger.index._edge_keys)}
    return np.asarray([edge_id[key] for key in legacy], dtype=np.int64)


def _rekey_legacy_checkpoint(state: dict, ledger) -> dict:
    """``state`` with its per-edge vectors moved from the legacy edge
    numbering to key order (a copy; ``state`` is not modified)."""
    ids = _legacy_edge_ids(ledger)

    def rekey(vector: list) -> list:
        if len(vector) != len(ids):
            raise ValueError(
                f"checkpoint carries {len(vector)} edge values, the "
                f"problem has {len(ids)} edges")
        out = np.empty(len(ids), dtype=np.float64)
        out[ids] = vector
        return out.tolist()

    state = dict(state, ledger=dict(state["ledger"]),
                 policy=dict(state["policy"]), edge_order=EDGE_ORDER)
    state["ledger"]["load"] = rekey(state["ledger"]["load"])
    policy = state["policy"]
    if "peak" in policy:
        policy["peak"] = rekey(policy["peak"])
    if "snapshots" in policy:
        policy["snapshots"] = [rekey(v) for v in policy["snapshots"]]
    return state


def _header_settings(header: dict) -> tuple[str, dict, int]:
    """A journal header's ``(policy, params, checkpoint_every)``;
    ``ValueError`` naming the field when one is missing or mistyped."""
    policy = header.get("policy")
    if not isinstance(policy, str):
        raise ValueError(f"'policy' must be a policy name, got {policy!r}")
    params = header.get("params") or {}
    if not isinstance(params, dict):
        raise ValueError(f"'params' must be an object, got {params!r}")
    every = header.get("checkpoint_every", 0)
    if isinstance(every, bool) or not isinstance(every, int):
        raise ValueError(f"'checkpoint_every' must be an integer, got "
                         f"{every!r}")
    return policy, params, every


class AdmissionService:
    """A journaled, resumable admission session behind a request API.

    Parameters
    ----------
    trace:
        The :class:`~repro.online.events.EventTrace` whose frozen demand
        population the service admits over.  The service does *not*
        consume the trace's events — they arrive as requests — but the
        population, and the provenance echoed into results, come from
        here (and ``resume`` finishes a partially-served trace's
        remaining events from it).
    policy:
        Registry policy name; ``params`` are its constructor keywords.
    journal_path:
        Write-ahead journal location; ``None`` disables journaling
        (no warm restart, useful for benchmarks).
    sync:
        ``fsync`` the journal at every commit (power-loss durability;
        plain flushing already survives a process kill).
    sync_window / sync_interval_ms:
        Group-commit window: commit every N buffered events and/or
        whenever the oldest buffered event is T ms old.  The default
        window of 1 commits per record.
    checkpoint_every:
        Append a state checkpoint to the journal every N applied
        events (0 disables).  The cadence travels in the journal
        header so a resumed service keeps checkpointing.
    """

    def __init__(self, trace: EventTrace, policy: str = "greedy-threshold",
                 params: dict | None = None, *,
                 journal_path: str | None = None,
                 sync: bool = False,
                 sync_window: int = 1,
                 sync_interval_ms: float | None = None,
                 checkpoint_every: int = 0):
        self.trace = trace
        self.policy_name = policy
        self.params = dict(params or {})
        self.checkpoint_every = int(checkpoint_every)
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.session = AdmissionSession(
            trace.problem, make_policy(policy, **self.params),
            trace_meta=trace.meta)
        #: Events applied so far (== journal event count when journaling).
        self.position = 0
        # Stream-validity bookkeeping for lifecycle_error, the rules
        # EventTrace checks too: requests come from outside the process,
        # so the service (not the kernel) is the layer that must reject
        # duplicate arrivals and departures of absent demands with an
        # error *response* instead of a half-applied event.
        self._arrived: set[int] = set()
        self._departed: set[int] = set()
        self._last_time = 0.0
        self._next_checkpoint = self.checkpoint_every or 0
        self.result: ReplayResult | None = None
        #: The service's metrics home (``stats`` op, --metrics-port).
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "repro_requests_total", "requests handled by this process")
        self._req_latency = self.registry.histogram(
            "repro_request_latency_us",
            "request handling latency (microseconds)", timing=True)
        # The session's own decision-latency histogram: the stats op and
        # the scrape read the buckets ReplayMetrics' p50/p99 come from.
        self.registry.register(self.session.latency)
        #: A hosting server (the async front door) sets this to its
        #: ``server_stats`` so every transport's ``stats`` op carries
        #: the same ``server`` section; ``None`` yields the null shape.
        self.server_stats_provider = None
        #: Whether :meth:`resume` rewrote a JSON-lines journal as binary.
        self.upgraded = False
        self.journal: JournalWriter | None = None
        if journal_path is not None:
            self.journal = JournalWriter(
                journal_path, self._header(), sync=sync,
                sync_window=sync_window, sync_interval_ms=sync_interval_ms,
            )

    def _header(self) -> dict:
        """The self-contained journal header (rebuilds this service);
        the trace goes in as NumPy columns, which the journal writes as
        raw arrays."""
        return {
            "policy": self.policy_name,
            "params": dict(self.params),
            "checkpoint_every": self.checkpoint_every,
            "trace": trace_to_columns(self.trace),
        }

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def _intake(self, events: EventView, *, decide: bool = False,
                indexed: bool = False) -> Decision | None:
        """The one way events enter the session: check the batch against
        the live sets (:func:`~repro.online.events.lifecycle_error`; a
        bad event rejects it whole, named ``events[i]`` when
        ``indexed``), journal it, apply it with ``feed_many`` — or, with
        ``decide=True``, its one event with ``submit``, returning its
        :class:`~repro.session.kernel.Decision` — and advance the
        stream."""
        session = self.session
        if session.closed:
            raise RuntimeError("session is closed")
        m = self.trace.problem.num_demands
        hit = lifecycle_error(events, m, self._arrived, self._departed)
        if hit is not None:
            i, rule = hit
            error = _INTAKE_ERRORS[rule].format(d=int(events.demand[i]), m=m)
            raise ValueError(f"events[{i}]: {error}" if indexed else error)
        if self.journal is not None:
            self.journal.append_many(events)
        decision = None
        if decide:
            decision = session.submit(events[0])
        else:
            session.feed_many(events)
        kl, dl = events.kind.tolist(), events.demand.tolist()
        self._arrived.update(d for k, d in zip(kl, dl) if k == ARRIVAL)
        self._departed.update(d for k, d in zip(kl, dl) if k == DEPARTURE)
        # max() keeps its first argument against a NaN time.
        self._last_time = max([self._last_time, *events.time.tolist()])
        self.position += len(events)
        self._maybe_checkpoint()
        return decision

    def submit_event(self, ev) -> Decision:
        """Validate, journal and apply one event; returns its decision."""
        return self._intake(EventView.of((ev,)), decide=True)

    def feed_events(self, events) -> dict:
        """Validate, journal and apply a batch of events.

        The batched hot path behind the ``feed`` op (which decodes the
        request's records straight into an
        :class:`~repro.online.events.EventView`; event objects are
        converted once): one validation sweep, one journal commit window
        and one ``feed_many`` call amortized over the batch; a bad event
        rejects the whole batch, named ``events[i]``.  Returns the
        response payload: events applied, admissions the batch produced,
        stream position, and the journal watermarks when journaling.
        """
        events = EventView.of(events)
        adm0 = len(self.session.ledger.admission_log)
        self._intake(events, indexed=True)
        return {
            "applied": len(events),
            "accepted": len(self.session.ledger.admission_log) - adm0,
            "position": self.position,
            **self._watermarks(),
        }

    def _watermarks(self) -> dict:
        """The journal's ``seq``/``commit_seq`` (empty unjournaled)."""
        j = self.journal
        return {} if j is None else {"seq": j.seq, "commit_seq": j.commit_seq}

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        if (self.journal is not None and self.checkpoint_every
                and self.position >= self._next_checkpoint):
            self.checkpoint()

    def checkpoint(self) -> int:
        """Append a state checkpoint to the journal (forces a commit).

        A resume restores the latest checkpoint and replays only the
        events after it.  Returns the stream position the checkpoint
        covers.
        """
        if self.journal is None:
            raise RuntimeError("checkpointing requires a journal")
        self.journal.checkpoint(self.checkpoint_state())
        self._next_checkpoint = self.position + (self.checkpoint_every or 0)
        return self.position

    def checkpoint_state(self) -> dict:
        """The full mutable session state as a JSON-safe dict.

        Bit-exact by construction: the ledger stores its float state
        verbatim and the policy exports everything its decisions depend
        on, so restore + tail replay equals uninterrupted replay (the
        warm-restart equivalence tests quantify this over every policy
        and kill point).
        """
        return {
            "position": self.position,
            "last_time": self._last_time,
            "arrived": sorted(self._arrived),
            "departed": sorted(self._departed),
            "counters": self.session.export_counters(),
            "edge_order": EDGE_ORDER,
            "ledger": self.session.ledger.export_state(),
            "policy": self.session.policy.export_state(),
        }

    def _restore_state(self, state: dict) -> None:
        """Reset this freshly-built service to a checkpoint state."""
        if state.get("edge_order") != EDGE_ORDER:
            state = _rekey_legacy_checkpoint(state, self.session.ledger)
        self.position = int(state["position"])
        self._last_time = float(state["last_time"])
        self._arrived = {int(d) for d in state["arrived"]}
        self._departed = {int(d) for d in state["departed"]}
        self.session.restore_counters(state["counters"])
        self.session.ledger.restore_state(state["ledger"])
        self.session.policy.restore_state(state["policy"])
        self._next_checkpoint = self.position + (self.checkpoint_every or 0)

    # ------------------------------------------------------------------
    # The request/response API
    # ------------------------------------------------------------------

    def _event_of(self, req: dict) -> EventView:
        """A one-event request as a one-row view."""
        if req["op"] == "submit":
            return EventView(*_events_v1([req["event"]], lambda i: "event"))
        kind = {"admit": ARRIVAL, "release": DEPARTURE}.get(req["op"], TICK)
        time = parse_event_time(req.get("time", self._last_time))
        demand = NO_DEMAND if kind == TICK else parse_demand_id(req["demand"])
        return EventView((kind,), (time,), (demand,))

    def handle(self, req: dict) -> dict:
        """Serve one request dict; always returns a response dict.

        Domain errors (unknown demands, duplicate arrivals, bad ops,
        submitting after close) come back as ``{"ok": false, "error":
        ...}`` responses — the service never half-applies a request.

        A request may carry an ``id`` (any JSON value); the response
        echoes it verbatim — success or error — so pipelined clients
        can match responses to requests out of order.
        """
        self._requests.inc()
        if _tracing.RECORDER.enabled:
            t0 = time.perf_counter()
            resp = self._handle_op(req)
            dt = time.perf_counter() - t0
            self._req_latency.observe(dt * 1e6)
            _tracing.record_complete("service.handle", t0, dt,
                                     {"op": req.get("op")})
        else:
            resp = self._handle_op(req)
        if "id" in req:
            resp["id"] = req["id"]
        return resp

    def _handle_op(self, req: dict) -> dict:
        op = req.get("op")
        try:
            if op in ("submit", "admit", "release", "tick"):
                decision = self._intake(self._event_of(req), decide=True)
                return {"ok": True, "op": op,
                        "decision": decision.to_dict(), **self._watermarks()}
            if op == "feed":
                records = req.get("events")
                if not isinstance(records, list):
                    raise ValueError('op "feed" needs an "events" list')
                return {"ok": True, "op": op, **self.feed_events(
                    EventView(*_events_v1(records)))}
            if op == "query":
                return {"ok": True, "op": op,
                        **self.query(parse_demand_id(req["demand"]))}
            if op == "stats":
                return {"ok": True, "op": op, "stats": self.stats()}
            if op == "snapshot":
                return {"ok": True, "op": op,
                        "solution": solution_to_dict(self.session.solution())}
            if op == "close":
                result = self.close(verify=bool(req.get("verify", True)))
                return {"ok": True, "op": op,
                        "metrics": result.metrics.to_dict(),
                        "policy_stats": result.policy_stats}
            if op == "trace":
                last = req.get("last")
                events = _tracing.RECORDER.events(
                    None if last is None else int(last))
                return {"ok": True, "op": op, "spans": len(events),
                        "trace": _tracing.chrome_trace(events)}
            if op == "explain":
                return {"ok": True, "op": op,
                        "explain": self.explain(
                            parse_demand_id(req["demand"]))}
            raise ValueError(
                f"unknown op {op!r}; want admit/release/tick/submit/feed/"
                "query/stats/snapshot/close/trace/explain"
            )
        except (KeyError, ValueError, TypeError, RuntimeError,
                OverflowError) as exc:
            return {"ok": False, "op": op, "error": str(exc)}

    def query(self, demand_id: int) -> dict:
        """One demand's admission status on the authoritative ledger."""
        ledger = self.session.ledger
        if not (0 <= demand_id < self.trace.problem.num_demands):
            raise ValueError(f"unknown demand {demand_id}")
        return {
            "demand": demand_id,
            "admitted": ledger.is_admitted(demand_id),
            "instance": ledger.admitted_instance(demand_id),
            "was_admitted": ledger.was_admitted(demand_id),
            "was_evicted": ledger.was_evicted(demand_id),
        }

    def explain(self, demand_id: int) -> dict:
        """Decision provenance for one demand (a pure query — see
        :func:`~repro.obs.explain.explain_demand`)."""
        return explain_demand(
            self.trace.problem, self.session.ledger, self.session.policy,
            demand_id, arrived=self._arrived, departed=self._departed)

    def _sync_metrics(self, snap: dict | None = None) -> None:
        """Derive the registry's gauges from the live session state
        (``snap``, a :meth:`AdmissionSession.snapshot` of it, when the
        caller already holds one).

        Gauges are *recomputed* from the ledger/session counters rather
        than incremented on the hot path, so they cost nothing per
        event — and a warm restart is continuous by construction: the
        restored session state carries the pre-kill cumulative counts,
        and the first sync after :meth:`resume` republishes them.
        """
        if snap is None:
            snap = self.session.snapshot()
        reg = self.registry
        for key, name in (
            ("events", "repro_events_total"),
            ("arrivals", "repro_arrivals_total"),
            ("accepted", "repro_admits_total"),
            ("evictions", "repro_evictions_total"),
        ):
            reg.gauge(name).set(snap[key])
        reg.gauge("repro_rejects_total").set(
            snap["arrivals"] - snap["accepted"])
        reg.gauge("repro_admitted").set(snap["num_admitted"])
        reg.gauge("repro_utilization").set(snap["utilization"])
        reg.gauge("repro_realized_profit").set(snap["realized_profit"])
        reg.gauge("repro_penalty_paid").set(snap["penalty_paid"])
        reg.gauge("repro_position").set(self.position)
        reg.gauge("repro_commit_lag").set(
            self.journal.seq - self.journal.commit_seq
            if self.journal is not None else 0)
        fp = self.session.fastpath_stats
        reg.gauge("repro_fastpath_runs_total").set(fp["runs"])
        reg.gauge("repro_fastpath_batched_events_total").set(
            fp["batched_events"])
        reg.gauge("repro_fastpath_scalar_fallbacks_total").set(
            fp["scalar_fallbacks"])
        reg.gauge("repro_fastpath_discarded_total").set(fp["discarded"])

    def _server_section(self) -> dict:
        """The transport block — real counters under the async front
        door, the same keys as nulls elsewhere (dashboards never
        special-case the transport)."""
        provider = self.server_stats_provider
        if provider is not None:
            return provider()
        return {
            "clients": None,
            "max_clients": None,
            "requests_total": None,
            "requests_per_client": None,
            "dispatch_queue_depth": None,
            "backpressured_clients": None,
            "overlimit_rejects": None,
            "commit_lag": (self.journal.seq - self.journal.commit_seq
                           if self.journal is not None else None),
        }

    def stats(self) -> dict:
        """Live counters, fast-path health and the metrics registry."""
        doc = self.session.snapshot()
        doc["position"] = self.position
        doc["policy"] = self.policy_name
        doc["journaled"] = self.journal is not None
        # Columnar fast-path health: whether the session engaged the
        # batch kernels, and how much of the stream they actually
        # vectorized (live counters, not checkpointed state).
        doc["fastpath"] = dict(self.session.fastpath_stats)
        # The policy's own counters (gated, evictions, plans pruned ...),
        # checkpointed with the policy, so they survive a resume.
        doc["policy_stats"] = dict(self.session.policy.stats)
        if self.journal is not None:
            doc["seq"] = self.journal.seq
            doc["commit_seq"] = self.journal.commit_seq
            doc["commit_lag"] = self.journal.seq - self.journal.commit_seq
        doc["server"] = self._server_section()
        # The live optimality headline: a price-carrying policy's dual
        # certificate is a pure read, so the gap to OPT≤ is available
        # mid-stream at every poll.
        cert = certificate_of(self.session.policy)
        doc["dual_upper_bound"] = cert["upper_bound"] if cert else None
        self._sync_metrics(doc)
        doc["metrics"] = self.registry.export()
        return doc

    def close(self, *, verify: bool = True) -> ReplayResult:
        """Final flush + verification; commits and closes the journal."""
        self.result = self.session.close(verify=verify)
        if self.journal is not None:
            self.journal.close()
        return self.result

    # ------------------------------------------------------------------
    # Warm restart
    # ------------------------------------------------------------------

    @classmethod
    def _rebuild(cls, journal_path: str):
        """Reconstruct a (journal-less) service from a journal.

        One streaming scan finds the last checkpoint and the event tail
        after it; the checkpoint is restored, the tail validated and
        replayed as one batch — cost proportional to the tail, not total
        history.  Raises ``ValueError`` when a tail record breaks the
        stream rules (e.g. a duplicate arrival).  Returns
        ``(service, good_bytes, fmt)`` so callers can reattach a writer
        or rewrite the file.
        """
        header, ckpt, tail, good_bytes, fmt = scan_journal(journal_path)
        try:
            trace = trace_from_dict(header.get("trace"))
            policy, params, every = _header_settings(header)
        except ValueError as exc:
            raise ValueError(f"corrupt journal {journal_path!r}: bad header "
                             f"record: {exc}") from None
        svc = cls(trace, policy, params, journal_path=None,
                  checkpoint_every=every)
        if ckpt is not None:
            svc._restore_state(ckpt)
        # The tail goes through the same checks as live requests, so a
        # record a live service would have refused fails the resume
        # instead of silently changing the rebuilt state.
        svc._intake(tail)
        # Republish the cumulative gauges from the restored state, so a
        # dashboard scraping right after a warm restart sees the
        # pre-kill admit/reject/evict totals, not zeros.
        svc._sync_metrics()
        return svc, good_bytes, fmt

    @classmethod
    def resume(cls, journal_path: str, *, sync: bool = False,
               sync_window: int = 1, sync_interval_ms: float | None = None,
               checkpoint_every: int | None = None) -> "AdmissionService":
        """Rebuild a service from its journal and reattach to it.

        The last checkpoint (if any) is restored and only the journaled
        events after it are re-applied (replay is deterministic, so the
        rebuilt ledger/metrics state is exactly the killed service's); a
        torn final journal record is dropped and the file truncated past
        it, and new events append to the same journal; a complete tail
        record that breaks the stream rules raises ``ValueError``.
        ``service.position`` tells how far the stream got.
        A JSON-lines journal is first rewritten as a binary header plus
        one checkpoint, as :meth:`compact` does, since the writer only
        appends binary; ``service.upgraded`` is then true.
        ``checkpoint_every=None`` keeps the cadence recorded in the
        journal header (which an upgrade keeps too).
        """
        if checkpoint_every is not None and checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        svc, good_bytes, fmt = cls._rebuild(journal_path)
        if fmt == "jsonl":
            good_bytes = svc._rewrite(journal_path)
            svc.upgraded = True
        if checkpoint_every is not None:
            svc.checkpoint_every = int(checkpoint_every)
        svc.journal = JournalWriter(
            journal_path, sync=sync, sync_window=sync_window,
            sync_interval_ms=sync_interval_ms,
            start_at=good_bytes, seq0=svc.position,
        )
        svc._next_checkpoint = svc.position + (svc.checkpoint_every or 0)
        return svc

    @classmethod
    def compact(cls, journal_path: str) -> dict:
        """Rewrite a journal as header + one checkpoint of its state.

        The journal is rebuilt (checkpoint + tail replay), its full
        state is re-serialized as a single checkpoint, and the file is
        atomically replaced (:meth:`_rewrite`) — resumes then restore
        in O(state) instead of replaying the whole history.  The result
        is binary, so compacting a JSON-lines journal upgrades it.  Safe
        on a journal whose writer was killed (the torn tail is dropped,
        exactly as resume would).  Returns ``{"position",
        "bytes_before", "bytes_after"}``.
        """
        svc, _good, _fmt = cls._rebuild(journal_path)
        bytes_before = os.path.getsize(journal_path)
        return {
            "position": svc.position,
            "bytes_before": bytes_before,
            "bytes_after": svc._rewrite(journal_path),
        }

    def _rewrite(self, path: str) -> int:
        """Atomically replace the journal at ``path`` by this service's
        header and one checkpoint of its state; returns the new size.

        The new journal is written to a fresh temp file beside ``path``
        and fsynced before :func:`os.replace` moves it into place, then
        the directory is fsynced: a crash leaves the old journal or the
        new one, never an empty file.  On failure the temp file goes.
        """
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".",
            suffix=".tmp")
        os.close(fd)
        try:
            with JournalWriter(tmp, self._header(), sync=True) as jw:
                jw.checkpoint(self.checkpoint_state())
            os.replace(tmp, path)
            _fsync_dir(directory)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return os.path.getsize(path)

    def run_remaining(self, *, verify: bool = True) -> ReplayResult:
        """Finish the trace: submit every not-yet-applied trace event.

        Valid when the service's request stream is (a prefix of) the
        trace's own event sequence — the ``repro serve``/``repro
        resume`` workflow — since ``position`` then indexes the first
        outstanding trace event.  Events go through :meth:`_intake` in
        :data:`REMAINING_BATCH`-event slices of the trace's columns.
        Returns the final :class:`~repro.session.kernel.ReplayResult`,
        which matches an uninterrupted replay of the whole trace exactly
        (timing fields aside).
        """
        remaining = self.trace.events[self.position:]
        for i in range(0, len(remaining), REMAINING_BATCH):
            self._intake(remaining[i:i + REMAINING_BATCH])
        return self.close(verify=verify)
