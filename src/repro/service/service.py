"""The long-lived admission service: request/response over a session.

:class:`AdmissionService` turns the :class:`~repro.session.
AdmissionSession` kernel into a *server-shaped* object: events arrive
as requests from outside the process (stdin, a socket, a test driver),
every applied event is first written to an append-only **admission
journal** (:class:`~repro.io.JournalWriter` — JSON-lines or the compact
binary codec), and a killed service **warm-restarts** from that
journal — replaying the journaled events into a fresh session
reconstructs the exact ledger/metrics state, so resuming and finishing
a trace produces metrics identical to an uninterrupted run (timing
fields aside; replay decisions are deterministic).

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
          one decode/validate/journal-commit amortized over the batch
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
rewrites a journal as header + one checkpoint.  Journals written with a
``shards``/``shard_by`` header (the retired sharded backend) resume
onto the single ledger: that backend's checkpoints stored only the
coordinator, which is exactly this service's ledger state.
"""

from __future__ import annotations

import os
import time

from ..io import (
    JournalWriter,
    _fsync_dir,
    event_from_dict,
    parse_demand_id,
    parse_event_time,
    scan_journal,
    solution_to_dict,
    trace_from_dict,
    trace_to_dict,
)
from ..obs import tracing as _tracing
from ..obs.explain import explain_demand
from ..obs.metrics import MetricsRegistry
from ..online.events import Arrival, Departure, EventTrace, Tick
from ..online.policies import make_policy
from ..session.kernel import (AdmissionSession, Decision, ReplayResult,
                              certificate_of)

__all__ = ["AdmissionService"]


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
    fmt:
        Journal codec, ``"jsonl"`` (default) or ``"binary"``.
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
                 sync: bool = False, fmt: str = "jsonl",
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
        # Stream-validity bookkeeping, mirroring EventTrace's invariants:
        # requests come from outside the process, so the service (not the
        # kernel) is the layer that must reject duplicate arrivals and
        # departures of absent demands with an error *response* instead
        # of a half-applied event.
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
        #: A hosting server (the async front door) sets this to its
        #: ``server_stats`` so every transport's ``stats`` op carries
        #: the same ``server`` section; ``None`` yields the null shape.
        self.server_stats_provider = None
        self.journal: JournalWriter | None = None
        if journal_path is not None:
            self.journal = JournalWriter(
                journal_path, self._header(), sync=sync, fmt=fmt,
                sync_window=sync_window, sync_interval_ms=sync_interval_ms,
            )

    def _header(self) -> dict:
        """The self-contained journal header (rebuilds this service)."""
        return {
            "policy": self.policy_name,
            "params": dict(self.params),
            "checkpoint_every": self.checkpoint_every,
            "trace": trace_to_dict(self.trace),
        }

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def _validate(self, ev, arrived: set | None = None,
                  departed: set | None = None) -> None:
        """Reject an invalid event against the given stream state
        (defaults to the live sets; the batched path validates against
        running copies so a bad batch is rejected whole)."""
        arrived = self._arrived if arrived is None else arrived
        departed = self._departed if departed is None else departed
        m = self.trace.problem.num_demands
        if isinstance(ev, (Arrival, Departure)):
            if not (0 <= ev.demand_id < m):
                raise ValueError(
                    f"unknown demand {ev.demand_id} (population has {m})"
                )
        if isinstance(ev, Arrival):
            if ev.demand_id in arrived:
                raise ValueError(f"demand {ev.demand_id} already arrived")
        elif isinstance(ev, Departure):
            if ev.demand_id not in arrived:
                raise ValueError(
                    f"demand {ev.demand_id} departs before arriving"
                )
            if ev.demand_id in departed:
                raise ValueError(f"demand {ev.demand_id} already departed")

    def submit_event(self, ev) -> Decision:
        """Validate, journal (write-ahead), then apply one event."""
        self._validate(ev)
        if self.journal is not None:
            self.journal.append(ev)
        decision = self._apply(ev)
        self._maybe_checkpoint()
        return decision

    def feed_events(self, events) -> dict:
        """Validate, journal and apply a whole batch of raw events.

        The batched hot path: one request decode, one validation sweep,
        one journal commit window and one dispatch loop amortized over
        the batch.  The **whole batch is validated before anything is
        journaled or applied**, so a bad record rejects the request
        without half-applying a prefix.  Returns the response payload
        (events applied, admissions the batch produced, stream
        position, and the journal watermarks when journaling).
        """
        if self.session.closed:
            raise RuntimeError("session is closed")
        evs = [ev if isinstance(ev, (Arrival, Departure, Tick))
               else event_from_dict(ev) for ev in events]
        arrived, departed = set(self._arrived), set(self._departed)
        for ev in evs:
            self._validate(ev, arrived, departed)
            if isinstance(ev, Arrival):
                arrived.add(ev.demand_id)
            elif isinstance(ev, Departure):
                departed.add(ev.demand_id)
        journal = self.journal
        if journal is not None:
            for ev in evs:
                journal.append(ev)
        adm0 = len(self.session.ledger.admission_log)
        # No Decision assembly: feed_many engages the columnar
        # batch-decision fast path when the policy advertises a kernel
        # (decisions and journal bytes are identical either way — the
        # journal was written above, before any state changed).
        self.session.feed_many(evs)
        arrived, departed = self._arrived, self._departed
        last = self._last_time
        for ev in evs:
            if isinstance(ev, Arrival):
                arrived.add(ev.demand_id)
            elif isinstance(ev, Departure):
                departed.add(ev.demand_id)
            if ev.time > last:
                last = ev.time
        self._last_time = last
        self.position += len(evs)
        self._maybe_checkpoint()
        doc = {
            "applied": len(evs),
            "accepted": len(self.session.ledger.admission_log) - adm0,
            "position": self.position,
        }
        if journal is not None:
            doc["seq"] = journal.seq
            doc["commit_seq"] = journal.commit_seq
        return doc

    def _apply(self, ev) -> Decision:
        """Apply an already-journaled (or recovered) event."""
        decision = self.session.submit(ev)
        if isinstance(ev, Arrival):
            self._arrived.add(ev.demand_id)
        elif isinstance(ev, Departure):
            self._departed.add(ev.demand_id)
        self._last_time = max(self._last_time, ev.time)
        self.position += 1
        return decision

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
            "ledger": self.session.ledger.export_state(),
            "policy": self.session.policy.export_state(),
        }

    def _restore_state(self, state: dict) -> None:
        """Reset this freshly-built service to a checkpoint state."""
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

    def _event_of(self, req: dict):
        op = req["op"]
        if op == "submit":
            return event_from_dict(req["event"])
        time = parse_event_time(req.get("time", self._last_time))
        if op == "admit":
            return Arrival(time, parse_demand_id(req["demand"]))
        if op == "release":
            return Departure(time, parse_demand_id(req["demand"]))
        if op == "tick":
            return Tick(time)
        raise ValueError(f"op {op!r} carries no event")

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
                decision = self.submit_event(self._event_of(req))
                resp = {"ok": True, "op": op,
                        "decision": decision.to_dict()}
                if self.journal is not None:
                    resp["seq"] = self.journal.seq
                    resp["commit_seq"] = self.journal.commit_seq
                return resp
            if op == "feed":
                events = req.get("events")
                if not isinstance(events, list):
                    raise ValueError('op "feed" needs an "events" list')
                return {"ok": True, "op": op, **self.feed_events(events)}
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
        except (KeyError, ValueError, TypeError, RuntimeError) as exc:
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

    def _sync_metrics(self) -> None:
        """Derive the registry's gauges from the live session state.

        Gauges are *recomputed* from the ledger/session counters rather
        than incremented on the hot path, so they cost nothing per
        event — and a warm restart is continuous by construction: the
        restored session state carries the pre-kill cumulative counts,
        and the first sync after :meth:`resume` republishes them.
        """
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
        self._sync_metrics()
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
    def _rebuild(cls, journal_path: str, *,
                 checkpoint_every: int | None = None):
        """Reconstruct a (journal-less) service from a journal.

        One streaming scan finds the last checkpoint and the event tail
        after it; the checkpoint is restored, the tail replayed — cost
        proportional to the tail, not total history.  Returns
        ``(service, good_bytes, fmt)`` so callers can reattach a writer
        or rewrite the file.
        """
        header, ckpt, tail, good_bytes, fmt = scan_journal(journal_path)
        trace = trace_from_dict(header["trace"])
        svc = cls(
            trace, header["policy"], header.get("params") or {},
            journal_path=None,
            checkpoint_every=(int(header.get("checkpoint_every", 0))
                              if checkpoint_every is None
                              else checkpoint_every),
        )
        if ckpt is not None:
            svc._restore_state(ckpt)
        for ev in tail:
            svc._apply(ev)
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
        it, and new events append to the same journal in its existing
        codec.  ``service.position`` tells how far the stream got.
        ``checkpoint_every=None`` keeps the cadence recorded in the
        journal header.
        """
        svc, good_bytes, _fmt = cls._rebuild(
            journal_path, checkpoint_every=checkpoint_every)
        svc.journal = JournalWriter(
            journal_path, sync=sync, sync_window=sync_window,
            sync_interval_ms=sync_interval_ms,
            start_at=good_bytes, seq0=svc.position,
        )
        svc._next_checkpoint = svc.position + (svc.checkpoint_every or 0)
        return svc

    @classmethod
    def compact(cls, journal_path: str, *,
                fmt: str | None = None) -> dict:
        """Rewrite a journal as header + one checkpoint of its state.

        The journal is rebuilt (checkpoint + tail replay), its full
        state is re-serialized as a single checkpoint, and the file is
        atomically replaced — resumes then restore in O(state) instead
        of replaying the whole history.  ``fmt`` converts the codec
        (``None`` keeps the existing one).  Safe on a journal whose
        writer was killed (the torn tail is dropped, exactly as resume
        would).  Returns ``{"position", "bytes_before", "bytes_after",
        "format"}``.
        """
        svc, _good, cur_fmt = cls._rebuild(journal_path)
        out_fmt = cur_fmt if fmt is None else fmt
        bytes_before = os.path.getsize(journal_path)
        directory = os.path.dirname(os.path.abspath(journal_path))
        tmp = journal_path + ".compact.tmp"
        try:
            with JournalWriter(tmp, svc._header(), fmt=out_fmt) as jw:
                jw.checkpoint(svc.checkpoint_state())
            os.replace(tmp, journal_path)
            _fsync_dir(directory)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return {
            "position": svc.position,
            "bytes_before": bytes_before,
            "bytes_after": os.path.getsize(journal_path),
            "format": out_fmt,
        }

    def run_remaining(self, *, verify: bool = True,
                      batch: int = 256) -> ReplayResult:
        """Finish the trace: submit every not-yet-applied trace event.

        Valid when the service's request stream is (a prefix of) the
        trace's own event sequence — the ``repro serve``/``repro
        resume`` workflow — since ``position`` then indexes the first
        outstanding trace event.  Events go through the batched
        :meth:`feed_events` path in ``batch``-sized chunks.  Returns
        the final :class:`~repro.session.kernel.ReplayResult`, which
        matches an uninterrupted replay of the whole trace exactly
        (timing fields aside).
        """
        remaining = self.trace.events[self.position:]
        for i in range(0, len(remaining), max(batch, 1)):
            self.feed_events(remaining[i:i + max(batch, 1)])
        return self.close(verify=verify)
