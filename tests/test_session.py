"""Tests for the AdmissionSession kernel (submit / snapshot / close)."""

from __future__ import annotations

import gc
import json
import tracemalloc

import pytest

from repro.online import (
    POLICY_NAMES,
    CapacityLedger,
    Tick,
    generate_trace,
    make_policy,
    poisson_trace,
    replay,
)
from repro.online.metrics import deterministic_metrics
from repro.session import AdmissionSession


def _policy(name):
    if name == "batch-resolve":
        return make_policy(name, solver="greedy", resolve_every=16)
    return make_policy(name)


class TestSubmitDecisions:
    def test_decisions_mirror_ledger_logs(self):
        tr = poisson_trace("line", events=120, seed=4, departure_prob=0.4)
        session = AdmissionSession(tr.problem, make_policy("dual-gated"),
                                   trace_meta=tr.meta)
        admitted, accepted_arrivals = [], 0
        for ev in tr.events:
            d = session.submit(ev)
            admitted.extend(d.admitted)
            if d.kind == "arrival" and d.accepted:
                accepted_arrivals += 1
            assert d.latency_s >= 0.0
            json.dumps(d.to_dict())  # JSON-safe for the service layer
        result = session.close()
        assert admitted == result.admission_log
        # Non-batching policy: every admission happens on its own arrival.
        assert accepted_arrivals == result.metrics.accepted

    def test_batch_flush_admissions_land_on_tick(self):
        tr = generate_trace("line", events=150, seed=6,
                            departure_prob=0.0, tick_every=10.0)
        policy = make_policy("batch-resolve", solver="greedy",
                             resolve_every=0)
        session = AdmissionSession(tr.problem, policy)
        tick_admissions = 0
        for ev in tr.events:
            d = session.submit(ev)
            if d.kind == "arrival":
                assert not d.accepted  # buffered, never inline
            elif d.kind == "tick":
                tick_admissions += len(d.admitted)
        result = session.close()
        # Everything accepted came from a tick flush or the final one.
        assert tick_admissions <= result.metrics.accepted
        assert result.metrics.accepted > 0

    def test_eviction_pairs_reported(self):
        tr = poisson_trace("line", events=250, seed=3, departure_prob=0.2,
                           rate=4.0)
        session = AdmissionSession(
            tr.problem, make_policy("preempt-density", factor=1.2)
        )
        evicted = []
        for ev in tr.events:
            evicted.extend(session.submit(ev).evicted)
        result = session.close()
        assert evicted == result.eviction_log

    def test_submit_after_close_raises(self):
        tr = poisson_trace("line", events=20, seed=1)
        session = AdmissionSession(tr.problem, make_policy("greedy-threshold"))
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(tr.events[0])
        with pytest.raises(RuntimeError, match="closed"):
            session.close()

    def test_unknown_event_type_rejected(self):
        tr = poisson_trace("line", events=20, seed=1)
        session = AdmissionSession(tr.problem, make_policy("greedy-threshold"))
        with pytest.raises(TypeError, match="unknown event"):
            session.submit(object())


class TestSnapshot:
    def test_snapshot_readable_mid_stream(self):
        tr = poisson_trace("line", events=100, seed=8, departure_prob=0.3)
        session = AdmissionSession(tr.problem, make_policy("greedy-threshold"))
        seen_events = 0
        for ev in tr.events[:40]:
            session.submit(ev)
            seen_events += 1
            snap = session.snapshot()
            assert snap["events"] == seen_events
            assert snap["num_admitted"] <= snap["accepted"]
            assert not snap["closed"]
            json.dumps(snap)
        sol = session.solution()
        assert len(sol.selected) == session.snapshot()["num_admitted"]
        result = session.close()
        assert session.snapshot()["closed"]
        assert result.metrics.accepted == session.snapshot()["accepted"]


@pytest.mark.parametrize("name", POLICY_NAMES)
@pytest.mark.parametrize("kind", ["tree", "line"])
def test_manual_session_equals_replay(name, kind):
    """Driving the kernel by hand is the replay — decisions, logs,
    metrics, certificate, everything deterministic."""
    tr = generate_trace(kind, events=150, seed=2, departure_prob=0.3)
    direct = replay(tr, _policy(name))
    session = AdmissionSession(tr.problem, _policy(name),
                               trace_meta=tr.meta)
    for ev in tr.events:
        session.submit(ev)
    manual = session.close()
    assert manual.admission_log == direct.admission_log
    assert manual.eviction_log == direct.eviction_log
    assert manual.policy_stats == direct.policy_stats
    assert deterministic_metrics(manual.metrics) == \
        deterministic_metrics(direct.metrics)
    assert sorted(i.instance_id for i in manual.final_solution.selected) \
        == sorted(i.instance_id for i in direct.final_solution.selected)


class TestDeltaBaseline:
    def test_over_ledger_reports_deltas(self):
        """A delta-mode session over a pre-admitted ledger counts only
        its own work (the boundary-broker construction)."""
        tr = poisson_trace("line", events=80, seed=5, departure_prob=0.0)
        ledger = CapacityLedger(tr.problem)
        pre = 0
        for ev in tr.events[:30]:
            if hasattr(ev, "demand_id") and \
                    ledger.try_admit(ev.demand_id) is not None:
                pre += 1
        assert pre > 0
        base_profit = ledger.realized_profit
        session = AdmissionSession.over_ledger(
            ledger, make_policy("greedy-threshold"), trace_meta=tr.meta
        )
        for ev in tr.events[30:]:
            session.submit(ev)
        result = session.close()
        assert result.metrics.accepted == len(ledger.admission_log) - pre
        assert result.metrics.realized_profit == pytest.approx(
            ledger.realized_profit - base_profit
        )
        # Delta sessions leave the final solution to the ledger's owner.
        assert result.final_solution is None
        assert len(result.admission_log) == result.metrics.accepted

    def test_tick_only_stream(self):
        tr = poisson_trace("line", events=20, seed=2)
        session = AdmissionSession(tr.problem, make_policy("greedy-threshold"))
        session.submit(Tick(1.0))
        result = session.close()
        assert result.metrics.ticks == 1
        assert result.metrics.arrivals == 0
        assert result.metrics.acceptance_ratio == 0.0



class TestBoundedMemory:
    @pytest.mark.parametrize("batched", [False, True])
    def test_retained_memory_flat_in_events(self, batched):
        """Nothing is kept per event: what a session retains after 200k
        events is within 64 KiB of what it held after 20k."""
        tr = poisson_trace("line", events=50, seed=0)
        session = AdmissionSession(tr.problem, make_policy("greedy-threshold"))
        ticks = [Tick(0.0)] * 1000

        def retained_after(rounds: int) -> int:
            for _ in range(rounds):
                if batched:
                    session.feed_many(ticks)
                else:
                    for ev in ticks:
                        session.feed(ev)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            before = retained_after(20)
            growth = retained_after(180) - before
        finally:
            tracemalloc.stop()
        assert session.events == 200_000
        assert growth < 64 * 1024
