"""Tests for the observability layer (``repro.obs``).

The load-bearing guarantees:

* the flight-recorder ring is bounded — when it wraps, the newest N
  spans survive, oldest first;
* spans nest and are recorded on *every* exit path, exceptions
  included (the exception type lands in the span's args), and the
  disabled ``span()`` is a shared no-op singleton;
* Chrome ``trace_event`` dumps carry microsecond complete events with
  per-shard ``tid`` tracks;
* the deterministic metrics export is byte-stable across two identical
  replays (monotonic-time histograms excluded), and the Prometheus
  text rendering round-trips over the HTTP scrape endpoint;
* the ``trace`` / ``explain`` wire ops work against a live service and
  the span dump covers every instrumented layer (session kernel,
  ledger, journal, service, async dispatch);
* the ``stats`` ``server`` section has the same key set on every
  transport;
* inline and forked two-phase sharded runs record the same span-name
  sequence (per-shard rings merged at the final barrier in shard
  order);
* ``repro resume`` republishes pre-kill cumulative gauges, not
  since-restart ones.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import urllib.request

import pytest

from repro.io import event_to_dict
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.dashboard import render_dashboard, request_once, run_top
from repro.obs.metrics import MetricsRegistry, start_metrics_server
from repro.obs.tracing import (
    FlightRecorder,
    RECORDER,
    chrome_trace,
    record_complete,
    span,
)
from repro.online import generate_trace
from repro.service import AdmissionService, AsyncLineServer


@pytest.fixture(autouse=True)
def reset_recorder():
    """Every test starts and ends with a disabled, empty recorder."""
    tracing.disable()
    RECORDER.clear()
    yield
    tracing.disable()
    RECORDER.clear()


@pytest.fixture(scope="module")
def line_trace():
    return generate_trace("line", events=200, process="poisson", seed=3,
                          departure_prob=0.3)


@pytest.fixture(scope="module")
def tree_trace():
    return generate_trace(
        "tree", events=240, process="poisson", seed=17, departure_prob=0.35,
        workload={"n": 48, "boundary_fraction": 0.1, "parts": 2})


def _feed_all(svc: AdmissionService, trace, batch: int = 64) -> None:
    dicts = [event_to_dict(ev) for ev in trace.events]
    for i in range(0, len(dicts), batch):
        resp = svc.handle({"op": "feed", "events": dicts[i:i + batch]})
        assert resp["ok"], resp


def _start(service, **kw):
    """Run an AsyncLineServer on a thread; return (server, thread, box)."""
    box: dict = {}
    ready = threading.Event()
    server = AsyncLineServer(
        service, announce=lambda a: (box.update(addr=a), ready.set()), **kw)
    thread = threading.Thread(
        target=lambda: box.update(rv=server.serve_forever()), daemon=True)
    thread.start()
    assert ready.wait(10), "server never announced"
    return server, thread, box


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_wraps_keeping_newest(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.record(f"s{i}", i, 1, None)
        assert rec.total == 20
        assert rec.dropped == 12
        assert [e[0] for e in rec.events()] == [f"s{i}" for i in range(12, 20)]
        assert [e[0] for e in rec.events(last=3)] == ["s17", "s18", "s19"]

    def test_spans_nest_inner_recorded_first(self):
        tracing.enable()
        with span("outer", layer="a"):
            with span("inner", k=1):
                pass
        names = [e[0] for e in RECORDER.events()]
        assert names == ["inner", "outer"]
        inner = RECORDER.events()[0]
        assert inner[3] == {"k": 1}

    def test_span_recorded_on_exception_exit(self):
        tracing.enable()
        with pytest.raises(RuntimeError):
            with span("doomed", demand=7):
                raise RuntimeError("boom")
        (name, _ts, _dur, args), = RECORDER.events()
        assert name == "doomed"
        assert args["error"] == "RuntimeError"
        assert args["demand"] == 7

    def test_disabled_span_is_shared_noop(self):
        assert not tracing.is_enabled()
        assert span("a") is span("b", k=1)
        with span("ignored"):
            pass
        assert RECORDER.total == 0

    def test_record_complete_converts_seconds_to_ns(self):
        tracing.enable()
        record_complete("x", 1.5, 0.25, {"demand": 0})
        (_n, ts_ns, dur_ns, _a), = RECORDER.events()
        assert ts_ns == int(1.5e9)
        assert dur_ns == int(0.25e9)

    def test_chrome_trace_format_and_shard_tracks(self):
        tracing.enable()
        RECORDER.record("shard.phaseA", 2_000, 1_000, {"shard": 1})
        RECORDER.record("session.decide", 3_000, 500, None)
        doc = chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        first, second = doc["traceEvents"]
        assert first == {"name": "shard.phaseA", "cat": "shard", "ph": "X",
                         "ts": 2.0, "dur": 1.0, "pid": first["pid"],
                         "tid": 2, "args": {"shard": 1}}
        assert second["tid"] == 0
        assert second["cat"] == "session"

    def test_enable_resize_clears_ring(self):
        tracing.enable(capacity=4)
        for i in range(10):
            RECORDER.record(f"s{i}", i, 1, None)
        tracing.enable(capacity=16)
        assert RECORDER.capacity == 16
        assert RECORDER.total == 0


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetrics:
    def test_instrument_exports(self):
        reg = MetricsRegistry()
        reg.counter("c", "help c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        h = reg.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0, 0.1):
            h.observe(v)
        out = reg.export()
        assert list(out) == ["c", "g", "h"]  # sorted names
        assert out["c"] == {"kind": "counter", "value": 5}
        assert out["g"] == {"kind": "gauge", "value": 2.5}
        assert out["h"]["buckets"] == [[1.0, 2], [10.0, 3]]
        assert out["h"]["count"] == 4
        assert out["h"]["sum"] == pytest.approx(55.6)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_timing_histograms_excluded_from_deterministic_view(self):
        reg = MetricsRegistry()
        reg.histogram("lat", timing=True).observe(3.0)
        reg.gauge("g").set(1)
        assert "lat" in reg.export()
        assert list(reg.export(include_timing=False)) == ["g"]

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("req", "requests").inc(3)
        reg.gauge("none_gauge").set(None)
        reg.histogram("h", buckets=(1.0, 10.0)).observe(5.0)
        text = reg.render_prometheus()
        assert "# HELP req requests" in text
        assert "# TYPE req counter" in text
        assert "req 3" in text
        assert "none_gauge NaN" in text
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="10"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 5" in text
        assert "h_count 1" in text

    def test_export_byte_stable_across_identical_replays(self, line_trace):
        tracing.enable()  # latency histogram observes wall time
        exports = []
        for _ in range(2):
            svc = AdmissionService(line_trace, "greedy-threshold")
            _feed_all(svc, line_trace)
            svc.stats()  # syncs the gauges
            exports.append(json.dumps(
                svc.registry.export(include_timing=False), sort_keys=False))
        assert exports[0] == exports[1]

    def test_http_scrape_endpoint(self):
        reg = MetricsRegistry()
        reg.gauge("repro_up").set(1)
        scraped = []
        server = start_metrics_server(reg, port=0,
                                      on_scrape=lambda: scraped.append(1))
        try:
            host, port = server.server_address[:2]
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10).read()
            assert b"repro_up 1" in body
            assert scraped == [1]
        finally:
            server.shutdown()
            server.server_close()

    def test_default_buckets_are_sorted(self):
        edges = obs_metrics.DEFAULT_BUCKETS_US
        assert list(edges) == sorted(edges)
        with pytest.raises(ValueError):
            obs_metrics.Histogram("bad", buckets=(5.0, 1.0))


# ----------------------------------------------------------------------
# Wire ops: trace / explain / the server section
# ----------------------------------------------------------------------


class TestServiceOps:
    def test_trace_op_covers_every_layer(self, line_trace, tmp_path):
        tracing.enable()
        svc = AdmissionService(line_trace, "greedy-threshold",
                               journal_path=str(tmp_path / "j.bin"),
                               fmt="binary")
        _feed_all(svc, line_trace)
        resp = svc.handle({"op": "trace"})
        assert resp["ok"] and resp["spans"] > 0
        names = {ev["name"] for ev in resp["trace"]["traceEvents"]}
        # One span name per instrumented layer: kernel, ledger,
        # journal, service dispatch.  The feed op engages the columnar
        # fast path for greedy-threshold, so the kernel/ledger layers
        # surface as the batched spans.
        assert {"session.batch_decide", "ledger.admit_many",
                "journal.commit", "service.handle"} <= names

    def test_trace_op_last_n(self, line_trace):
        tracing.enable()
        svc = AdmissionService(line_trace, "greedy-threshold")
        _feed_all(svc, line_trace)
        resp = svc.handle({"op": "trace", "last": 5})
        assert resp["ok"]
        assert resp["spans"] == 5
        assert len(resp["trace"]["traceEvents"]) == 5

    def test_explain_admitted_and_rejected(self, line_trace):
        svc = AdmissionService(line_trace, "greedy-threshold")
        _feed_all(svc, line_trace)
        admitted = [d for d, _ in svc.session.ledger.admitted_items()]
        assert admitted
        doc = svc.handle({"op": "explain", "demand": admitted[0]})
        assert doc["ok"]
        exp = doc["explain"]
        assert exp["demand"] == admitted[0]
        assert exp["status"] == "admitted" == exp["verdict"]
        assert exp["instance"] is not None
        assert exp["policy"]["name"] == "greedy-threshold"
        assert all({"instance", "feasible", "route_length", "density",
                    "passes_threshold"} <= set(row)
                   for row in exp["candidates"])
        rejected = sorted(svc._arrived
                          - {d for d, _ in svc.session.ledger.admitted_items()}
                          - svc._departed)
        if rejected:
            exp = svc.handle({"op": "explain",
                              "demand": rejected[0]})["explain"]
            assert exp["status"] == "rejected"
            assert exp["verdict"] in ("capacity-blocked", "below-threshold",
                                      "admittable-now")

    def test_explain_prices_under_dual_gated(self, line_trace):
        svc = AdmissionService(line_trace, "dual-gated")
        _feed_all(svc, line_trace)
        exp = svc.handle({"op": "explain", "demand": 0})["explain"]
        for row in exp["candidates"]:
            assert "price" in row and "gate" in row and "passes_gate" in row
        assert "eta" in exp["policy"]

    def test_explain_unknown_demand_is_friendly(self, line_trace):
        svc = AdmissionService(line_trace, "greedy-threshold")
        resp = svc.handle({"op": "explain", "demand": 10 ** 6})
        assert resp == {"ok": False, "op": "explain",
                        "error": f"unknown demand {10 ** 6}"}

    def test_explain_is_a_pure_read(self, line_trace):
        svc = AdmissionService(line_trace, "preempt-density",
                               {"factor": 1.2})
        _feed_all(svc, line_trace)
        before = json.dumps(svc.session.snapshot(), sort_keys=True,
                            default=str)
        for d in range(min(20, line_trace.problem.num_demands)):
            assert svc.handle({"op": "explain", "demand": d})["ok"]
        after = json.dumps(svc.session.snapshot(), sort_keys=True,
                           default=str)
        assert before == after

    def test_server_section_same_keys_on_every_transport(self, line_trace):
        svc = AdmissionService(line_trace, "greedy-threshold")
        stdio_section = svc.stats()["server"]
        assert all(v is None for v in stdio_section.values())
        server = AsyncLineServer(svc)
        async_section = svc.stats()["server"]
        assert set(async_section) == set(stdio_section)
        assert async_section["clients"] == 0
        assert async_section["max_clients"] == server.max_clients

    def test_stats_reports_live_dual_bound(self, line_trace):
        svc = AdmissionService(line_trace, "dual-gated")
        _feed_all(svc, line_trace)
        stats = svc.stats()
        assert stats["dual_upper_bound"] is not None
        assert stats["dual_upper_bound"] >= stats["realized_profit"]
        # Threshold policies carry no certificate: the key stays, null.
        svc2 = AdmissionService(line_trace, "greedy-threshold")
        assert svc2.stats()["dual_upper_bound"] is None


# ----------------------------------------------------------------------
# Fork merge determinism
# ----------------------------------------------------------------------


class TestForkMerge:
    @staticmethod
    def _span_names(tree_trace, policy):
        """Span names of an inline and a forked two-shard run."""
        import multiprocessing as mp

        from repro.sharding import StreamedShardedDriver

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        tracing.enable(capacity=1 << 15)
        StreamedShardedDriver(2, processes=1).run(tree_trace, policy, {})
        inline_names = [e[0] for e in RECORDER.events()]
        RECORDER.clear()
        StreamedShardedDriver(2, processes=2).run(tree_trace, policy, {})
        forked_names = [e[0] for e in RECORDER.events()]
        return inline_names, forked_names

    def test_inline_and_forked_record_same_span_sequence(self, tree_trace):
        inline_names, forked_names = self._span_names(
            tree_trace, "greedy-threshold")
        assert "shard.phaseA" in inline_names
        # greedy-threshold decides through the fast path's windows,
        # which record one aggregated decision span per chunk.
        assert "session.batch_decide" in inline_names
        assert forked_names == inline_names

    def test_inline_and_forked_record_same_per_event_spans(self, tree_trace):
        # preempt-dual-gated has no batch kernel: every decision records
        # its own span, so the merge must keep many worker spans in order.
        inline_names, forked_names = self._span_names(
            tree_trace, "preempt-dual-gated")
        assert "shard.phaseA" in inline_names
        assert inline_names.count("session.decide") > 10
        assert forked_names == inline_names


# ----------------------------------------------------------------------
# Resume continuity
# ----------------------------------------------------------------------


class TestResumeContinuity:
    GAUGES = ("repro_events_total", "repro_arrivals_total",
              "repro_admits_total", "repro_rejects_total",
              "repro_evictions_total", "repro_realized_profit",
              "repro_position")

    def test_resume_republishes_cumulative_gauges(self, line_trace,
                                                  tmp_path):
        path = str(tmp_path / "j.journal")
        svc = AdmissionService(line_trace, "preempt-density",
                               {"factor": 1.2}, journal_path=path)
        _feed_all(svc, line_trace)
        before = svc.stats()["metrics"]
        assert before["repro_events_total"]["value"] == len(line_trace.events)
        svc.journal.close()  # the killed-writer shape: no session close

        resumed = AdmissionService.resume(path)
        after = resumed.stats()["metrics"]
        for name in self.GAUGES:
            assert after[name]["value"] == before[name]["value"], name
        # The request counter is per-process by design; the state-derived
        # gauges are what carry continuity across the restart.
        resumed.journal.close()


# ----------------------------------------------------------------------
# Dashboard + CLI round trips
# ----------------------------------------------------------------------


def _stats_doc(**over):
    doc = {
        "position": 100, "arrivals": 60, "accepted": 40, "evictions": 2,
        "num_admitted": 30, "utilization": 0.5, "realized_profit": 80.0,
        "dual_upper_bound": 100.0, "policy": "dual-gated",
        "journaled": True, "commit_lag": 0,
        "server": {"clients": 3, "backpressured_clients": 0,
                   "requests_total": 9, "dispatch_queue_depth": 1},
    }
    doc.update(over)
    return doc


class TestDashboard:
    def test_render_is_pure_and_computes_rates(self):
        prev = _stats_doc(position=0, accepted=0, arrivals=0)
        frame = render_dashboard(_stats_doc(), prev, dt=2.0)
        assert "repro top" in frame
        assert "50.0" in frame       # 100 position delta / 2 s
        assert "20.0" in frame       # 40 admits / 2 s
        assert "20.00%" in frame     # (100 - 80) / 100 optimality gap
        assert "dual-gated" in frame

    def test_render_shows_pruned_plans_for_preemptive_policies(self):
        stats = {"preempt_pruned": 300, "preempt_admits": 7,
                 "preempt_rejected": 90, "evictions": 9}
        prev = _stats_doc(policy_stats=dict(stats, preempt_pruned=100))
        frame = render_dashboard(_stats_doc(policy_stats=stats), prev,
                                 dt=2.0)
        assert "plans pruned" in frame and "300" in frame
        assert "100.0" in frame      # 200 pruned / 2 s
        # Non-preemptive policies carry no such counter, so no row.
        frame = render_dashboard(_stats_doc(policy_stats={"gated": 3}),
                                 None, 0.0)
        assert "plans pruned" not in frame

    def test_render_tolerates_nulls(self):
        frame = render_dashboard(
            _stats_doc(dual_upper_bound=None, commit_lag=None, server={}),
            None, 0.0)
        assert "-" in frame
        # No dual bound -> no gap claim, rendered as the null marker.
        assert "%" in frame

    def test_top_and_trace_against_live_async_server(self, line_trace,
                                                     tmp_path):
        from repro import cli

        tracing.enable()
        svc = AdmissionService(line_trace, "dual-gated",
                               journal_path=str(tmp_path / "j.bin"),
                               fmt="binary")
        server, thread, box = _start(svc)
        try:
            host, port = box["addr"][:2]
            # Push the trace through a real socket client.
            sock = socket.create_connection((host, port), timeout=30)
            f = sock.makefile("rw", encoding="utf-8")
            dicts = [event_to_dict(ev) for ev in line_trace.events]
            for i in range(0, len(dicts), 64):
                f.write(json.dumps(
                    {"op": "feed", "events": dicts[i:i + 64]}) + "\n")
                f.flush()
                assert json.loads(f.readline())["ok"]
            sock.close()

            out = io.StringIO()
            frames = run_top(host, port, interval=0.01, iterations=2,
                             out=out)
            assert frames == 2
            text = out.getvalue()
            assert "repro top" in text
            assert "dual-gated" in text
            assert "OPT<=(dual)" in text

            resp = request_once(host, port, {"op": "trace"})
            assert resp["ok"]
            names = {ev["name"] for ev in resp["trace"]["traceEvents"]}
            assert "server.dispatch" in names
            assert "session.decide" in names

            # The CLI front ends drive the same wire path.
            out_path = tmp_path / "spans.json"
            assert cli.main(["trace", "--port", str(port),
                             "-o", str(out_path)]) == 0
            doc = json.loads(out_path.read_text())
            assert doc["traceEvents"]
        finally:
            server.request_shutdown()
            thread.join(10)

    def test_cli_top_count(self, line_trace, capsys):
        from repro import cli

        svc = AdmissionService(line_trace, "greedy-threshold")
        server, thread, box = _start(svc)
        try:
            port = box["addr"][1]
            assert cli.main(["top", "--port", str(port),
                             "--interval", "0.05", "--count", "1"]) == 0
            assert "repro top" in capsys.readouterr().out
        finally:
            server.request_shutdown()
            thread.join(10)

    def test_cli_top_refuses_dead_port(self):
        from repro import cli

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here anymore
        with pytest.raises(SystemExit):
            cli.main(["top", "--port", str(port), "--count", "1"])


# ----------------------------------------------------------------------
# Crash dump
# ----------------------------------------------------------------------


class TestCrashDump:
    def test_dump_writes_chrome_trace(self, tmp_path, monkeypatch):
        tracing.enable()
        with span("session.decide", demand=1):
            pass
        path = tmp_path / "dump.json"
        monkeypatch.setattr(tracing, "_DUMP_PATH", str(path))
        tracing._dump_at_exit()
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["name"] == "session.decide"

    def test_empty_ring_writes_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "dump.json"
        monkeypatch.setattr(tracing, "_DUMP_PATH", str(path))
        tracing._dump_at_exit()
        assert not path.exists()
