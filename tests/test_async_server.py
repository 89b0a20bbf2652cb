"""Tests for the async multi-client front door and transport satellites.

The load-bearing guarantees:

* **Interleaving equivalence** — N concurrent pipelined client streams
  produce a journal whose serialized replay (same dispatch order, one
  client) yields byte-identical journal records and final metrics, for
  every registered policy: concurrency changes scheduling, never
  semantics;
* request ``id`` echo lets pipelined clients match responses out of
  order (success and error responses alike);
* the request-line byte cap answers oversized lines with a friendly
  ``{"ok": false}`` and keeps the connection usable;
* one server sustains 64 concurrent clients; ``max_clients`` beyond
  that rejects politely;
* graceful drain commits the group-commit window and notifies clients
  with final watermarks; the journal resumes cleanly;
* the one TCP transport accepts sequential reconnecting clients and
  drains on SIGTERM.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.io import event_to_dict, read_journal
from repro.online import generate_trace
from repro.online.metrics import TIMING_FIELDS
from repro.service import (
    AdmissionService,
    AsyncLineServer,
    serve_async,
    serve_lines,
)

#: Per-policy constructor params (mirrors tests/test_service.py).
POLICY_PARAMS = {
    "greedy-threshold": {},
    "dual-gated": {},
    "batch-resolve": {"solver": "greedy", "resolve_every": 8},
    "preempt-density": {"factor": 1.2},
    "preempt-dual-gated": {"penalty": 0.1},
}


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        "tree", events=240, process="poisson", seed=17, departure_prob=0.35,
        workload={"n": 48, "boundary_fraction": 0.1, "parts": 2})


def _start(service, **kw):
    """Run an AsyncLineServer on a thread; return (server, thread, addr)."""
    box = {}
    ready = threading.Event()
    server = AsyncLineServer(
        service, announce=lambda a: (box.update(addr=a), ready.set()), **kw)
    thread = threading.Thread(
        target=lambda: box.update(rv=server.serve_forever()), daemon=True)
    thread.start()
    assert ready.wait(10), "server never announced"
    return server, thread, box


def _connect(addr):
    sock = socket.create_connection(addr, timeout=30)
    return sock, sock.makefile("rw", encoding="utf-8")


def _request(f, doc):
    f.write(json.dumps(doc) + "\n")
    f.flush()
    return json.loads(f.readline())


def _client_streams(trace, n):
    """Partition the trace into n streams, demand-ownership based, so
    every cross-stream interleaving is a valid event stream."""
    streams = [[] for _ in range(n)]
    for ev in trace.events:
        d = getattr(ev, "demand_id", None)
        streams[0 if d is None else d % n].append(ev)
    return streams


def _strip_timing(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k not in TIMING_FIELDS}


class TestInterleavedEquivalence:
    @pytest.mark.parametrize("policy", sorted(POLICY_PARAMS))
    def test_concurrent_equals_serialized_dispatch(self, trace, tmp_path,
                                                   policy):
        params = POLICY_PARAMS[policy]
        j_live = str(tmp_path / "live.journal")
        service = AdmissionService(trace, policy, params,
                                   journal_path=j_live, sync_window=16)
        server, thread, box = _start(service)
        addr = box["addr"]
        streams = _client_streams(trace, 4)

        def run_client(i):
            sock, f = _connect(addr)
            for j, ev in enumerate(streams[i]):
                f.write(json.dumps({"op": "submit",
                                    "event": event_to_dict(ev),
                                    "id": [i, j]}) + "\n")
            f.flush()
            for j in range(len(streams[i])):
                resp = json.loads(f.readline())
                assert resp["ok"], resp
                assert resp["id"] == [i, j]
            sock.close()

        threads = [threading.Thread(target=run_client, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)

        sock, f = _connect(addr)
        close_resp = _request(f, {"op": "close"})
        assert close_resp["ok"], close_resp
        sock.close()
        thread.join(10)

        # Serialized dispatch of the journaled order must reproduce the
        # journal and the final metrics exactly.
        _header, events, _good = read_journal(j_live)
        assert len(events) == len(trace.events)
        j_serial = str(tmp_path / "serial.journal")
        service2 = AdmissionService(trace, policy, params,
                                    journal_path=j_serial, sync_window=16)
        for ev in events:
            service2.submit_event(ev)
        result2 = service2.close()

        with open(j_live, "rb") as fh:
            live_bytes = fh.read()
        with open(j_serial, "rb") as fh:
            serial_bytes = fh.read()
        assert live_bytes == serial_bytes
        assert (_strip_timing(close_resp["metrics"])
                == _strip_timing(result2.metrics.to_dict()))


class TestRequestIds:
    def test_id_echo_on_success_and_error(self, trace):
        service = AdmissionService(trace, "greedy-threshold")
        server, thread, box = _start(service)
        sock, f = _connect(box["addr"])
        ok = _request(f, {"op": "stats", "id": "s-1"})
        assert ok["ok"] and ok["id"] == "s-1"
        err = _request(f, {"op": "admit", "demand": 10 ** 9, "id": 7})
        assert not err["ok"] and err["id"] == 7
        no_id = _request(f, {"op": "stats"})
        assert "id" not in no_id
        _request(f, {"op": "close", "verify": False})
        sock.close()
        thread.join(10)

    def test_direct_handle_echoes_id(self, trace):
        service = AdmissionService(trace, "greedy-threshold")
        resp = service.handle({"op": "query", "demand": 0, "id": None})
        assert resp["ok"] and "id" in resp and resp["id"] is None
        bad = service.handle({"op": "nope", "id": 3})
        assert not bad["ok"] and bad["id"] == 3


class TestLineCap:
    def test_oversized_line_rejected_conn_survives(self, trace):
        service = AdmissionService(trace, "greedy-threshold")
        server, thread, box = _start(service, max_line_bytes=1024)
        sock, f = _connect(box["addr"])
        f.write("x" * 5000 + "\n")
        f.flush()
        resp = json.loads(f.readline())
        assert not resp["ok"] and "1024" in resp["error"]
        # The connection still serves normal requests afterwards.
        ok = _request(f, {"op": "stats"})
        assert ok["ok"]
        assert ok["stats"]["server"]["overlimit_rejects"] == 1
        _request(f, {"op": "close", "verify": False})
        sock.close()
        thread.join(10)

    def test_overflow_without_newline_then_recovery(self, trace):
        # The oversized line arrives in chunks with the newline last:
        # the server must flag overflow early, discard the rest, and
        # parse the next line normally.
        service = AdmissionService(trace, "greedy-threshold")
        server, thread, box = _start(service, max_line_bytes=1024)
        sock, f = _connect(box["addr"])
        for _ in range(8):
            sock.sendall(b"y" * 512)
        sock.sendall(b"\n")
        resp = json.loads(f.readline())
        assert not resp["ok"]
        ok = _request(f, {"op": "stats"})
        assert ok["ok"]
        _request(f, {"op": "close", "verify": False})
        sock.close()
        thread.join(10)

    def test_serve_lines_cap(self, trace):
        service = AdmissionService(trace, "greedy-threshold")
        out = []
        serve_lines(service, ["z" * 300 + "\n",
                              json.dumps({"op": "stats"}) + "\n"],
                    out.append, max_line_bytes=256)
        assert not out[0]["ok"] and "256" in out[0]["error"]
        assert out[1]["ok"]
        # Both transports answer bad JSON (trailing blanks included), a
        # non-object line, over-limit lines (the cap counts bytes, not
        # characters) and a domain error with the same documents.
        bad = ['{"op": "stats", ', "[1, 2]", "z" * 300, "\u00e9" * 200,
               '{"op": "warp", "id": 4}']
        stdio = []
        serve_lines(service, [line + "\n" for line in bad], stdio.append,
                    max_line_bytes=256)
        server, thread, box = _start(service, max_line_bytes=256)
        sock, f = _connect(box["addr"])
        f.write("".join(line + "\n" for line in bad))
        f.flush()
        tcp = [json.loads(f.readline()) for _ in bad]
        # A last line without its newline is still a request.
        last = '{"op": "query", "demand": -1, "id": 9}'
        serve_lines(service, [last], stdio.append, max_line_bytes=256)
        eof_sock, eof_f = _connect(box["addr"])
        eof_sock.sendall(last.encode())
        eof_sock.shutdown(socket.SHUT_WR)
        tcp.append(json.loads(eof_f.readline()))
        eof_sock.close()
        _request(f, {"op": "close", "verify": False})
        sock.close()
        thread.join(10)
        assert tcp == stdio
        assert not any(resp["ok"] for resp in tcp)


class TestManyClients:
    def test_64_concurrent_clients(self, tmp_path):
        big = generate_trace(
            "tree", events=1280, process="poisson", seed=23,
            departure_prob=0.3,
            workload={"n": 256, "boundary_fraction": 0.05, "parts": 4})
        service = AdmissionService(
            big, "greedy-threshold",
            journal_path=str(tmp_path / "many.journal"), sync_window=64)
        server, thread, box = _start(service, max_clients=80)
        addr = box["addr"]
        streams = _client_streams(big, 64)
        failures = []

        def run_client(i):
            try:
                sock, f = _connect(addr)
                batch = [event_to_dict(ev) for ev in streams[i]]
                resp = _request(f, {"op": "feed", "events": batch, "id": i})
                assert resp["ok"] and resp["id"] == i, resp
                sock.close()
            except Exception as exc:  # noqa: BLE001 — collected below
                failures.append((i, repr(exc)))

        threads = [threading.Thread(target=run_client, args=(i,))
                   for i in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not failures, failures[:3]
        sock, f = _connect(addr)
        stats = _request(f, {"op": "stats"})
        assert stats["stats"]["position"] == len(big.events)
        assert stats["stats"]["server"]["requests_total"] >= 64
        close = _request(f, {"op": "close"})
        assert close["ok"]
        sock.close()
        thread.join(10)

    def test_max_clients_rejection(self, trace):
        service = AdmissionService(trace, "greedy-threshold")
        server, thread, box = _start(service, max_clients=2)
        addr = box["addr"]
        keep = [_connect(addr) for _ in range(2)]
        for _sock, f in keep:  # both inside the cap: served normally
            assert _request(f, {"op": "stats"})["ok"]
        extra_sock, extra_f = _connect(addr)
        refusal = json.loads(extra_f.readline())
        assert not refusal["ok"] and "max-clients" in refusal["error"]
        assert extra_f.readline() == ""  # server closed it
        extra_sock.close()
        _request(keep[0][1], {"op": "close", "verify": False})
        for sock, _f in keep:
            sock.close()
        thread.join(10)


class TestGracefulDrain:
    def test_shutdown_commits_and_notifies(self, trace, tmp_path):
        path = str(tmp_path / "drain.journal")
        service = AdmissionService(trace, "greedy-threshold",
                                   journal_path=path, sync_window=100)
        server, thread, box = _start(service)
        sock, f = _connect(box["addr"])
        n_fed = 20
        batch = [event_to_dict(ev) for ev in trace.events[:n_fed]]
        resp = _request(f, {"op": "feed", "events": batch})
        assert resp["ok"]
        assert resp["seq"] > resp["commit_seq"]  # window still open
        server.request_shutdown()
        notice = json.loads(f.readline())
        assert notice["op"] == "shutdown" and notice["ok"]
        assert notice["commit_seq"] == notice["seq"] == n_fed
        sock.close()
        thread.join(10)
        assert box["rv"] is None  # no close request was served
        resumed = AdmissionService.resume(path)
        assert resumed.position == n_fed


class TestSequentialSocket:
    """Clients that connect one after another, and signal drain, on the
    one TCP transport (``repro serve --port``)."""

    @staticmethod
    def _serve_on_thread(service, **kw):
        box = {}
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: box.update(rv=serve_async(
                service, port=0,
                announce=lambda a: (box.update(addr=a), ready.set()),
                **kw)),
            daemon=True)
        thread.start()
        assert ready.wait(10)
        return thread, box

    def test_reconnects_until_close(self, trace):
        service = AdmissionService(trace, "greedy-threshold")
        thread, box = self._serve_on_thread(service)
        for i in range(3):  # one client at a time, reconnecting
            sock, f = _connect(box["addr"])
            resp = _request(f, {"op": "stats", "id": i})
            assert resp["ok"] and resp["id"] == i
            sock.close()
        sock, f = _connect(box["addr"])
        assert _request(f, {"op": "close", "verify": False})["ok"]
        sock.close()
        thread.join(10)
        assert box["rv"]["op"] == "close"

    def test_oversized_line_on_socket(self, trace):
        service = AdmissionService(trace, "greedy-threshold")
        thread, box = self._serve_on_thread(service, max_line_bytes=1024)
        sock, f = _connect(box["addr"])
        f.write("w" * 4096 + "\n")
        f.flush()
        resp = json.loads(f.readline())
        assert not resp["ok"] and "1024" in resp["error"]
        assert _request(f, {"op": "stats"})["ok"]
        assert _request(f, {"op": "close", "verify": False})["ok"]
        sock.close()
        thread.join(10)

    def test_sigterm_drains_and_commits(self, trace, tmp_path):
        """SIGTERM to a main-thread server commits the group-commit
        window and returns; the journal resumes at the fed position."""
        import os
        import signal

        path = str(tmp_path / "sigterm.journal")
        service = AdmissionService(trace, "greedy-threshold",
                                   journal_path=path, sync_window=100)
        n_fed = 20
        box = {}

        def client(addr):
            sock, f = _connect(addr)
            batch = [event_to_dict(ev) for ev in trace.events[:n_fed]]
            box["fed"] = _request(f, {"op": "feed", "events": batch})
            os.kill(os.getpid(), signal.SIGTERM)
            box["notice"] = json.loads(f.readline())
            sock.close()

        def announce(addr):
            box["thread"] = threading.Thread(target=client, args=(addr,),
                                             daemon=True)
            box["thread"].start()

        assert serve_async(service, port=0, announce=announce) is None
        box["thread"].join(10)
        assert not box["thread"].is_alive()
        assert box["fed"]["seq"] > box["fed"]["commit_seq"]
        assert box["notice"]["op"] == "shutdown"
        assert box["notice"]["commit_seq"] == n_fed
        resumed = AdmissionService.resume(path)
        assert resumed.position == n_fed
