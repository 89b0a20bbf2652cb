"""The async multi-client front door: one event loop, many connections.

:class:`AsyncLineServer` multiplexes any number of concurrent TCP
clients over the service's JSON-line protocol with a single-threaded
:mod:`selectors` loop — no thread per connection, no async framework,
just non-blocking sockets and explicit buffers:

* **Per-connection buffers** — bytes are read into a per-connection
  receive buffer and split on newlines; responses queue in a
  per-connection write buffer flushed as the socket drains.
* **Bounded backpressure** — a connection whose write buffer passes the
  high-water mark stops being *read* (and stops having its pipelined
  requests dispatched) until the buffer drains below the low-water
  mark, so one slow reader cannot balloon server memory; a request
  line longer than ``max_line_bytes`` is discarded (the overflow is
  drained to the next newline) and answered with a friendly
  ``{"ok": false}`` over-limit response.
* **One request path** — each line goes through the stdio transport's
  :func:`~repro.service.server.handle_line`, so both answer alike.
* **Request ids** — a client may attach an ``id`` to any request; the
  service echoes it in the response, so pipelined clients can match
  responses to requests without counting lines.
* **Fair dispatch** — buffered requests are served round-robin, one
  request per connection per pass, into the *shared*
  :class:`~repro.service.AdmissionService` (one session, one journal:
  group-commit windows amortize across clients).
* **Graceful drain** — a successful ``close`` request, SIGTERM/SIGINT,
  or :meth:`request_shutdown` stops accepting, commits the journal's
  group-commit window, notifies every other client with a final
  ``shutdown`` watermark line, flushes what the sockets will take, and
  returns.  A killed server is still exactly resumable from its
  journal — the drain just upgrades "crash-consistent" to "polite".

The ``stats`` op's ``server`` section carries live transport counters
here — connected clients, per-client request counts, the dispatch
queue depth, backpressured clients, and the journal commit watermark
lag (``seq - commit_seq``); other transports return the same keys as
nulls, so dashboards never special-case the front door.
"""

from __future__ import annotations

import json
import selectors
import signal
import socket
import threading
import time

from ..obs import tracing as _tracing
from .server import MAX_LINE_BYTES, handle_line, overlimit_response
from .service import AdmissionService

__all__ = ["AsyncLineServer", "serve_async"]

_RECV_CHUNK = 65536
#: Stop reading a connection whose pending responses exceed this.
_HIGH_WATER = 256 * 1024
_LOW_WATER = 64 * 1024


class _Conn:
    """One client connection's buffers and counters."""

    __slots__ = ("sock", "client", "rbuf", "wbuf", "pending", "requests",
                 "overflow", "closing", "reading")

    def __init__(self, sock: socket.socket, client: int):
        self.sock = sock
        self.client = client          # stable id for stats/logs
        self.rbuf = bytearray()       # bytes read, no newline yet
        self.wbuf = bytearray()       # responses waiting for the socket
        self.pending: list[bytes | None] = []  # lines; None: over cap
        self.requests = 0             # requests served on this conn
        self.overflow = False         # discarding an oversized line
        self.closing = False          # close after wbuf drains
        self.reading = True           # read-interest currently registered


class AsyncLineServer:
    """Serve many concurrent line-protocol clients on one thread.

    Parameters
    ----------
    service:
        The shared :class:`~repro.service.AdmissionService` (one
        session + journal for every client).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port.
    max_clients:
        Accepted-connection cap; a client beyond it receives one
        ``{"ok": false}`` line and is closed.
    max_line_bytes:
        Request-line byte cap (see the module docstring).
    announce:
        Callable given the bound ``(host, port)`` before serving.
    log:
        Callable given human-readable progress lines (connects,
        disconnects, drain); ``None`` disables logging.
    """

    def __init__(self, service: AdmissionService,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_clients: int = 128,
                 max_line_bytes: int = MAX_LINE_BYTES,
                 high_water: int = _HIGH_WATER,
                 announce=None, log=None):
        if max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {max_clients}")
        if max_line_bytes < 2:
            raise ValueError(
                f"max_line_bytes must be >= 2, got {max_line_bytes}")
        self.service = service
        self.host = host
        self.port = port
        self.max_clients = max_clients
        self.max_line_bytes = max_line_bytes
        self.high_water = high_water
        self.low_water = max(1, min(_LOW_WATER, high_water // 4))
        self.announce = announce
        self.log = log or (lambda msg: None)
        self._sel: selectors.BaseSelector | None = None
        self._conns: dict[int, _Conn] = {}  # fd -> conn
        self._next_client = 0
        self._total_requests = 0
        self._overlimit_rejects = 0
        self._shutdown = threading.Event()
        self._wake_w: socket.socket | None = None
        self.close_response: dict | None = None
        # Surface this transport's counters through the service's own
        # stats op, so every client sees the same `server` section.
        service.server_stats_provider = self.server_stats

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the loop to drain and stop (signal- and thread-safe)."""
        self._shutdown.set()
        wake = self._wake_w
        if wake is not None:
            try:
                wake.send(b"x")
            except OSError:
                pass

    def server_stats(self) -> dict:
        """The transport-level observability block (``stats`` op)."""
        doc = {
            "clients": len(self._conns),
            "max_clients": self.max_clients,
            "requests_total": self._total_requests,
            "requests_per_client": {
                str(c.client): c.requests for c in self._conns.values()
            },
            "dispatch_queue_depth": sum(
                len(c.pending) for c in self._conns.values()
            ),
            "backpressured_clients": sum(
                1 for c in self._conns.values() if not c.reading
            ),
            "overlimit_rejects": self._overlimit_rejects,
        }
        journal = self.service.journal
        doc["commit_lag"] = (journal.seq - journal.commit_seq
                             if journal is not None else None)
        return doc

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def serve_forever(self) -> dict | None:
        """Accept and serve until a ``close`` request or shutdown.

        Returns the ``close`` response when one was served, else
        ``None`` (drained by signal / :meth:`request_shutdown` — the
        journal then carries everything applied, ready for ``repro
        resume``).
        """
        sel = self._sel = selectors.DefaultSelector()
        wake_r, wake_w = socket.socketpair()
        wake_r.setblocking(False)
        wake_w.setblocking(False)
        self._wake_w = wake_w
        restore: list[tuple[int, object]] = []
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    restore.append((sig, signal.signal(
                        sig, lambda *_: self.request_shutdown())))
                except (ValueError, OSError):
                    pass
        try:
            with socket.create_server(
                    (self.host, self.port), backlog=self.max_clients) as ls:
                ls.setblocking(False)
                if self.announce is not None:
                    self.announce(ls.getsockname()[:2])
                sel.register(ls, selectors.EVENT_READ, "listen")
                sel.register(wake_r, selectors.EVENT_READ, "wake")
                return self._loop(ls, wake_r)
        finally:
            for sig, old in restore:
                signal.signal(sig, old)
            for conn in list(self._conns.values()):
                self._drop(conn)
            self._wake_w = None
            wake_w.close()
            wake_r.close()
            sel.close()
            self._sel = None

    def _loop(self, listener, wake_r) -> dict | None:
        sel = self._sel
        while True:
            if self._shutdown.is_set():
                self._drain_and_notify()
                return None
            for key, _mask in sel.select():
                tag = key.data
                if tag == "listen":
                    self._accept(listener)
                elif tag == "wake":
                    try:
                        wake_r.recv(4096)
                    except OSError:
                        pass
                else:
                    conn = tag
                    if _mask_readable(key, _mask):
                        self._read(conn)
                    if conn.sock.fileno() != -1 and _mask_writable(key,
                                                                   _mask):
                        self._flush(conn)
            self._dispatch_round_robin()
            if self.close_response is not None:
                self._drain_and_notify(notify=False)
                return self.close_response

    # ------------------------------------------------------------------
    # Accept / read / write
    # ------------------------------------------------------------------

    def _accept(self, listener) -> None:
        while True:
            try:
                sock, addr = listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            if len(self._conns) >= self.max_clients or self._shutdown.is_set():
                reason = ("server draining" if self._shutdown.is_set()
                          else f"server at max-clients capacity "
                               f"({self.max_clients})")
                # Best-effort notice on a non-blocking socket: a freshly
                # accepted connection has an empty send buffer, so one
                # small send() takes it whole; a sendall() here could
                # stall the loop behind a zero-window client.
                sock.setblocking(False)
                try:
                    sock.send((json.dumps(
                        {"ok": False, "error": reason}) + "\n").encode())
                except OSError:
                    pass
                sock.close()
                continue
            sock.setblocking(False)
            conn = _Conn(sock, self._next_client)
            self._next_client += 1
            self._conns[sock.fileno()] = conn
            self._sel.register(sock, selectors.EVENT_READ, conn)
            self.log(f"client {conn.client} connected from {addr} "
                     f"({len(self._conns)} online)")

    def _read(self, conn: _Conn) -> None:
        budget = 4 * _RECV_CHUNK  # bounded per select cycle — fairness
        while budget > 0:
            try:
                chunk = conn.sock.recv(_RECV_CHUNK)
            except BlockingIOError:
                break
            except OSError:
                self._drop(conn)
                return
            if not chunk:  # EOF
                if conn.rbuf and not conn.overflow:
                    # An unterminated last line is a request, as on stdio.
                    self._ingest(conn, b"\n")
                if not conn.wbuf and not conn.pending:
                    self._drop(conn)
                else:
                    conn.closing = True
                    self._stop_reading(conn)
                return
            budget -= len(chunk)
            self._ingest(conn, chunk)
        if len(conn.wbuf) > self.high_water:
            self._stop_reading(conn)

    def _ingest(self, conn: _Conn, chunk: bytes) -> None:
        """Split ``chunk`` into request lines, enforcing the byte cap."""
        conn.rbuf += chunk
        while True:
            nl = conn.rbuf.find(b"\n")
            if nl < 0:
                if conn.overflow:
                    conn.rbuf.clear()
                elif len(conn.rbuf) > self.max_line_bytes:
                    conn.overflow = True
                    conn.rbuf.clear()
                    # Queued, not sent: responses keep request order.
                    conn.pending.append(None)
                return
            line = bytes(conn.rbuf[:nl])
            del conn.rbuf[:nl + 1]
            if conn.overflow:
                # The newline ends the oversized line; drop it and
                # resume normal parsing.
                conn.overflow = False
                continue
            conn.pending.append(
                None if len(line) > self.max_line_bytes else line)

    def _emit(self, conn: _Conn, doc: dict) -> None:
        conn.wbuf += json.dumps(doc).encode() + b"\n"
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        sock = conn.sock
        while conn.wbuf:
            try:
                sent = sock.send(conn.wbuf)
            except BlockingIOError:
                break
            except OSError:
                self._drop(conn)
                return
            if sent <= 0:
                break
            del conn.wbuf[:sent]
        self._update_interest(conn)
        if conn.closing and not conn.wbuf and not conn.pending:
            self._drop(conn)

    def _update_interest(self, conn: _Conn) -> None:
        fd = conn.sock.fileno()
        if fd == -1 or fd not in self._conns:
            return
        want = selectors.EVENT_WRITE if conn.wbuf else 0
        resume = (not conn.reading and not conn.closing
                  and len(conn.wbuf) < self.low_water)
        if resume:
            conn.reading = True
            self.log(f"client {conn.client} resumed (write queue drained)")
        if conn.reading:
            want |= selectors.EVENT_READ
        try:
            self._sel.modify(conn.sock, want or selectors.EVENT_READ, conn)
        except (KeyError, ValueError):
            pass

    def _stop_reading(self, conn: _Conn) -> None:
        if conn.reading:
            conn.reading = False
            self.log(f"client {conn.client} backpressured "
                     f"({len(conn.wbuf)} bytes queued)")
        self._update_interest(conn)

    def _drop(self, conn: _Conn) -> None:
        fd = conn.sock.fileno()
        self._conns.pop(fd, None)
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self.log(f"client {conn.client} disconnected "
                 f"({conn.requests} requests, {len(self._conns)} online)")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch_round_robin(self) -> None:
        """Serve buffered requests one-per-connection per pass.

        Interleaving passes (instead of draining one connection fully)
        is what makes N pipelined clients fair; a backpressured
        connection is skipped until its responses drain.
        """
        while self.close_response is None:
            progressed = False
            for conn in list(self._conns.values()):
                if not conn.pending or len(conn.wbuf) > self.high_water:
                    continue
                line = conn.pending.pop(0)
                self._serve_line(conn, line)
                progressed = True
                if self.close_response is not None:
                    break
            if not progressed:
                return

    def _serve_line(self, conn: _Conn, line: bytes | None) -> None:
        """Answer one queued line (``None``: one over the byte cap)."""
        if line is None:
            self._overlimit_rejects += 1
            self._emit(conn, overlimit_response(self.max_line_bytes))
            return
        rec = _tracing.RECORDER
        t0 = time.perf_counter_ns() if rec.enabled else 0
        resp = handle_line(self.service, line)
        if resp is None:  # a blank line
            return
        conn.requests += 1
        self._total_requests += 1
        if rec.enabled:
            rec.record("server.dispatch", t0, time.perf_counter_ns() - t0,
                       {"client": conn.client, "op": resp.get("op")})
        self._emit(conn, resp)
        if resp.get("op") == "close" and resp.get("ok"):
            self.close_response = resp
            conn.closing = True

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def _drain_and_notify(self, notify: bool = True) -> None:
        """Flush the journal's commit window, tell every client the
        final watermarks, and push out what the sockets will take."""
        journal = self.service.journal
        watermarks = {}
        if journal is not None and not self.service.session.closed:
            journal.commit()
            watermarks = {"seq": journal.seq,
                          "commit_seq": journal.commit_seq}
        self.log(f"draining: {len(self._conns)} client(s), "
                 f"position {self.service.position}"
                 + (f", committed seq {watermarks['commit_seq']}"
                    if watermarks else ""))
        for conn in list(self._conns.values()):
            if notify and not conn.closing:
                self._emit(conn, {"ok": True, "op": "shutdown",
                                  "position": self.service.position,
                                  **watermarks})
            conn.closing = True
            self._flush(conn)


def _mask_readable(key, mask) -> bool:
    return bool(mask & selectors.EVENT_READ)


def _mask_writable(key, mask) -> bool:
    return bool(mask & selectors.EVENT_WRITE)


def serve_async(service: AdmissionService, host: str = "127.0.0.1",
                port: int = 0, *, max_clients: int = 128,
                max_line_bytes: int = MAX_LINE_BYTES,
                announce=None, log=None) -> dict | None:
    """Run an :class:`AsyncLineServer` to completion (the ``repro serve
    --port`` entry point).  Returns the ``close`` response, if any."""
    server = AsyncLineServer(service, host, port,
                             max_clients=max_clients,
                             max_line_bytes=max_line_bytes,
                             announce=announce, log=log)
    return server.serve_forever()
