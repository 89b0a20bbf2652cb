"""Transport loops for :class:`~repro.service.AdmissionService`.

One request per line, one response per line — JSON both ways.  Two
transports:

* :func:`serve_stdio` — requests on stdin, responses on stdout (the
  ``repro serve`` default; trivially driveable from a shell pipe or a
  subprocess harness);
* :class:`~repro.service.async_server.AsyncLineServer` — TCP (``repro
  serve --port``): a single-threaded selectors loop multiplexing any
  number of clients, simultaneous or reconnecting one after another,
  with per-connection buffers, backpressure and fair round-robin
  dispatch.

Both transports pass every request line to :func:`handle_line` and
answer an over-limit line with :func:`overlimit_response`, so a request
gets the same response document on either.  They drain requests until
the stream ends or a successful ``close`` request arrives, and never
raise on malformed input — bad JSON and domain errors come back as
``{"ok": false, ...}`` response lines, so one broken client request
cannot take the service (and its journal) down with it.  On
SIGTERM/SIGINT the socket transport flushes the journal's group-commit
window before returning, so every acknowledged event is on disk and
``repro resume`` picks up exactly where the stream stopped.

High-throughput clients should prefer the batched ``feed`` op —
``{"op": "feed", "events": [{...}, ...]}`` — over per-event ``submit``
lines: one request line, one validation sweep, one journal commit
window and one batched decision pass cover the whole batch (see
:meth:`~repro.service.AdmissionService.feed_events`).
"""

from __future__ import annotations

import json
import sys

from .service import AdmissionService

__all__ = ["handle_line", "overlimit_response", "serve_lines",
           "serve_stdio"]

#: Default request-line byte cap (also the async server's default).
MAX_LINE_BYTES = 1 << 20


def overlimit_response(limit: int) -> dict:
    """The response to a request line longer than ``limit`` bytes."""
    return {
        "ok": False,
        "error": (f"request line exceeds {limit} bytes; "
                  "split the batch or raise --max-line-bytes"),
    }


def handle_line(service: AdmissionService, line: str | bytes) -> dict | None:
    """Decode one request line and serve it; returns the response
    document (``{"ok": false}`` for bad JSON or a non-object request),
    or ``None`` for a blank line."""
    line = line.strip()
    if not line:
        return None
    try:
        req = json.loads(line)
    except ValueError as exc:
        return {"ok": False, "error": f"bad request JSON: {exc}"}
    if not isinstance(req, dict):
        return {"ok": False, "error": "request must be a JSON object"}
    return service.handle(req)


def serve_lines(service: AdmissionService, lines, emit, *,
                max_line_bytes: int = MAX_LINE_BYTES) -> dict | None:
    """Serve an iterable of request lines, emitting each response.

    Returns the ``close`` response when one was served, else ``None``
    (the input stream ended first — the journal then carries whatever
    was applied, ready for ``repro resume``).  Lines longer than
    ``max_line_bytes`` are rejected with an ``{"ok": false}`` response
    without being parsed.
    """
    for line in lines:
        size = len(line.encode(errors="surrogatepass")
                   if isinstance(line, str) else line)
        if size > max_line_bytes + 1:  # +1: the newline itself
            resp = overlimit_response(max_line_bytes)
        else:
            resp = handle_line(service, line)
            if resp is None:
                continue
        emit(resp)
        if resp.get("op") == "close" and resp.get("ok"):
            return resp
    return None


def serve_stdio(service: AdmissionService, infile=None, outfile=None, *,
                max_line_bytes: int = MAX_LINE_BYTES) -> dict | None:
    """Serve line requests from ``infile`` (default stdin) to
    ``outfile`` (default stdout), flushing every response."""
    infile = sys.stdin if infile is None else infile
    outfile = sys.stdout if outfile is None else outfile

    def emit(doc: dict) -> None:
        outfile.write(json.dumps(doc) + "\n")
        outfile.flush()

    return serve_lines(service, infile, emit,
                       max_line_bytes=max_line_bytes)
