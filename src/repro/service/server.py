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

All transports drain requests until the stream ends or a successful
``close`` request arrives; they never raise on malformed input — bad
JSON and domain errors come back as ``{"ok": false, ...}`` response
lines, so one broken client request cannot take the service (and its
journal) down with it.  A request line longer than ``max_line_bytes``
is answered with a friendly ``{"ok": false}`` over-limit response
instead of being parsed.  On SIGTERM/SIGINT the socket transport
flushes the journal's group-commit window before returning, so every
acknowledged event is on disk and ``repro resume`` picks up exactly
where the stream stopped.

High-throughput clients should prefer the batched ``feed`` op —
``{"op": "feed", "events": [{...}, ...]}`` — over per-event ``submit``
lines: one request line, one validation sweep and one journal commit
window cover the whole batch (see
:meth:`~repro.service.AdmissionService.feed_events`).
"""

from __future__ import annotations

import json
import sys

from .service import AdmissionService

__all__ = ["serve_lines", "serve_stdio"]

#: Default request-line byte cap (also the async server's default).
MAX_LINE_BYTES = 1 << 20


def _overlimit_response(limit: int) -> dict:
    return {
        "ok": False,
        "error": (f"request line exceeds {limit} bytes; "
                  "split the batch or raise --max-line-bytes"),
    }


def serve_lines(service: AdmissionService, lines, emit, *,
                max_line_bytes: int = MAX_LINE_BYTES) -> dict | None:
    """The shared loop: JSON-decode each line, handle, emit the response.

    Returns the ``close`` response when one was served, else ``None``
    (the input stream ended first — the journal then carries whatever
    was applied, ready for ``repro resume``).  Lines longer than
    ``max_line_bytes`` are rejected with an ``{"ok": false}`` response
    without being parsed.
    """
    for line in lines:
        if len(line) > max_line_bytes + 1:  # +1: the newline itself
            emit(_overlimit_response(max_line_bytes))
            continue
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
        except ValueError as exc:
            emit({"ok": False, "error": f"bad request JSON: {exc}"})
            continue
        if not isinstance(req, dict):
            emit({"ok": False, "error": "request must be a JSON object"})
            continue
        resp = service.handle(req)
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
