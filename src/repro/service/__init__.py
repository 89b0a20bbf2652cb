"""The long-lived admission service layer.

:class:`AdmissionService` wraps an
:class:`~repro.session.AdmissionSession` behind a request/response API
(admit / release / tick / query / stats / snapshot / close), journals
every applied event to an append-only JSON-lines file, and
warm-restarts from that journal (``AdmissionService.resume``) with
state identical to the killed instance's.  The stdin/stdout loop lives
in :mod:`repro.service.server`; the TCP front door
(:class:`~repro.service.async_server.AsyncLineServer`) lives in
:mod:`repro.service.async_server`; the CLI front ends are ``repro
serve`` (``--port`` for TCP) and ``repro resume``.
"""

from .async_server import AsyncLineServer, serve_async
from .server import serve_lines, serve_stdio
from .service import AdmissionService

__all__ = ["AdmissionService", "AsyncLineServer", "serve_async",
           "serve_lines", "serve_stdio"]
