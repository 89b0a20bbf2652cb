"""The long-lived admission service layer.

:class:`AdmissionService` wraps an
:class:`~repro.session.AdmissionSession` behind a request/response API
(admit / release / tick / query / stats / snapshot / close), journals
every applied event to an append-only binary journal, and
warm-restarts from that journal (``AdmissionService.resume``) with
state identical to the killed instance's.  The stdin/stdout loop lives
in :mod:`repro.service.server`; the TCP front door
(:class:`~repro.service.async_server.AsyncLineServer`) lives in
:mod:`repro.service.async_server`; the CLI front ends are ``repro
serve`` (``--port`` for TCP) and ``repro resume``.  The TCP names are
exported lazily, so importing this package does not load the socket
server.
"""

from .server import serve_lines, serve_stdio
from .service import AdmissionService

__all__ = ["AdmissionService", "AsyncLineServer", "serve_async",
           "serve_lines", "serve_stdio"]

#: Names imported on first access (PEP 562), so stdio serving never
#: loads the socket server.
_LAZY = {"AsyncLineServer": ".async_server", "serve_async": ".async_server"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
