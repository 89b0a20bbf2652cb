"""Zero-dependency observability: metrics, tracing, provenance, top.

The layer the rest of the system threads through:

* :mod:`repro.obs.metrics` — counters / gauges / fixed-edge histograms
  behind a :class:`MetricsRegistry` with deterministic ``export()`` and
  Prometheus text exposition (``repro serve --metrics-port``).
* :mod:`repro.obs.tracing` — ``perf_counter_ns`` span tracing into a
  lock-free per-process flight-recorder ring, dumpable as Chrome
  ``trace_event`` JSON (``{"op": "trace"}``, ``repro trace``, atexit
  crash dump).
* :mod:`repro.obs.explain` — per-demand decision provenance
  (``{"op": "explain", "demand": k}``).
* :mod:`repro.obs.dashboard` — ``repro top``, the live optimality
  dashboard (events/s, admit/reject/evict rates, commit lag,
  profit vs ``OPT≤(dual)`` gap); its names are exported lazily, so a
  serving process does not load it.

Everything is stdlib-only, off by default, and write-only telemetry:
with recording disabled the instrumented hot paths pay one attribute
check, and timing never feeds an admission decision, so the replay's
bit-exact determinism (and the DET003 lint contract) is untouched.
"""

from .explain import explain_demand
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    start_metrics_server,
)
from .tracing import (
    RECORDER,
    FlightRecorder,
    chrome_trace,
    disable,
    enable,
    install_crash_dump,
    is_enabled,
    record_complete,
    span,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RECORDER",
    "chrome_trace",
    "disable",
    "enable",
    "explain_demand",
    "fetch_stats",
    "install_crash_dump",
    "is_enabled",
    "record_complete",
    "render_dashboard",
    "request_once",
    "run_top",
    "span",
    "start_metrics_server",
]

#: The dashboard's names, imported on first access (PEP 562), so a
#: serving process never loads the dashboard's socket client.
_LAZY = {"fetch_stats": ".dashboard", "render_dashboard": ".dashboard",
         "request_once": ".dashboard", "run_top": ".dashboard"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
