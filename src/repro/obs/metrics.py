"""Zero-dependency metrics registry with Prometheus text exposition.

Three instrument kinds, all plain Python objects with one-slot hot
methods:

* :class:`Counter` — monotonically increasing count (``inc``); can be
  re-seeded from restored state after ``repro resume`` so dashboards
  stay continuous across warm restarts.
* :class:`Gauge` — last-write-wins value (``set``).
* :class:`Histogram` — fixed bucket edges chosen at construction,
  cumulative-bucket export, bucketed quantiles.  Histograms that
  observe *monotonic time* are marked ``timing=True`` and excluded
  from ``export(include_timing=False)``, mirroring the
  ``deterministic_metrics`` split in ``repro.online.metrics``: the
  deterministic view must be byte-stable across identical replays.

:meth:`MetricsRegistry.export` walks names in sorted order and returns
plain dicts/lists only, so ``json.dumps`` of two identical replays is
byte-identical.  :meth:`MetricsRegistry.render_prometheus` produces
the text exposition served by ``{"op":"stats"}`` and by the optional
``repro serve --metrics-port`` scrape endpoint
(:func:`start_metrics_server`, a stdlib ``http.server`` on a daemon
thread).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = ["Counter", "Gauge", "Histogram", "LOG_BUCKETS_US",
           "MetricsRegistry", "start_metrics_server"]

#: Default latency bucket edges, in microseconds (50µs .. 100ms).
DEFAULT_BUCKETS_US = (50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
                      5000.0, 10000.0, 25000.0, 50000.0, 100000.0)

#: Log-spaced latency bucket edges, in microseconds: 2^(k/4) from
#: 0.25µs to ~67s.  Adjacent edges differ by 2^¼ (~19%), which bounds
#: the error of :meth:`Histogram.quantile` on samples in that range.
LOG_BUCKETS_US = tuple(2.0 ** (k / 4) for k in range(-8, 105))


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    timing = False
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset_to(self, value) -> None:
        """Re-seed after restoring state (resume continuity)."""
        self.value = value

    def export(self):
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-write-wins scalar."""

    kind = "gauge"
    timing = False
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def export(self):
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-edge histogram with cumulative-bucket Prometheus export.

    ``timing=True`` marks a histogram fed from monotonic clocks; the
    deterministic export view drops it (wall-dependent numbers must
    never leak into byte-stability comparisons).
    """

    kind = "histogram"
    __slots__ = ("name", "help", "edges", "counts", "sum", "count",
                 "timing")

    def __init__(self, name: str, help: str = "",
                 buckets=DEFAULT_BUCKETS_US, *, timing: bool = False):
        edges = tuple(float(b) for b in buckets)
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"bucket edges must be sorted ascending: {edges}")
        self.name = name
        self.help = help
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)  # trailing slot = +Inf
        self.sum = 0.0
        self.count = 0
        self.timing = timing

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` samples of ``value`` (no per-sample storage)."""
        self.counts[bisect_left(self.edges, value)] += count
        self.sum += value * count
        self.count += count

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) by Prometheus'
        ``histogram_quantile`` rule: linear interpolation inside the
        bucket holding rank ``q * count`` (the first bucket starts at
        0, the overflow bucket reports the last edge); 0.0 when empty.
        """
        if not self.count:
            return 0.0
        rank = q * self.count
        acc = 0
        for i, c in enumerate(self.counts):
            if c and acc + c >= rank:
                break
            acc += c
        edges = self.edges
        if i == len(edges):
            return edges[-1]
        lo = edges[i - 1] if i else min(0.0, edges[0])
        return lo + (edges[i] - lo) * (rank - acc) / c

    def export(self):
        cum, acc = [], 0
        for c in self.counts:
            acc += c
            cum.append(acc)
        return {
            "kind": self.kind,
            "buckets": [[e, n] for e, n in zip(self.edges, cum)],
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Get-or-create home for named instruments.

    Accessors return the existing instrument when the name is already
    registered (and refuse to change its kind), so call sites never
    need to coordinate registration order.
    """

    def __init__(self):
        self._metrics: dict = {}

    def _get(self, name: str, cls, *args, **kwargs):
        m = self._metrics.get(name)
        if m is None:
            m = cls(name, *args, **kwargs)
            self._metrics[name] = m
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}")
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help)

    def histogram(self, name: str, help: str = "",
                  buckets=DEFAULT_BUCKETS_US, *,
                  timing: bool = False) -> Histogram:
        return self._get(name, Histogram, help, buckets, timing=timing)

    def register(self, metric):
        """Adopt an instrument built elsewhere, under its own name."""
        if self._metrics.setdefault(metric.name, metric) is not metric:
            raise ValueError(f"metric {metric.name!r} already registered")
        return metric

    def export(self, include_timing: bool = True) -> dict:
        """All instruments as a deterministic, JSON-safe dict.

        Names are emitted sorted; ``include_timing=False`` drops
        monotonic-time histograms so the result is byte-stable across
        two identical replays.
        """
        out = {}
        for name in sorted(self._metrics):
            m = self._metrics[name]
            if not include_timing and m.timing:
                continue
            out[name] = m.export()
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines = []
        for name in sorted(self._metrics):
            m = self._metrics[name]
            if m.help:
                lines.append(f"# HELP {name} {m.help}")
            lines.append(f"# TYPE {name} {m.kind}")
            if m.kind == "histogram":
                acc = 0
                for edge, c in zip(m.edges, m.counts):
                    acc += c
                    lines.append(f'{name}_bucket{{le="{edge:g}"}} {acc}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {m.count}')
                lines.append(f"{name}_sum {m.sum:g}")
                lines.append(f"{name}_count {m.count}")
            else:
                value = m.value
                if value is None:
                    value = "NaN"
                elif isinstance(value, float):
                    value = f"{value:g}"
                lines.append(f"{name} {value}")
        return "\n".join(lines) + "\n"


def start_metrics_server(registry: MetricsRegistry, port: int = 0,
                         host: str = "127.0.0.1", on_scrape=None):
    """Serve ``registry.render_prometheus()`` over HTTP on a daemon
    thread; returns the (already running) ``HTTPServer``.

    ``on_scrape`` runs before each render — the service passes its
    metric-sync hook so scrapes see fresh gauges.  ``port=0`` binds an
    ephemeral port; read it back from ``server.server_address[1]``.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            if on_scrape is not None:
                try:
                    on_scrape()
                except Exception:
                    pass  # a broken sync hook must not kill the scrape
            body = registry.render_prometheus().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):
            pass  # scrapes should not spam the service's stderr

    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-metrics", daemon=True)
    thread.start()
    return server
