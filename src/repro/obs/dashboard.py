"""``repro top`` — the live optimality dashboard, and ``repro trace``.

A tiny newline-delimited-JSON client polls a running service's
``{"op": "stats"}`` endpoint and renders a refreshing terminal view:
event throughput (from stream-position deltas between polls),
admit/reject/evict rates, journal commit lag, the async front door's
connection counters, and the headline number the ROADMAP asks for —
realized profit against the policy's live LP-dual upper bound
``OPT≤(dual)``, i.e. how far the online run provably sits from
offline optimal *right now*.

Rendering is split from polling: :func:`render_dashboard` is a pure
function of two stats snapshots and the wall interval, so tests drive
it without a terminal, and :func:`run_top` is the loop the CLI runs
(ANSI home+clear when writing to a TTY, plain blocks otherwise).
"""

from __future__ import annotations

import json
import socket
import sys
import time

__all__ = ["fetch_stats", "render_dashboard", "request_once", "run_top"]


def request_once(host: str, port: int, req: dict, *,
                 timeout: float = 10.0) -> dict:
    """One request/response round trip against a line server."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall((json.dumps(req) + "\n").encode("utf-8"))
        with sock.makefile("r", encoding="utf-8") as rd:
            line = rd.readline()
    if not line:
        raise ConnectionError(f"no response from {host}:{port}")
    return json.loads(line)


def fetch_stats(host: str, port: int, *, timeout: float = 10.0) -> dict:
    """The ``stats`` payload of a running service."""
    resp = request_once(host, port, {"op": "stats"}, timeout=timeout)
    if not resp.get("ok"):
        raise RuntimeError(f"stats request failed: {resp.get('error')}")
    return resp["stats"]


def _rate(cur: dict, prev: dict | None, key: str, dt: float) -> float:
    if prev is None or dt <= 0:
        return 0.0
    return ((cur.get(key) or 0) - (prev.get(key) or 0)) / dt


def _fmt(value, spec: str = "", none: str = "-") -> str:
    if value is None:
        return none
    return format(value, spec)


def render_dashboard(cur: dict, prev: dict | None, dt: float) -> str:
    """One dashboard frame from two consecutive stats snapshots."""
    arrivals = cur.get("arrivals") or 0
    accepted = cur.get("accepted") or 0
    rejected = arrivals - accepted
    profit = cur.get("realized_profit")
    dual = cur.get("dual_upper_bound")
    gap = None
    if profit is not None and dual:
        gap = (dual - profit) / dual
    server = cur.get("server") or {}
    lines = [
        "repro top — live admission dashboard",
        "",
        f"  position        {cur.get('position', 0):>12}"
        f"    events/s   {_rate(cur, prev, 'position', dt):>10.1f}",
        f"  arrivals        {arrivals:>12}"
        f"    admits/s   {_rate(cur, prev, 'accepted', dt):>10.1f}",
        f"  accepted        {accepted:>12}"
        f"    rejects/s  {_rate(cur, prev, 'arrivals', dt) - _rate(cur, prev, 'accepted', dt):>10.1f}",
        f"  rejected        {rejected:>12}"
        f"    evicts/s   {_rate(cur, prev, 'evictions', dt):>10.1f}",
        f"  evictions       {cur.get('evictions', 0):>12}"
        f"    admitted   {cur.get('num_admitted', 0):>10}",
        f"  utilization     {_fmt(cur.get('utilization'), '12.4f')}",
        "",
        f"  realized profit {_fmt(profit, '12.3f')}",
        f"  OPT<=(dual)     {_fmt(dual, '12.3f')}",
        f"  optimality gap  {_fmt(None if gap is None else 100 * gap, '11.2f')}%"
        f"    policy     {cur.get('policy', '-'):>14}",
        "",
        f"  commit lag      {_fmt(cur.get('commit_lag'), '>12')}"
        f"    journaled  {str(bool(cur.get('journaled'))):>10}",
        f"  clients         {_fmt(server.get('clients'), '>12')}"
        f"    backpress. {_fmt(server.get('backpressured_clients'), '>10')}",
        f"  requests        {_fmt(server.get('requests_total'), '>12')}"
        f"    queue      {_fmt(server.get('dispatch_queue_depth'), '>10')}",
    ]
    return "\n".join(lines)


def run_top(host: str, port: int, *, interval: float = 1.0,
            iterations: int | None = None, out=None) -> int:
    """Poll stats and redraw until interrupted (or ``iterations``).

    Returns the number of frames rendered.  ``out`` defaults to stdout;
    ANSI clear-and-home is only emitted when ``out`` is a terminal.
    """
    out = sys.stdout if out is None else out
    is_tty = bool(getattr(out, "isatty", lambda: False)())
    prev = None
    prev_t = None
    frames = 0
    try:
        while iterations is None or frames < iterations:
            cur = fetch_stats(host, port)
            now = time.monotonic()
            dt = (now - prev_t) if prev_t is not None else 0.0
            frame = render_dashboard(cur, prev, dt)
            if is_tty:
                out.write("\x1b[H\x1b[2J")
            out.write(frame + "\n")
            out.flush()
            prev, prev_t = cur, now
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return frames
