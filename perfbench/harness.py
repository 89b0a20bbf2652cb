"""Parent-process side: spawn one fresh interpreter per repetition, drive
the serve workload's closed-loop client, and check every output.

The harness never imports the program (nor NumPy), so none of its memory
or import time lands in a measurement.  Measured children run pinned to
one CPU and the harness to another when the host has two or more, so
the client and the server of ``tree-serve`` do not share a core; the
sharded workload's child keeps every CPU for its fork workers.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

from host import RepProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
PY = sys.executable

CPUS = sorted(os.sched_getaffinity(0))
HARNESS_CPUS = set(CPUS[:1])
WORK_CPUS = set(CPUS[-1:])

#: Decision fields of ``ReplayMetrics`` (everything but timings) that a
#: served session's ``close`` must share with the in-process replay.
DECISION_FIELDS = ("policy", "events", "arrivals", "departures", "ticks",
                   "accepted", "rejected", "acceptance_ratio",
                   "realized_profit", "evictions", "forfeited_profit",
                   "penalty_paid", "penalty_adjusted_profit",
                   "dual_upper_bound", "dual_upper_bound_peak")

STATS = b'{"op": "stats"}\n'
CLOSE = b'{"op": "close"}\n'

#: Every child this process started and has not reaped yet.
LIVE: list[subprocess.Popen] = []


class RunFailed(RuntimeError):
    """A child failed in a way no metric can describe."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def pin_harness() -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, HARNESS_CPUS)


def spawn(argv: list[str], *, pinned: bool = True, stdin=None,
          stderr=None) -> subprocess.Popen:
    cpus = WORK_CPUS if pinned else set(CPUS)
    proc = subprocess.Popen(
        argv, stdin=stdin, stdout=subprocess.PIPE,
        stderr=stderr if stderr is not None else subprocess.DEVNULL,
        env=child_env(), cwd=ROOT, start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    LIVE.append(proc)
    return proc


def reap(proc: subprocess.Popen) -> float:
    """Wait for ``proc``; returns its peak RSS in MiB (from ``wait4``)."""
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(proc)
    return usage.ru_maxrss / 1024.0


def kill_all() -> None:
    """Kill and reap every live child, with whatever it forked (each
    child leads its own process group)."""
    for proc in list(LIVE):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            reap(proc)
        except ChildProcessError:
            LIVE.remove(proc)


def run_worker(args: list[str], *, pinned: bool = True) -> tuple[dict, float]:
    """Run ``worker.py <args>``; returns (its JSON result, peak RSS MiB)."""
    proc = spawn([PY, WORKER, *args], pinned=pinned,
                 stderr=subprocess.PIPE)
    out = proc.stdout.read()
    err = proc.stderr.read()
    rss = reap(proc)
    if proc.returncode != 0:
        raise RunFailed(f"worker {args[0]} exited {proc.returncode}: "
                        f"{err.decode(errors='replace')[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1]), rss


# ----------------------------------------------------------------------
# One repetition per pipeline
# ----------------------------------------------------------------------


def rep_inprocess(w, files: dict, spans: str | None) -> dict:
    """``replay`` and ``sharded``: the whole pipeline in one child."""
    args = ["rep", "--workload", w.name, "--trace", files["trace"]]
    if spans:
        args += ["--spans", spans]
    probe = RepProbe()
    doc, rss = run_worker(args, pinned=w.pipeline != "sharded")
    doc["host"] = probe.finish()
    doc["rss_mb"] = rss + doc.get("workers_rss_mb", 0.0)
    doc["attempted"] = files["events"]
    doc["failed"] = 0
    return doc


class _Line:
    """Closed-loop newline-JSON client over one child's stdio."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self.sent = 0
        self.bad = 0
        #: Milliseconds from the last request's write to its response
        #: line read (the client's own JSON decode is outside).
        self.last_ms = 0.0

    def call(self, line: bytes) -> dict:
        self.sent += 1
        t0 = time.perf_counter()
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        resp = self.proc.stdout.readline()
        self.last_ms = (time.perf_counter() - t0) * 1e3
        if not resp:
            raise RunFailed("server closed its stdout mid-run")
        doc = json.loads(resp)
        if not doc.get("ok"):
            self.bad += 1
        return doc

    def finish(self) -> float:
        self.proc.stdin.close()
        self.proc.stdout.read()
        rss = reap(self.proc)
        if self.proc.returncode != 0:
            raise RunFailed(f"server exited {self.proc.returncode}")
        return rss


def _cli(argv: list[str], spans: str | None, t_spawn: float) -> list[str]:
    if spans is None:
        return [PY, "-m", "repro", *argv]
    return [PY, WORKER, "cli", "--spans", spans, "--t-spawn",
            repr(t_spawn), "--", *argv]


def rep_serve(w, files: dict, spans: str | None, tag: str) -> dict:
    """``tree-serve``: the real ``repro serve`` child on stdio, one
    closed-loop client (this process), then ``repro resume --serve``."""
    st = w.settings
    journal = os.path.join(files["dir"], f"journal-{tag}.bin")
    if os.path.exists(journal):
        os.unlink(journal)
    argv = ["serve", "--trace", files["trace"], "--policy", w.policy,
            "--journal", journal, "--format", "binary",
            "--sync-window", str(st["sync_window"]),
            "--checkpoint-every", str(st["checkpoint_every"])]
    for key, value in w.params.items():
        argv += ["--policy-arg", f"{key}={json.dumps(value)}"]
    requests = files["requests"]
    events = files["events"]
    probe = RepProbe()
    with open(os.path.join(files["dir"], f"serve-{tag}.err"), "wb") as err:
        t_spawn = time.perf_counter()
        client = _Line(spawn(_cli(argv, spans and spans + ".serve",
                                  t_spawn), stdin=subprocess.PIPE,
                             stderr=err))
        first = client.call(STATS)
        t_ready = time.perf_counter()
        feed_ms: list[float] = []
        stats_ms: list[float] = []
        last_stats = first
        every = st["stats_every"]
        for i, line in enumerate(requests):
            client.call(line)
            feed_ms.append(client.last_ms)
            if (i + 1) % every == 0 or i + 1 == len(requests):
                last_stats = client.call(STATS)
                stats_ms.append(client.last_ms)
        closed = client.call(CLOSE)
        t_close = time.perf_counter()
        serve_rss = client.finish()
        journal_mb = os.path.getsize(journal) / 2**20

        t_resume = time.perf_counter()
        resumed = _Line(spawn(
            _cli(["resume", "--journal", journal, "--serve"],
                 spans and spans + ".resume", t_resume),
            stdin=subprocess.PIPE, stderr=err))
        stats = resumed.call(STATS)
        t_resumed = time.perf_counter()
        resume_rss = resumed.finish()
    stats_doc = stats.get("stats") or {}
    metrics = closed.get("metrics") or {}
    checks = {
        "all_ok": client.bad == 0 and resumed.bad == 0,
        "resumed_position": stats_doc.get("position") == events,
        "all_events": metrics.get("events") == events,
    }
    return {
        "wall_s": t_close - t_spawn, "setup_s": t_ready - t_spawn,
        "events": events, "resume_s": t_resumed - t_resume,
        "feed_ms": feed_ms, "stats_ms": stats_ms,
        "realized_profit": metrics.get("realized_profit"),
        "decisions": {k: metrics.get(k) for k in DECISION_FIELDS},
        "admits": metrics.get("accepted"),
        "evictions": metrics.get("evictions"),
        "fastpath": (last_stats.get("stats") or {}).get("fastpath", {}),
        "journal_mb": journal_mb,
        "rss_mb": max(serve_rss, resume_rss),
        "attempted": client.sent + resumed.sent,
        "failed": client.bad + resumed.bad,
        "checks": checks,
        "host": probe.finish(),
    }
