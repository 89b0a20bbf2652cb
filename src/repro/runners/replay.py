"""Parallel batch execution of (trace, policy, seed) replay jobs.

The online analogue of :class:`~repro.runners.batch.BatchRunner`: a
sweep over traces × admission policies × seeds is embarrassingly
parallel, every job being "load a trace, replay it through a policy,
record acceptance/profit/latency".  :class:`ReplayRunner` reuses the
batch runner's process pool and content-addressed result cache, and
returns the same :class:`~repro.runners.batch.RunResult` records (policy
name in the ``solver`` slot, the full metrics dict in ``stats``) so
:func:`repro.report.render_sweep` tabulates replay sweeps unchanged —
including the competitive-ratio columns when an offline benchmark
solver is configured, and the eviction/penalty-adjusted-profit columns
when preemptive policies ran, so non-preemptive and preemptive rows on
the same traces land side by side in one table.

Offline benchmark profits are computed once per distinct trace in the
parent process and injected into every job sharing that trace, so an
``exact`` benchmark is paid once per trace, not once per job.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Sequence

from .batch import (
    BatchRunner,
    RunResult,
    _document_of,
    _json_safe,
    _label_of,
    _params_with_seed,
)

__all__ = ["ReplayJob", "ReplayRunner"]


@dataclass(frozen=True)
class ReplayJob:
    """One replay: a trace, a policy name, policy parameters.

    Attributes
    ----------
    trace:
        Path to a trace file (binary, as ``repro.io.save_trace`` writes
        it, or a JSON trace document), or the in-memory trace document
        (``repro.io.trace_to_dict`` form).
    policy:
        Any :data:`~repro.online.policies.POLICY_NAMES` entry —
        ``"greedy-threshold"``, ``"dual-gated"``, ``"batch-resolve"``,
        ``"preempt-density"`` or ``"preempt-dual-gated"``.
    params:
        Keyword arguments for the policy constructor; for
        ``batch-resolve`` this includes ``solver`` / ``resolve_every`` /
        ``solver_params``, for the preemptive policies ``factor`` /
        ``penalty``.  Misspelled keys are reported as friendly errors in
        the job's ``error`` slot, not raised as ``TypeError``.
    seed:
        Convenience alias merged into
        ``params["solver_params"]["seed"]`` (batch-resolve) — recorded
        for all policies so sweep rows stay distinguishable.
    label:
        Display name for reports; defaults to the trace file stem.
    """

    trace: object
    policy: str
    params: dict = field(default_factory=dict)
    seed: int | None = None
    label: str = ""

    def document(self) -> dict:
        """The trace document (read from disk at most once, by
        :func:`repro.io.load_trace_document`; a binary file's columns
        are NumPy arrays)."""
        from ..io import load_trace_document

        return _document_of(self, self.trace, load_trace_document)

    def effective_params(self) -> dict:
        return _params_with_seed(self.params, self.seed)

    def display_label(self) -> str:
        return _label_of(self.label, self.trace)

    def trace_key(self) -> str:
        """Content hash of the trace alone (offline-benchmark memo key).

        Memoised on the job — traces can be multi-MB documents, and the
        runner consults this key several times per job.  The document is
        hashed with its columns as lists, so a format-2 JSON file and
        its binary re-save share a key.
        """
        cached = getattr(self, "_trace_key", None)
        if cached is None:
            from ..io import _array_as_list

            blob = json.dumps(self.document(), sort_keys=True,
                              default=_array_as_list)
            cached = hashlib.sha256(blob.encode()).hexdigest()
            object.__setattr__(self, "_trace_key", cached)
        return cached

    def cache_key(self) -> str:
        """Content hash of (trace, policy, config) — the memo key."""
        cached = getattr(self, "_cache_key", None)
        if cached is None:
            blob = json.dumps(
                {
                    "trace": self.trace_key(),
                    "policy": self.policy,
                    "params": _json_safe(self.effective_params()),
                },
                sort_keys=True,
            )
            cached = hashlib.sha256(blob.encode()).hexdigest()
            object.__setattr__(self, "_cache_key", cached)
        return cached


def _build_policy(policy: str, params: dict):
    from ..online import make_policy

    params = dict(params)
    seed = params.pop("seed", None)
    if policy == "batch-resolve" and seed is not None:
        solver_params = dict(params.get("solver_params") or {})
        solver_params.setdefault("seed", seed)
        params["solver_params"] = solver_params
    return make_policy(policy, **params)


def _execute_replay(payload: dict) -> dict:
    """Worker body: replay one job from its serialised payload."""
    from ..io import trace_from_dict
    from ..online import replay, with_offline

    start = time.perf_counter()
    try:
        trace = trace_from_dict(payload["document"])
        policy = _build_policy(payload["policy"], payload["params"])
        result = replay(trace, policy)
        metrics = result.metrics
        if payload.get("offline_profit") is not None:
            metrics = with_offline(metrics, payload["offline_profit"])
        stats = metrics.to_dict()
        stats["policy_stats"] = _json_safe(result.policy_stats)
        return {
            "label": payload["label"],
            "solver": payload["policy"],
            "key": payload["key"],
            "params": payload["params"],
            "profit": metrics.realized_profit,
            "size": metrics.accepted,
            "stats": stats,
            "elapsed": time.perf_counter() - start,
            "cache_hit": False,
            "error": None,
        }
    except Exception:
        return {
            "label": payload["label"],
            "solver": payload["policy"],
            "key": payload["key"],
            "params": payload["params"],
            "profit": 0.0,
            "size": 0,
            "stats": {},
            "elapsed": time.perf_counter() - start,
            "cache_hit": False,
            "error": traceback.format_exc(),
        }


class ReplayRunner(BatchRunner):
    """Run :class:`ReplayJob` lists in parallel, with memoisation.

    Parameters
    ----------
    processes, cache_dir:
        As in :class:`~repro.runners.batch.BatchRunner`.
    offline:
        Registry solver name for the per-trace offline benchmark
        (``None`` skips it).  Computed inline in the parent, at most
        once per distinct trace, and only when some job sharing the
        trace actually misses the cache.
    offline_params:
        Keyword arguments for the benchmark solver.
    """

    #: The shared :meth:`BatchRunner.run` loop fans this worker out.
    _worker = staticmethod(_execute_replay)

    def __init__(self, processes: int | None = None,
                 cache_dir: str | None = None,
                 offline: str | None = None,
                 offline_params: dict | None = None):
        super().__init__(processes=processes, cache_dir=cache_dir)
        self.offline = offline
        self.offline_params = dict(offline_params or {})
        self._offline_profits_by_trace: dict[str, float] = {}
        self._digest_by_docid: dict[int, str] = {}

    def _trace_digest(self, job: ReplayJob) -> str:
        """``job.trace_key()``, shared across jobs referencing the same
        in-memory document — a grid of 30 jobs over one trace hashes the
        (potentially multi-MB) document once, not 30 times."""
        cached = getattr(job, "_trace_key", None)
        if cached is not None:
            return cached
        doc_id = id(job.document())  # documents stay alive via the jobs
        digest = self._digest_by_docid.get(doc_id)
        if digest is None:
            digest = job.trace_key()
            self._digest_by_docid[doc_id] = digest
        else:
            object.__setattr__(job, "_trace_key", digest)
        return digest

    def _offline_for(self, job: ReplayJob) -> float | None:
        """The trace's offline-benchmark profit, computed lazily.

        Only cache-miss jobs reach here (via :meth:`_payload`), so a
        fully-cached sweep never pays the benchmark solve; distinct
        traces are still benchmarked at most once per runner.
        """
        if self.offline is None:
            return None
        profits = self._offline_profits_by_trace
        key = self._trace_digest(job)
        if key not in profits:
            from ..io import trace_from_dict
            from ..online import offline_optimum

            trace = trace_from_dict(job.document())
            profits[key] = offline_optimum(
                trace, self.offline, **self.offline_params
            )
        return profits[key]

    def _job_key(self, job: ReplayJob) -> str:
        """The memo key; mixes in the offline-benchmark configuration so
        toggling the benchmark never serves stale cached ratios."""
        self._trace_digest(job)  # seed the per-job memo before hashing
        if self.offline is None:
            return job.cache_key()
        blob = json.dumps(
            {"base": job.cache_key(), "offline": self.offline,
             "offline_params": _json_safe(self.offline_params)},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _payload(self, job: ReplayJob, key: str) -> dict:
        return {
            "document": job.document(),
            "policy": job.policy,
            "params": job.effective_params(),
            "label": job.display_label(),
            "key": key,
            "offline_profit": self._offline_for(job),
        }

    def run_grid(
        self,
        traces: Sequence,
        policies: Sequence[str],
        seeds: Sequence[int | None] = (None,),
        params: dict | None = None,
    ) -> list[RunResult]:
        """Cartesian sweep: every trace × policy × seed."""
        jobs = [
            ReplayJob(trace=t, policy=p, params=dict(params or {}), seed=seed)
            for t in traces
            for p in policies
            for seed in seeds
        ]
        return self.run(jobs)
