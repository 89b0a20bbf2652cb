"""Parallel batch execution of (instance, solver, seed) jobs.

The 16 paper experiments — and any parameter sweep built on top of them —
are embarrassingly parallel: every job is "load a problem, run a
registered solver, record profit/rounds/certificates".  :class:`BatchRunner`
fans a job list across a :mod:`multiprocessing` pool, memoises results in
a content-addressed cache (instance hash + solver config), and returns
structured, JSON-serialisable :class:`RunResult` records that
:mod:`repro.report` can render and the CLI can archive.

Workers resolve solvers through :mod:`repro.algorithms.registry`, so a
sweep over heterogeneous solvers passes one parameter dict — each solver
picks out the keywords it understands.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Job", "RunResult", "BatchRunner"]


def _json_safe(value):
    """Best-effort conversion of solver stats into JSON-serialisable data."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else str(value)
    if hasattr(value, "item"):  # numpy scalars
        return _json_safe(value.item())
    return str(value)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _document_of(job, source, load=_load_json) -> dict:
    """A job's document: dicts pass through, paths are read once with
    ``load`` (memoised on the frozen dataclass via
    ``object.__setattr__``)."""
    if isinstance(source, dict):
        return source
    cached = getattr(job, "_doc", None)
    if cached is None:
        cached = load(source)
        object.__setattr__(job, "_doc", cached)
    return cached


def _params_with_seed(params: dict, seed) -> dict:
    out = dict(params)
    if seed is not None:
        out["seed"] = seed
    return out


def _label_of(label: str, source) -> str:
    if label:
        return label
    if isinstance(source, str):
        return os.path.splitext(os.path.basename(source))[0]
    return "<inline>"


@dataclass(frozen=True)
class Job:
    """One unit of work: a problem, a registered solver, parameters.

    Attributes
    ----------
    problem:
        Path to a problem JSON file, or an in-memory problem document
        (the :func:`repro.io.problem_to_dict` form).
    solver:
        Registry name (see :func:`repro.algorithms.registry.names`).
    params:
        Keyword arguments for the solver; unknown keys are dropped per
        solver, so one dict can drive a mixed sweep.
    seed:
        Convenience alias merged into ``params["seed"]`` when set.
    label:
        Display name for reports; defaults to the problem file stem.
    """

    problem: object
    solver: str
    params: dict = field(default_factory=dict)
    seed: int | None = None
    label: str = ""

    def document(self) -> dict:
        """The problem as a JSON document (loaded from disk at most once)."""
        return _document_of(self, self.problem)

    def effective_params(self) -> dict:
        return _params_with_seed(self.params, self.seed)

    def display_label(self) -> str:
        return _label_of(self.label, self.problem)

    def cache_key(self) -> str:
        """Content hash of (instance, solver, config) — the memo key."""
        blob = json.dumps(
            {
                "problem": self.document(),
                "solver": self.solver,
                "params": _json_safe(self.effective_params()),
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class RunResult:
    """Outcome of one job, flat and JSON-serialisable."""

    label: str
    solver: str
    key: str
    params: dict = field(default_factory=dict)
    profit: float = 0.0
    size: int = 0
    stats: dict = field(default_factory=dict)
    elapsed: float = 0.0
    cache_hit: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "solver": self.solver,
            "key": self.key,
            "params": _json_safe(self.params),
            "profit": self.profit,
            "size": self.size,
            "stats": _json_safe(self.stats),
            "elapsed": self.elapsed,
            "cache_hit": self.cache_hit,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunResult":
        return cls(**{k: doc.get(k) for k in (
            "label", "solver", "key", "params", "profit", "size", "stats",
            "elapsed", "cache_hit", "error",
        )})


def _execute(payload: dict) -> dict:
    """Worker body: run one job from its serialised payload."""
    from ..algorithms import registry
    from ..io import problem_from_dict

    start = time.perf_counter()
    try:
        problem = problem_from_dict(payload["document"])
        solution = registry.solve(
            payload["solver"], problem, **payload["params"]
        )
        return {
            "label": payload["label"],
            "solver": payload["solver"],
            "key": payload["key"],
            "params": payload["params"],
            "profit": solution.profit,
            "size": solution.size,
            "stats": _json_safe(solution.stats),
            "elapsed": time.perf_counter() - start,
            "cache_hit": False,
            "error": None,
        }
    except Exception:
        return {
            "label": payload["label"],
            "solver": payload["solver"],
            "key": payload["key"],
            "params": payload["params"],
            "profit": 0.0,
            "size": 0,
            "stats": {},
            "elapsed": time.perf_counter() - start,
            "cache_hit": False,
            "error": traceback.format_exc(),
        }


class BatchRunner:
    """Run a list of :class:`Job` objects, in parallel, with memoisation.

    Parameters
    ----------
    processes:
        Pool size.  ``None`` uses the CPU count; ``0`` or ``1`` runs the
        jobs inline (deterministic, no fork — what tests and small
        sweeps want).
    cache_dir:
        Directory of memoised results.  ``None`` disables caching.
    """

    def __init__(self, processes: int | None = None,
                 cache_dir: str | None = None):
        self.processes = processes
        self.cache_dir = cache_dir
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # -- cache ----------------------------------------------------------

    def _cache_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _cache_load(self, key: str) -> dict | None:
        if not self.cache_dir:
            return None
        path = self._cache_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def _cache_store(self, key: str, doc: dict) -> None:
        if not self.cache_dir:
            return
        tmp = self._cache_path(key) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, self._cache_path(key))

    # -- hooks (overridden by ReplayRunner) -----------------------------

    #: Module-level worker the pool maps over (must be picklable).
    _worker = staticmethod(_execute)

    def _job_key(self, job) -> str:
        """The memo key for a job."""
        return job.cache_key()

    def _payload(self, job, key: str) -> dict:
        """The serialised work unit handed to the pool worker."""
        return {
            "document": job.document(),
            "solver": job.solver,
            "params": job.effective_params(),
            "label": job.display_label(),
            "key": key,
        }

    # -- execution ------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> list[RunResult]:
        """Execute all jobs; results come back in job order."""
        payloads: list[dict | None] = []
        results: list[dict | None] = [None] * len(jobs)
        for i, job in enumerate(jobs):
            key = self._job_key(job)
            cached = self._cache_load(key)
            if cached is not None:
                cached["cache_hit"] = True
                cached["label"] = job.display_label()
                results[i] = cached
                payloads.append(None)
            else:
                payloads.append(self._payload(job, key))

        pending = [(i, p) for i, p in enumerate(payloads) if p is not None]
        if pending:
            nproc = self.processes
            if nproc is None:
                nproc = os.cpu_count() or 1
            nproc = min(nproc, len(pending))
            worker = type(self)._worker
            if nproc > 1:
                import multiprocessing as mp

                with mp.Pool(nproc) as pool:
                    outs = pool.map(worker, [p for _, p in pending])
            else:
                outs = [worker(p) for _, p in pending]
            for (i, _), out in zip(pending, outs):
                results[i] = out
                if out["error"] is None:
                    self._cache_store(out["key"], out)
        return [RunResult.from_dict(doc) for doc in results]

    def run_grid(
        self,
        problems: Sequence,
        solvers: Sequence[str],
        seeds: Sequence[int | None] = (None,),
        params: dict | None = None,
    ) -> list[RunResult]:
        """Cartesian sweep: every problem × solver × seed."""
        jobs = [
            Job(problem=p, solver=s, params=dict(params or {}), seed=seed)
            for p in problems
            for s in solvers
            for seed in seeds
        ]
        return self.run(jobs)
