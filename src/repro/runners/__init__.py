"""Batch experiment execution: parallel runners and result caching."""

from .batch import BatchRunner, Job, RunResult
from .replay import ReplayJob, ReplayRunner

__all__ = [
    "BatchRunner",
    "Job",
    "ReplayJob",
    "ReplayRunner",
    "RunResult",
]
