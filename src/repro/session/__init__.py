"""The reusable admission-session kernel.

:class:`AdmissionSession` extracts the replay event loop — ledger +
policy + metrics accumulation — behind ``submit(event) -> Decision``,
``snapshot()`` and ``close() -> ReplayResult``, so the in-process replay
drivers (:func:`~repro.online.driver.replay`, the sharded per-shard
workers, the boundary pass) and the long-lived
:class:`~repro.service.AdmissionService` all run the *same* loop with
byte-identical decisions.
"""

from .kernel import (
    AdmissionSession,
    Decision,
    ReplayResult,
    assemble_result,
    certificate_of,
)

__all__ = [
    "AdmissionSession",
    "Decision",
    "ReplayResult",
    "assemble_result",
    "certificate_of",
]
