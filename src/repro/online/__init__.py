"""Online admission control: streaming arrivals over the offline core.

The offline solvers admit a profit-maximizing subset of a *frozen*
demand population; this package replays the same populations as event
streams — arrivals, departures, clock ticks — through pluggable
admission policies over an incremental capacity ledger, and scores them
against the offline optimum of the identical workload.

Layering (bottom-up):

* :mod:`~repro.online.events` — Arrival/Departure/Tick, seeded Poisson /
  bursty / diurnal trace generators (serialization in :mod:`repro.io`);
* :mod:`~repro.online.state` — :class:`CapacityLedger`, O(path) admit /
  release on the shared vectorized conflict index;
* :mod:`~repro.online.policies` — ``greedy-threshold``, ``dual-gated``,
  ``batch-resolve``, plus the preemptive ``preempt-density`` and
  ``preempt-dual-gated`` (eviction with profit forfeiture and optional
  penalties);
* :mod:`~repro.online.fastpath` — the columnar batch-decision fast
  path: mutation-aware window segmentation plus vectorized kernels
  for ``greedy-threshold``, ``dual-gated`` and ``preempt-density``,
  byte-identical to the scalar loop;
* :mod:`~repro.online.driver` / :mod:`~repro.online.metrics` — the
  replay loop, acceptance/profit/latency metrics, offline benchmarks.

``replay`` and ``ReplayResult`` load :mod:`~repro.online.driver` on
first access (PEP 562): the driver runs the
:class:`~repro.session.AdmissionSession` kernel, which imports this
package's modules, so importing it here would make ``import
repro.session`` circular.
"""

import importlib

from .events import (
    ARRIVAL_PROCESSES,
    Arrival,
    Departure,
    EventTrace,
    EventView,
    Tick,
    bursty_trace,
    diurnal_trace,
    generate_trace,
    poisson_trace,
)
from .fastpath import (
    DemandGeometry,
    TraceArrays,
    geometry_of,
)
from .metrics import (
    TIMING_FIELDS,
    ReplayMetrics,
    deterministic_metrics,
    offline_optimum,
    with_offline,
)
from .policies import (
    POLICY_NAMES,
    AdmissionPolicy,
    BatchResolve,
    DualGated,
    GreedyThreshold,
    PreemptDensity,
    PreemptDualGated,
    make_policy,
)
from .state import CapacityLedger

__all__ = [
    "ARRIVAL_PROCESSES",
    "AdmissionPolicy",
    "Arrival",
    "BatchResolve",
    "CapacityLedger",
    "DemandGeometry",
    "Departure",
    "DualGated",
    "EventTrace",
    "EventView",
    "GreedyThreshold",
    "POLICY_NAMES",
    "PreemptDensity",
    "PreemptDualGated",
    "ReplayMetrics",
    "ReplayResult",
    "TIMING_FIELDS",
    "Tick",
    "TraceArrays",
    "bursty_trace",
    "deterministic_metrics",
    "diurnal_trace",
    "generate_trace",
    "geometry_of",
    "make_policy",
    "offline_optimum",
    "poisson_trace",
    "replay",
    "with_offline",
]


#: Names served by :mod:`~repro.online.driver`, imported on first use.
_EXPORTS = {"ReplayResult": ".driver", "replay": ".driver"}


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name], __name__),
                        name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
