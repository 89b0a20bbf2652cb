"""Event model and seeded trace generators for online admission control.

The offline problems freeze every demand up front; the online subsystem
replays the same demand populations as *streams*: demands arrive over
continuous time, may depart (releasing their bandwidth), and the
simulation clock emits periodic ticks that batching policies can hook.

A trace is self-contained: it bundles the problem (networks, access
sets, and one demand per arrival, in arrival order) with the event
sequence, so the offline optimum of the exact same workload is just
``registry.solve(name, trace.problem)`` — the denominator of every
competitive ratio in :mod:`repro.online.metrics`.

Three arrival processes are provided, all seeded and layered on the
existing :mod:`repro.workloads` generators:

* ``poisson``  — memoryless arrivals at a constant rate;
* ``bursty``   — a two-state modulated Poisson process (long quiet
  stretches punctuated by dense bursts, the classic adversary for
  threshold policies);
* ``diurnal``  — sinusoidally modulated intensity (a day/night cycle).

Serialization lives in :mod:`repro.io` (``save_trace`` / ``load_trace``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.instance import LineProblem, TreeProblem
from ..workloads import random_line_problem, random_tree_problem

__all__ = [
    "Arrival",
    "Departure",
    "Tick",
    "EventTrace",
    "EventView",
    "lifecycle_error",
    "ARRIVAL",
    "DEPARTURE",
    "TICK",
    "NO_DEMAND",
    "ARRIVAL_PROCESSES",
    "generate_trace",
    "poisson_trace",
    "bursty_trace",
    "diurnal_trace",
]

#: The arrival processes :func:`generate_trace` understands.
ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True, slots=True)
class Arrival:
    """Demand ``demand_id`` enters the system at ``time``."""

    time: float
    demand_id: int


@dataclass(frozen=True, slots=True)
class Departure:
    """Demand ``demand_id`` leaves at ``time``; its bandwidth frees up."""

    time: float
    demand_id: int


@dataclass(frozen=True, slots=True)
class Tick:
    """A clock edge at ``time``; batching policies may flush on it."""

    time: float


#: Event kind codes of the columnar form: :attr:`EventView.kind` and
#: the ``events.kind`` column of a trace document.
ARRIVAL = 0
DEPARTURE = 1
TICK = 2

#: The ``demand`` a tick carries in the columns.
NO_DEMAND = -1

_KIND_CODE = {Arrival: ARRIVAL, Departure: DEPARTURE, Tick: TICK}


def _event(kind: int, time: float, demand: int):
    """The event object of one column row."""
    if kind == ARRIVAL:
        return Arrival(time, demand)
    if kind == DEPARTURE:
        return Departure(time, demand)
    return Tick(time)


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array (a view when
    ``values`` already is one, so the caller's array stays writable)."""
    arr = np.asarray(values, dtype=dtype).view()
    arr.flags.writeable = False
    return arr


class EventView(Sequence):
    """A read-only event sequence stored as three NumPy columns.

    ``kind`` (int8: :data:`ARRIVAL`, :data:`DEPARTURE` or :data:`TICK`),
    ``time`` (float64) and ``demand`` (int64, :data:`NO_DEMAND` on
    ticks).  ``len``, slicing (a view over the sliced columns) and
    equality work on the columns; indexing and iteration build
    :class:`Arrival` / :class:`Departure` / :class:`Tick` objects on
    demand.  A view compares equal to another view with equal columns
    and to a list or tuple of the same event objects.
    """

    __slots__ = ("kind", "time", "demand")

    def __init__(self, kind, time, demand) -> None:
        self.kind = _frozen(kind, np.int8)
        self.time = _frozen(time, np.float64)
        self.demand = _frozen(demand, np.int64)
        if not len(self.kind) == len(self.time) == len(self.demand):
            raise ValueError(
                f"event columns differ in length: kind {len(self.kind)}, "
                f"time {len(self.time)}, demand {len(self.demand)}")

    @classmethod
    def of(cls, events) -> "EventView":
        """``events`` as a view: a view as it is, a sequence of event
        objects converted once; anything else in the sequence raises
        ``TypeError`` naming its index, before any column is built."""
        if isinstance(events, EventView):
            return events
        kind: list[int] = []
        time: list[float] = []
        demand: list[int] = []
        for i, ev in enumerate(events):
            k = _KIND_CODE.get(type(ev))  # the event classes are final
            if k is None:
                raise TypeError(f"events[{i}]: unknown event type "
                                f"{type(ev).__name__}")
            kind.append(k)
            time.append(ev.time)
            demand.append(NO_DEMAND if k == TICK else ev.demand_id)
        return cls(kind, time, demand)

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, i):
        """One event object for an integer; a view over the selected
        rows for a slice, an index array or a boolean mask."""
        if isinstance(i, (slice, np.ndarray)):
            return EventView(self.kind[i], self.time[i], self.demand[i])
        return _event(self.kind.item(i), self.time.item(i),
                      self.demand.item(i))

    def __iter__(self):
        return map(_event, self.kind.tolist(), self.time.tolist(),
                   self.demand.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, EventView):
            return (np.array_equal(self.kind, other.kind)
                    and np.array_equal(self.time, other.time)
                    and np.array_equal(self.demand, other.demand))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EventView({len(self)} events)"


#: How a trace words each :func:`lifecycle_error` rule but an arrival's
#: ``"unknown"`` (a departure of an unknown demand never arrived).
_TRACE_ERRORS = {"unknown": "demand {d} departs before arriving",
                 "arrived": "demand {d} arrives twice",
                 "early": "demand {d} departs before arriving",
                 "departed": "demand {d} departs twice"}


def lifecycle_error(events: EventView, m: int, arrived=frozenset(),
                    departed=frozenset()) -> tuple[int, str] | None:
    """The first event of ``events`` that breaks a demand's lifecycle,
    given the demands that ``arrived`` / ``departed`` before the batch:
    ``(index, rule)``, or ``None`` when every event passes.

    The rules, in the order one event is checked: ``"unknown"`` (a
    demand outside ``0 .. m-1``), ``"arrived"`` (a second arrival),
    ``"early"`` (a departure before the demand's arrival) and
    ``"departed"`` (a second departure); ticks pass.  O(batch) set
    lookups, never a per-demand mask.
    """
    seen_arr: set[int] = set()
    seen_dep: set[int] = set()
    for i, (k, d) in enumerate(zip(events.kind.tolist(),
                                   events.demand.tolist())):
        if k == TICK:
            continue
        if not 0 <= d < m:
            return i, "unknown"
        if k == ARRIVAL:
            if d in arrived or d in seen_arr:
                return i, "arrived"
            seen_arr.add(d)
        else:
            if d not in arrived and d not in seen_arr:
                return i, "early"
            if d in departed or d in seen_dep:
                return i, "departed"
            seen_dep.add(d)
    return None


@dataclass
class EventTrace:
    """A replayable stream of events over a frozen demand population.

    Attributes
    ----------
    problem:
        A :class:`~repro.core.instance.TreeProblem` or
        :class:`~repro.core.instance.LineProblem` holding one demand per
        arrival.  Demand ``i`` is the ``i``-th arrival in time order, so
        solving this problem offline yields the optimum over exactly the
        demands the stream carries.
    events:
        The events, sorted by time (arrivals precede equal-time
        departures): given as an :class:`EventView` or a sequence of
        :class:`Arrival` / :class:`Departure` / :class:`Tick` objects
        (converted once by :meth:`EventView.of`), and held as an
        :class:`EventView` either way.  The stream is validated in bulk
        on construction; an error names the first offending event.
    meta:
        Generator provenance (process, seed, rates, ...); free-form.
    """

    problem: TreeProblem | LineProblem
    events: EventView
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.events = events = EventView.of(self.events)
        m = self.problem.num_demands
        # The first offending event breaks time order or a lifecycle
        # rule (time order first at one event); then every demand must
        # have arrived.
        time = events.time
        later = np.flatnonzero(time[1:] < time[:-1])
        order = int(later[0]) + 1 if len(later) else len(events)
        hit = lifecycle_error(events, m)
        if hit is not None and hit[0] < order:
            i, rule = hit
            d = int(events.demand[i])
            if rule == "unknown" and events.kind[i] == ARRIVAL:
                raise ValueError(f"arrival of unknown demand {d}")
            raise ValueError(_TRACE_ERRORS[rule].format(d=d))
        if order < len(events):
            raise ValueError(f"events out of order: {events[order]!r} after "
                             f"time {float(time[order - 1])}")
        arrivals = int(np.count_nonzero(events.kind == ARRIVAL))
        if arrivals != m:
            raise ValueError(f"{m} demands in the problem but {arrivals} "
                             "arrivals")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    @property
    def num_arrivals(self) -> int:
        """Number of :class:`Arrival` events (== demands in the problem)."""
        return self.problem.num_demands

    @property
    def num_departures(self) -> int:
        """Number of :class:`Departure` events."""
        return int(np.count_nonzero(self.events.kind == DEPARTURE))

    @property
    def horizon(self) -> float:
        """Time of the last event (0.0 for an empty trace)."""
        return float(self.events.time[-1]) if len(self.events) else 0.0


# ----------------------------------------------------------------------
# Arrival-time processes
# ----------------------------------------------------------------------


def _arrival_times(process: str, count: int, rate: float,
                   rng: np.random.Generator) -> list[float]:
    """``count`` strictly increasing arrival times for the process."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    times: list[float] = []
    t = 0.0
    if process == "poisson":
        for gap in rng.exponential(1.0 / rate, size=count):
            t += float(gap)
            times.append(t)
    elif process == "bursty":
        # Two-state modulated Poisson: bursts run ~10x the base rate,
        # quiet phases ~1/5 of it; phase lengths are geometric in events.
        in_burst = False
        remaining = 0
        for _ in range(count):
            if remaining == 0:
                in_burst = not in_burst
                remaining = int(rng.geometric(0.08 if in_burst else 0.25))
            phase_rate = rate * (10.0 if in_burst else 0.2)
            t += float(rng.exponential(1.0 / phase_rate))
            times.append(t)
            remaining -= 1
    elif process == "diurnal":
        # Sinusoidal intensity with one full "day" per ~count/4 events at
        # the base rate; sampled by local exponential gaps.
        period = max(count / (4.0 * rate), 1e-9)
        for _ in range(count):
            lam = rate * (1.0 + 0.8 * math.sin(2.0 * math.pi * t / period))
            t += float(rng.exponential(1.0 / max(lam, 0.05 * rate)))
            times.append(t)
    else:
        raise ValueError(
            f"unknown arrival process {process!r}; want one of "
            f"{ARRIVAL_PROCESSES}"
        )
    return times


def generate_trace(
    kind: str = "line",
    *,
    events: int = 1000,
    process: str = "poisson",
    seed: int = 0,
    rate: float = 1.0,
    departure_prob: float = 0.3,
    mean_hold: float | None = None,
    tick_every: float = 0.0,
    workload: dict | None = None,
) -> EventTrace:
    """Generate a seeded event trace of (almost exactly) ``events`` events.

    The schedule is drawn first — arrival times from ``process``, each
    arrival departing with probability ``departure_prob`` after an
    exponential holding time of mean ``mean_hold`` (default: 8 mean
    interarrival gaps), ticks every ``tick_every`` time units when
    positive — then truncated to ``events`` entries, and finally the
    demand population is sampled with the surviving arrival count through
    :func:`~repro.workloads.random_tree_problem` /
    :func:`~repro.workloads.random_line_problem` (extra keywords via
    ``workload``).  Everything is driven by one
    :class:`numpy.random.Generator`, so a (kind, events, process, seed,
    ...) tuple pins the trace exactly.

    Parameters
    ----------
    kind:
        ``"tree"`` or ``"line"`` — which problem family the demands use.
    events:
        Total event budget (arrivals + departures + ticks).
    """
    if events < 1:
        raise ValueError("events must be >= 1")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not (0.0 <= departure_prob <= 1.0):
        raise ValueError("departure_prob must lie in [0, 1]")
    if kind not in ("tree", "line"):
        raise ValueError(f"unknown problem kind {kind!r}")
    rng = np.random.default_rng(seed)
    if mean_hold is None:
        mean_hold = 8.0 / rate

    times = _arrival_times(process, events, rate, rng)
    # (time, priority, arrival_index); priority orders equal-time events
    # as arrival < tick < departure.
    schedule: list[tuple[float, int, int]] = [
        (t, 0, i) for i, t in enumerate(times)
    ]
    departs = rng.random(events) < departure_prob
    holds = rng.exponential(mean_hold, size=events)
    for i, t in enumerate(times):
        if departs[i]:
            schedule.append((t + float(holds[i]), 2, i))
    if tick_every > 0:
        horizon = times[-1]
        n_ticks = int(horizon / tick_every)
        schedule.extend(
            (tick_every * (k + 1), 1, -1) for k in range(n_ticks)
        )
    schedule.sort()
    schedule = schedule[:events]

    # Renumber the surviving arrivals 0.. in time order; departures of
    # truncated arrivals cannot survive (they sort strictly later), but
    # drop them defensively anyway.
    demand_of: dict[int, int] = {}
    raw_events: list[tuple[int, float, int]] = []
    for t, prio, idx in schedule:
        if prio == 0:
            demand_of[idx] = len(demand_of)
            raw_events.append((0, t, demand_of[idx]))
        elif prio == 1:
            raw_events.append((1, t, -1))
        elif idx in demand_of:
            raw_events.append((2, t, demand_of[idx]))

    m = len(demand_of)
    workload = dict(workload or {})
    wl_seed = workload.pop("seed", int(rng.integers(0, 2**31 - 1)))
    # Mixed heights by default: fractional edge loads are what make the
    # dual-gated policy's price function informative (with unit heights
    # any loaded edge is already full, so pricing reduces to first-fit).
    if kind == "tree":
        workload.setdefault("n", 256)
        workload.setdefault("r", 1)
        workload.setdefault("height_regime", "mixed")
        problem = random_tree_problem(m=m, seed=wl_seed, **workload)
    else:
        workload.setdefault("n_slots", 512)
        workload.setdefault("r", 1)
        workload.setdefault("height_regime", "mixed")
        # Small jobs and tight windows keep the per-demand placement
        # count (and hence the instance population) bounded.
        workload.setdefault("min_len", 4)
        workload.setdefault("max_len", 16)
        workload.setdefault("window_slack", 0.25)
        problem = random_line_problem(m=m, seed=wl_seed, **workload)

    # Schedule priorities (arrival, tick, departure) → kind codes.
    code_of = (ARRIVAL, TICK, DEPARTURE)
    evs = EventView([code_of[c] for c, _, _ in raw_events],
                    [t for _, t, _ in raw_events],
                    [d for _, _, d in raw_events])
    meta = {
        "kind": kind,
        "process": process,
        "seed": int(seed),
        "events": int(events),
        "rate": float(rate),
        "departure_prob": float(departure_prob),
        "mean_hold": float(mean_hold),
        "tick_every": float(tick_every),
        "workload_seed": int(wl_seed),
    }
    return EventTrace(problem=problem, events=evs, meta=meta)


def poisson_trace(kind: str = "line", **kw) -> EventTrace:
    """:func:`generate_trace` with memoryless constant-rate arrivals."""
    return generate_trace(kind, process="poisson", **kw)


def bursty_trace(kind: str = "line", **kw) -> EventTrace:
    """:func:`generate_trace` with on/off modulated (bursty) arrivals."""
    return generate_trace(kind, process="bursty", **kw)


def diurnal_trace(kind: str = "line", **kw) -> EventTrace:
    """:func:`generate_trace` with sinusoidally modulated arrivals."""
    return generate_trace(kind, process="diurnal", **kw)
