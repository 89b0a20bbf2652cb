"""Demands and demand instances (Section 2 and Section 6 of the paper).

A *demand* is owned by exactly one processor and names a pair of vertices,
a profit, and (in the arbitrary-height case, Section 6) a bandwidth
requirement ``height ∈ (0, 1]``.  For every tree-network the owning
processor can access, the demand spawns a *demand instance* — a copy tied
to that network whose route is the unique tree path between the endpoints.

On line-networks with windows (Section 7) a demand instead carries a
window ``[release, deadline]`` and a processing time; it spawns one
instance per accessible resource *and* per feasible placement of the
processing interval inside the window.

Instances are the unit the primal-dual machinery works with: the LP has
one variable per instance, the conflict graph has one vertex per instance,
and the framework raises/selects instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Demand",
    "WindowDemand",
    "TreeDemandInstance",
    "LineDemandInstance",
    "is_narrow",
    "is_wide",
]

#: Heights at most 1/2 are *narrow*, above 1/2 are *wide* (Section 6).
NARROW_THRESHOLD = 0.5


def is_narrow(height: float) -> bool:
    """Whether a height classifies as narrow: ``h <= 1/2`` (Section 6)."""
    return height <= NARROW_THRESHOLD


def is_wide(height: float) -> bool:
    """Whether a height classifies as wide: ``h > 1/2`` (Section 6)."""
    return height > NARROW_THRESHOLD


def _check_profit(demand_id: int, profit: float) -> None:
    """Profits must be positive and finite (a NaN fails no ``<=`` test,
    so it needs the explicit finiteness check)."""
    if profit <= 0:
        raise ValueError(f"demand {demand_id}: profit must be positive")
    if not math.isfinite(profit):
        raise ValueError(f"demand {demand_id}: profit must be finite, "
                         f"got {profit}")


@dataclass(frozen=True, slots=True)
class Demand:
    """A point-to-point demand on tree-networks.

    Attributes
    ----------
    demand_id:
        Index of the demand; also the id of the owning processor (the
        paper has a 1:1 processor/demand correspondence).
    u, v:
        Endpoints (vertices of the shared vertex set).  ``u != v``.
    profit:
        Strictly positive, finite profit ``p(a)``.
    height:
        Bandwidth requirement ``h(a) ∈ (0, 1]``; 1.0 is the unit case.
    """

    demand_id: int
    u: int
    v: int
    profit: float
    height: float = 1.0

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"demand {self.demand_id}: endpoints must differ")
        _check_profit(self.demand_id, self.profit)
        if not (0.0 < self.height <= 1.0):
            raise ValueError(
                f"demand {self.demand_id}: height must lie in (0, 1], "
                f"got {self.height}"
            )

    @property
    def narrow(self) -> bool:
        """Narrow iff ``height <= 1/2`` (Section 6)."""
        return is_narrow(self.height)


@dataclass(frozen=True, slots=True)
class WindowDemand:
    """A demand on line-networks with a window (Section 7).

    The job may execute on any segment of ``proc_time`` consecutive
    timeslots contained in ``[release, deadline]`` (inclusive timeslots).
    """

    demand_id: int
    release: int
    deadline: int
    proc_time: int
    profit: float
    height: float = 1.0

    def __post_init__(self) -> None:
        if self.proc_time <= 0:
            raise ValueError(f"demand {self.demand_id}: proc_time must be positive")
        if self.release > self.deadline:
            raise ValueError(
                f"demand {self.demand_id}: release {self.release} exceeds "
                f"deadline {self.deadline}"
            )
        if self.window_length < self.proc_time:
            raise ValueError(
                f"demand {self.demand_id}: window [{self.release}, "
                f"{self.deadline}] shorter than proc_time {self.proc_time}"
            )
        _check_profit(self.demand_id, self.profit)
        if not (0.0 < self.height <= 1.0):
            raise ValueError(
                f"demand {self.demand_id}: height must lie in (0, 1], "
                f"got {self.height}"
            )

    @property
    def window_length(self) -> int:
        """Number of timeslots in the window."""
        return self.deadline - self.release + 1

    @property
    def narrow(self) -> bool:
        """Narrow iff ``height <= 1/2`` (Section 6)."""
        return is_narrow(self.height)

    def placements(self) -> list[tuple[int, int]]:
        """All feasible execution intervals ``(start, end)`` in the window."""
        return [
            (s, s + self.proc_time - 1)
            for s in range(self.release, self.deadline - self.proc_time + 2)
        ]


@dataclass(frozen=True, slots=True)
class TreeDemandInstance:
    """A demand instance on a specific tree-network.

    ``path_edges`` caches the canonical edge keys of the unique route in
    the instance's tree-network (computed once by the problem container).
    """

    instance_id: int
    demand_id: int
    network_id: int
    u: int
    v: int
    profit: float
    height: float = 1.0
    path_edges: tuple = field(default=(), compare=False)

    @property
    def endpoints(self) -> tuple[int, int]:
        """The demand's vertex pair."""
        return (self.u, self.v)

    @property
    def narrow(self) -> bool:
        """Narrow iff ``height <= 1/2``."""
        return is_narrow(self.height)


@dataclass(frozen=True, slots=True)
class LineDemandInstance:
    """A demand instance on a specific line resource with a fixed interval.

    ``start``/``end`` are inclusive timeslots; the instance is *active* on
    every timeslot in between (the timeslots play the role of edges).
    """

    instance_id: int
    demand_id: int
    network_id: int
    start: int
    end: int
    profit: float
    height: float = 1.0

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(
                f"instance {self.instance_id}: start {self.start} exceeds "
                f"end {self.end}"
            )

    @property
    def interval(self) -> tuple[int, int]:
        """The inclusive timeslot interval."""
        return (self.start, self.end)

    @property
    def length(self) -> int:
        """Number of timeslots covered: ``end - start + 1``."""
        return self.end - self.start + 1

    @property
    def narrow(self) -> bool:
        """Narrow iff ``height <= 1/2``."""
        return is_narrow(self.height)
