"""Shard planning: partition a problem along decomposition cut lines.

The Section-4 decompositions already define natural *cut lines* of a
network: deleting a balancer (Section 4.2) splits a tree into subtrees,
and the depth levels of a tree decomposition (Section 4.1) slice its
edges into bands.  :class:`ShardPlanner` turns either structure into an
**edge partition** — every global edge of every network is owned by
exactly one shard — and classifies each demand by the shards its
instances' routes touch:

* a **local** demand touches edges of exactly one shard; its admission
  can be decided entirely inside that shard, concurrently with every
  other shard;
* a **boundary** demand crosses a cut: its route touches edges of two or
  more shards, so it must be serialized through the coordinator (the
  boundary pass of :class:`~repro.sharding.StreamedShardedDriver`).

Two strategies:

* ``subtree`` — repeated balancer splits (the Section 4.2 machinery):
  the tree is cut at centroids until at least ``shards`` connected
  pieces exist, and the pieces are bin-packed into shards by size.  On
  line problems the timeline's "subtrees" are its intervals, so this
  degenerates to contiguous timeslot blocks.
* ``layer`` — edges are banded by their depth in the ideal tree
  decomposition (the deeper endpoint's ``H``-depth) and the bands are
  chunked contiguously into shards with balanced edge counts.  On line
  problems this is again the contiguous block partition.

The plan also quantifies its own quality: :attr:`ShardPlan.boundary_count`
and :attr:`ShardPlan.boundary_profit` measure the population that is
*decided under different information* than in the single-ledger replay.
They are the first-order scale of the divergence, not a hard bound: a
boundary demand admitted early by the unsharded driver can block local
demands whose own decisions then differ too (knock-on effects), so
pathological traces can diverge by more.  On the pinned regression
corpus the observed divergence stays within ``boundary_profit`` /
``boundary_count`` and is change-detected there.

Sharding pays off when demands are *local* (short routes relative to the
network) and access sets keep a demand's instances on few networks; a
demand with instances on many networks almost always straddles a cut.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.conflict import gather_rows
from ..core.instance import (
    GlobalEdge,
    LineProblem,
    TreeProblem,
    subproblem_of,
)
from ..decomposition.ideal import ideal_decomposition
from ..network.tree import TreeNetwork
from ..online.events import NO_DEMAND, TICK, EventTrace, EventView

__all__ = ["ShardPlan", "ShardPlanner", "SHARD_STRATEGIES"]

#: Partition strategies :class:`ShardPlanner` understands.
SHARD_STRATEGIES = ("subtree", "layer")


# ----------------------------------------------------------------------
# Per-network edge partitions
# ----------------------------------------------------------------------


def _subtree_vertex_groups(tree: TreeNetwork, shards: int) -> list[set[int]]:
    """Cut ``tree`` at balancers into bin-packable connected pieces.

    Each split removes a centroid ``z`` (Section 4.2) and re-attaches it
    to the largest resulting piece, so every group stays a connected
    subtree and no singleton fragments appear.  Splitting continues
    until the largest group fits an ideal bin (``n / shards`` vertices)
    — merely reaching ``shards`` pieces is not enough, since one
    centroid cut can shed tiny fringe subtrees while leaving two huge
    halves — capped at ``4 × shards`` groups so the number of cut lines
    (and with it the boundary-demand population) stays bounded.  Groups
    that cannot be split further are frozen.  Fully deterministic: ties
    break on the smallest vertex id.
    """
    target = max(1, tree.n // shards)
    groups: list[set[int]] = [set(range(tree.n))]
    frozen: list[set[int]] = []
    while groups and len(groups) + len(frozen) < 4 * shards:
        groups.sort(key=lambda g: (-len(g), min(g)))
        if (len(groups) + len(frozen) >= shards
                and len(groups[0]) <= target):
            break
        g = groups.pop(0)
        if len(g) == 1:
            frozen.append(g)
            continue
        z = tree.find_balancer(g)
        pieces = tree.split_component(z, g)
        if len(pieces) <= 1:
            # A 2-vertex component (or a degenerate balancer): the split
            # would reproduce the same group.  Freeze it instead.
            frozen.append(g)
            continue
        pieces.sort(key=lambda p: (-len(p), min(p)))
        pieces[0].add(z)  # z is T-adjacent to every piece: still connected
        groups.extend(pieces)
    return groups + frozen


def _pack_groups(groups: Sequence[set[int]], shards: int) -> list[int]:
    """Bin-pack vertex groups into ``shards`` bins, largest first.

    Returns ``shard_of_group`` aligned with ``groups``.  Deterministic:
    groups are ordered by (size desc, min vertex), bins by (load, id).
    """
    order = sorted(range(len(groups)),
                   key=lambda i: (-len(groups[i]), min(groups[i])))
    loads = [0] * shards
    out = [0] * len(groups)
    for i in order:
        s = min(range(shards), key=lambda b: (loads[b], b))
        out[i] = s
        loads[s] += len(groups[i])
    return out


def _tree_edge_shards_subtree(tree: TreeNetwork, shards: int) -> dict:
    """``edge_key -> shard`` by balancer cuts + bin packing."""
    groups = _subtree_vertex_groups(tree, shards)
    shard_of_group = _pack_groups(groups, shards)
    vertex_shard = [0] * tree.n
    for gi, grp in enumerate(groups):
        for v in grp:
            vertex_shard[v] = shard_of_group[gi]
    out = {}
    for ek in tree.iter_edges():
        a, b = ek
        sa, sb = vertex_shard[a], vertex_shard[b]
        # Cut edges (endpoints in different shards) are owned by the
        # lower-numbered side; any demand using one necessarily also has
        # interior edges on at least one side, or is a single-edge path
        # that is then genuinely local to the owner.
        out[ek] = sa if sa == sb else min(sa, sb)
    return out


def _tree_edge_shards_layer(tree: TreeNetwork, shards: int) -> dict:
    """``edge_key -> shard`` by ideal-decomposition depth bands.

    Every ``T``-edge has one endpoint that is an ``H``-ancestor of the
    other (the LCA property), so the deeper endpoint's depth bands the
    edges; bands are chunked contiguously with balanced edge counts.
    """
    td = ideal_decomposition(tree)
    by_band: dict[int, list] = {}
    for ek in sorted(tree.iter_edges()):
        a, b = ek
        by_band.setdefault(max(td.depth[a], td.depth[b]), []).append(ek)
    bands = sorted(by_band)
    total = sum(len(by_band[b]) for b in bands)
    out = {}
    shard = 0
    filled = 0
    for i, band in enumerate(bands):
        for ek in by_band[band]:
            out[ek] = shard
        filled += len(by_band[band])
        remaining_bands = len(bands) - i - 1
        # Close the chunk once it reaches its fair share, as long as the
        # remaining bands can still populate the remaining shards.
        if (shard < shards - 1 and remaining_bands >= shards - shard - 1
                and filled * shards >= total * (shard + 1)):
            shard += 1
    return out


def _line_slot_shards(n_slots: int, shards: int) -> dict:
    """``timeslot -> shard``: contiguous equal blocks of the timeline."""
    return {t: min(t * shards // n_slots, shards - 1)
            for t in range(n_slots)}


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------


@dataclass
class ShardPlan:
    """An edge partition plus the demand routing it induces.

    Attributes
    ----------
    problem:
        The full problem the plan partitions.
    n_shards:
        Number of shards (bins); some may own no demands.
    by:
        The strategy that produced the plan (``subtree`` / ``layer``).
    edge_shard:
        ``global edge -> owning shard`` over every edge of every network.
    demand_shards:
        ``demand_shards[d]`` — sorted tuple of the shards demand ``d``'s
        instance routes touch (length 1 = local, >1 = boundary).
    shard_demands:
        Per shard, the *local* demand ids in ascending order (these
        become the shard subproblem's demands ``0..k-1`` in order).
    boundary_demands:
        Demand ids crossing a cut, ascending.
    """

    problem: TreeProblem | LineProblem
    n_shards: int
    by: str
    edge_shard: dict[GlobalEdge, int]
    demand_shards: list[tuple[int, ...]]
    shard_demands: list[list[int]]
    boundary_demands: list[int]
    _subproblems: dict = field(default_factory=dict, repr=False)
    _instance_maps: dict = field(default_factory=dict, repr=False)
    _routing: tuple | None = field(default=None, repr=False)

    # -- classification ------------------------------------------------

    def shards_of(self, demand_id: int) -> tuple[int, ...]:
        """The shards demand ``demand_id``'s routes touch."""
        return self.demand_shards[demand_id]

    def is_boundary(self, demand_id: int) -> bool:
        """Whether the demand crosses a cut (needs the broker)."""
        return len(self.demand_shards[demand_id]) > 1

    def shard_of(self, demand_id: int) -> int:
        """The owning shard of a *local* demand.

        Raises
        ------
        ValueError
            If the demand is a boundary demand.
        """
        shards = self.demand_shards[demand_id]
        if len(shards) != 1:
            raise ValueError(f"demand {demand_id} is a boundary demand")
        return shards[0]

    @property
    def boundary_count(self) -> int:
        """Number of cut-crossing demands — the first-order scale of the
        acceptance divergence vs the single-ledger replay (knock-on
        effects through local demands can exceed it; see the module
        docstring)."""
        return len(self.boundary_demands)

    @property
    def boundary_profit(self) -> float:
        """Total profit of cut-crossing demands — the first-order scale
        of the profit divergence vs the single-ledger replay."""
        profit = self.problem.columns["profit"]
        return math.fsum(profit[self.boundary_demands].tolist())

    # -- per-shard materialization ------------------------------------

    def subproblem(self, s: int):
        """Shard ``s``'s local demands as a standalone problem.

        Demand ids are densified in ascending global order; networks and
        access sets are shared with the full problem, so every local
        route is bit-identical to its global counterpart.
        """
        if s not in self._subproblems:
            self._subproblems[s] = subproblem_of(
                self.problem, self.shard_demands[s]
            )
        return self._subproblems[s]

    def _demand_routing(self) -> tuple[np.ndarray, np.ndarray]:
        """``(shard, local id)`` columns over the demands: the owning
        shard and the demand's rank in it, ``-1`` for a boundary
        demand."""
        if self._routing is None:
            m = self.problem.num_demands
            shard = np.full(m, -1, dtype=np.int64)
            local = np.full(m, -1, dtype=np.int64)
            for s, ids in enumerate(self.shard_demands):
                rows = np.asarray(ids, dtype=np.int64)
                shard[rows] = s
                local[rows] = np.arange(len(rows), dtype=np.int64)
            self._routing = (shard, local)
        return self._routing

    def _event_shards(self, events: EventView) -> np.ndarray:
        """The shard of every event's demand (``-1`` for a boundary
        demand; ticks read demand 0's and are masked by the callers)."""
        shard, _ = self._demand_routing()
        return shard[np.where(events.kind == TICK, 0, events.demand)]

    def shard_stream(self, s: int, events: EventView) -> EventView:
        """Shard ``s``'s part of ``events``: its local demands' arrivals
        and departures (demand ids densified) plus every tick, in the
        original order — selected on the columns."""
        _, local = self._demand_routing()
        tick = events.kind == TICK
        keep = tick | (self._event_shards(events) == s)
        demand = events.demand[keep]
        return EventView(events.kind[keep], events.time[keep],
                         np.where(tick[keep], NO_DEMAND,
                                  local[np.maximum(demand, 0)]))

    def subtrace(self, s: int, trace: EventTrace) -> EventTrace:
        """Shard ``s``'s event stream (:meth:`shard_stream`) over its
        subproblem."""
        meta = dict(trace.meta)
        meta.update({"shard": s, "shards": self.n_shards,
                     "shard_by": self.by})
        return EventTrace(problem=self.subproblem(s),
                          events=self.shard_stream(s, trace.events),
                          meta=meta)

    def boundary_events(self, trace: EventTrace) -> EventView:
        """The serialized stream: boundary arrivals/departures (global
        demand ids) plus every tick, in the original time order.  Empty
        when no demand crosses a cut."""
        events = trace.events
        if not self.boundary_demands:
            return events[:0]
        return events[(events.kind == TICK)
                      | (self._event_shards(events) == -1)]

    # -- instance-id mapping -------------------------------------------

    def instance_map(self, s: int) -> list[int]:
        """``local instance id -> global instance id`` for shard ``s``.

        The shard's instances are its demands' candidates in local
        demand order, and each demand's candidates keep their global
        order (network, then placement), so the map is the global
        candidate CSR's rows for the shard's demands, back to back.
        """
        if s not in self._instance_maps:
            index = self.problem.conflict_index()
            gids, _ = gather_rows(
                index._cand_indptr, index._cand_iids,
                np.asarray(self.shard_demands[s], dtype=np.int64))
            self._instance_maps[s] = gids.tolist()
        return self._instance_maps[s]

    def global_instance_of(self, s: int, local_iid: int) -> int:
        """Global instance id of shard ``s``'s local instance."""
        return self.instance_map(s)[local_iid]

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict:
        """JSON-safe plan summary for reports and archived metrics."""
        edge_counts = [0] * self.n_shards
        for s in self.edge_shard.values():
            edge_counts[s] += 1
        return {
            "shards": self.n_shards,
            "by": self.by,
            "demands": self.problem.num_demands,
            "local_demands": [len(ids) for ids in self.shard_demands],
            "edges_per_shard": edge_counts,
            "boundary_demands": self.boundary_count,
            "boundary_fraction": (self.boundary_count
                                  / max(self.problem.num_demands, 1)),
            "boundary_profit": self.boundary_profit,
        }


class ShardPlanner:
    """Builds :class:`ShardPlan` objects for a strategy.

    Parameters
    ----------
    by:
        ``"subtree"`` (balancer cuts) or ``"layer"`` (decomposition
        depth bands); both degenerate to contiguous timeslot blocks on
        line problems.
    """

    def __init__(self, by: str = "subtree"):
        if by not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {by!r}; want one of "
                f"{SHARD_STRATEGIES}"
            )
        self.by = by

    def plan(self, problem, shards: int) -> ShardPlan:
        """Partition ``problem`` into ``shards`` shards."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        edge_shard: dict[GlobalEdge, int] = {}
        if isinstance(problem, TreeProblem):
            for q, net in enumerate(problem.networks):
                part = (_tree_edge_shards_subtree(net, shards)
                        if self.by == "subtree"
                        else _tree_edge_shards_layer(net, shards))
                for ek, s in part.items():
                    edge_shard[(q, ek)] = s
        elif isinstance(problem, LineProblem):
            slots = _line_slot_shards(problem.n_slots, shards)
            for q in range(problem.num_networks):
                for t, s in slots.items():
                    edge_shard[(q, t)] = s
        else:
            raise TypeError(f"cannot shard {type(problem).__name__}")

        # Demand -> shards from the route CSR: every route entry's
        # (demand, shard) pair, deduplicated in one sort.
        index = problem.conflict_index()
        shard_of_edge = np.fromiter(
            (edge_shard[key] for key in index._edge_keys), dtype=np.int64,
            count=index.num_edges)
        owner = np.repeat(index._dem, np.diff(index._indptr))
        pairs = np.unique(owner * shards + shard_of_edge[index._flat_edges])
        pair_demand = pairs // shards
        pair_shard = (pairs % shards).tolist()
        ptr = np.searchsorted(pair_demand,
                              np.arange(problem.num_demands + 1))
        bounds = ptr.tolist()
        demand_shards = [tuple(pair_shard[a:b])
                         for a, b in zip(bounds, bounds[1:])]
        counts = np.diff(ptr)
        local = np.flatnonzero(counts == 1)
        first_shard = pairs[ptr[local]] % shards
        shard_demands = [local[first_shard == s].tolist()
                         for s in range(shards)]
        boundary = np.flatnonzero(counts != 1).tolist()
        return ShardPlan(
            problem=problem,
            n_shards=shards,
            by=self.by,
            edge_shard=edge_shard,
            demand_shards=demand_shards,
            shard_demands=shard_demands,
            boundary_demands=boundary,
        )
