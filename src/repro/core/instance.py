"""Problem containers: tree-network and line-network scheduling instances.

A problem instance bundles the vertex set, the networks, the demands, and
the *accessibility* map ``Acc(P)`` (which networks each processor/demand
can use, Section 2).  The demands are stored as NumPy **columns** (one
array per demand field plus an access CSR) and validated in bulk;
instances are expanded from them with array operations — one per
accessible network and, on lines, per placement of the processing
interval inside the window — by the problem's
:meth:`~TreeProblem.conflict_index`, which the online path reads
exclusively.  Demand and instance *objects* are built only when offline
code asks for ``demands``, ``access`` or ``instances()``.

Global edge identifiers are ``(network_id, edge_key)`` for tree problems
and ``(network_id, timeslot)`` for line problems, so dual variables
``beta(e)`` live in a single dictionary even across networks.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

import numpy as np

from ..network.line import LineNetwork
from ..network.tree import TreeNetwork
from .conflict import ConflictIndex, gather_rows
from .demand import (
    Demand,
    LineDemandInstance,
    TreeDemandInstance,
    WindowDemand,
)

__all__ = ["TreeProblem", "LineProblem", "GlobalEdge", "subproblem_of"]

#: ``(network_id, edge_key)`` for trees, ``(network_id, timeslot)`` for lines.
GlobalEdge = tuple[int, Hashable]

#: A bulk check: per-demand failure mask, and the error naming demand ``i``.
Check = tuple[np.ndarray, Callable[[int], str]]


def subproblem_of(problem: "TreeProblem | LineProblem",
                  demand_ids: Sequence[int],
                  extra_demands: Sequence = (),
                  extra_access: Sequence = ()) -> "TreeProblem | LineProblem":
    """A standalone problem over a subset of ``problem``'s demands.

    Demand ids are densified to ``0 ..`` in ``demand_ids`` order (then
    any ``extra_demands``, renumbered to continue the sequence, each
    paired with its ``extra_access`` set); networks and access sets are
    shared with the full problem, so every route is bit-identical to its
    counterpart.  Used by the batch-resolve re-solve (extras carry the
    admitted load as blockers) and the shard planner.
    """
    if not isinstance(problem, _Problem):
        raise TypeError(
            f"cannot take a subproblem of {type(problem).__name__}")
    ids = np.asarray(demand_ids, dtype=np.int64)
    cols = {f: np.concatenate([c[ids], np.asarray(
        [getattr(a, f) for a in extra_demands], dtype=c.dtype)])
        for f, c in problem.columns.items()}
    nets, counts = gather_rows(problem._acc_indptr, problem._acc_nets, ids)
    rows = [list(acc) for acc in extra_access]
    counts = np.concatenate([counts, np.asarray([len(r) for r in rows],
                                                dtype=np.int64)])
    nets = np.concatenate([nets, np.asarray([q for r in rows for q in r],
                                            dtype=np.int64)])
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return problem.from_columns(problem._span, problem._nets, cols,
                                (indptr, nets))


def _raise_first(checks: Sequence[Check]) -> None:
    """``ValueError`` for the lowest-indexed demand failing any check,
    naming its first failed check in list order."""
    hits = [int(np.argmax(bad)) if bad.any() else None for bad, _ in checks]
    found = [i for i in hits if i is not None]
    for (_, message), i in zip(checks, hits):
        if found and i == min(found):
            raise ValueError(message(i))


def _column(name: str, values: Any, integer: bool) -> np.ndarray:
    """One demand field as an int64 or float64 column; a value of the
    wrong type (a bool, a string, a float where an integer belongs)
    raises ``ValueError`` naming its demand."""
    arr = np.asarray(values)
    kinds = "iu" if integer else "iuf"
    # NumPy reads a bool among ints or floats as a number, so a
    # sequence is also scanned for bools.
    if len(arr) and (arr.dtype.kind not in kinds or (
            not isinstance(values, np.ndarray)
            and bool in set(map(type, values)))):
        for i, x in enumerate(np.asarray(values, dtype=object).tolist()):
            if isinstance(x, bool) or np.asarray(x).dtype.kind not in kinds:
                raise ValueError(f"demand {i}: {name} must be "
                                 f"{'an integer' if integer else 'a number'}"
                                 f", got {x!r}")
    return arr.astype(np.int64 if integer else np.float64)


def _access_csr(access: Any, m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated access CSR ``(indptr, networks)``, each row sorted and
    deduplicated, from a CSR pair or one iterable of network ids per
    demand (none at all: every demand accesses every network)."""
    if (isinstance(access, tuple) and len(access) == 2
            and isinstance(access[0], np.ndarray)):
        indptr, nets = access
    elif not len(access):
        indptr = np.arange(m + 1, dtype=np.int64) * r
        nets = np.tile(np.arange(r, dtype=np.int64), m)
    else:
        if len(access) != m:
            raise ValueError(f"need one access set per demand: got "
                             f"{len(access)}, want {m}")
        rows = [list(acc) for acc in access]
        nets = np.asarray([q for row in rows for q in row], dtype=np.int64)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
    owner = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
    order = np.lexsort((nets, owner))
    nets, owner = nets[order], owner[order]
    keep = np.ones(len(nets), dtype=bool)
    keep[1:] = (nets[1:] != nets[:-1]) | (owner[1:] != owner[:-1])
    nets, owner = nets[keep], owner[keep]
    counts = np.bincount(owner, minlength=m)
    out_of_range = np.zeros(m, dtype=bool)
    out_of_range[owner[(nets < 0) | (nets >= r)]] = True
    _raise_first([
        (counts == 0, lambda i: f"processor {i} can access no network"),
        (out_of_range, lambda i: f"processor {i} access set "
                                 f"{set(nets[owner == i].tolist())} out of "
                                 f"range 0..{r - 1}"),
    ])
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, nets


class _Problem:
    """Columnar demand storage shared by :class:`TreeProblem` and
    :class:`LineProblem`: per-field columns, the access CSR, and the
    object views built on first use.

    Subclasses name their integer demand fields, demand class, network
    list and extent attributes, and the bulk checks their demands must
    pass.
    """

    _INT_FIELDS: tuple[str, ...] = ()
    _DEMAND: type = Demand
    #: Attribute names of the network list and of its extent (vertex
    #: or timeslot count), and the words error messages use for them.
    _NETS, _SPAN, _NOUN, _UNIT = "networks", "n", "tree-network", "vertices"

    def _setup(self, span: int, networks: list, demands: list | None,
               columns: dict | None, access: Any) -> None:
        setattr(self, self._SPAN, span)
        setattr(self, self._NETS, networks)
        if not networks:
            raise ValueError(f"need at least one {self._NOUN}")
        for q, net in enumerate(networks):
            if net.network_id != q:
                raise ValueError(
                    f"{self._NETS}[{q}] has network_id {net.network_id}; "
                    "ids must equal list positions")
            if getattr(net, self._SPAN) != span:
                raise ValueError(
                    f"{self._NOUN} {q} has {getattr(net, self._SPAN)} "
                    f"{self._UNIT}, instance declares {span}")
        fields = self._INT_FIELDS + ("profit", "height")
        if demands is not None:
            for i, a in enumerate(demands):
                if a.demand_id != i:
                    raise ValueError(
                        f"demands[{i}] has demand_id {a.demand_id}; ids "
                        "must equal list positions")
            columns = {f: [getattr(a, f) for a in demands] for f in fields}
        assert columns is not None
        self._cols = cols = {f: _column(f, columns[f], f in self._INT_FIELDS)
                             for f in fields}
        for c in cols.values():
            c.flags.writeable = False
        profit, height = cols["profit"], cols["height"]
        _raise_first(self._checks(cols, [
            (profit <= 0, lambda i: f"demand {i}: profit must be positive"),
            (~np.isfinite(profit), lambda i: f"demand {i}: profit must be "
                                             f"finite, got {profit[i]}"),
            (~((height > 0.0) & (height <= 1.0)),
             lambda i: f"demand {i}: height must lie in (0, 1], got "
                       f"{height[i]}"),
        ]))
        self._acc_indptr, self._acc_nets = _access_csr(
            access, len(profit), len(networks))
        self._demands = None if demands is None else list(demands)
        self._access: list[frozenset[int]] | None = None
        self._instances: list | None = None
        self._index: ConflictIndex | None = None

    def _checks(self, cols: dict, shared: list[Check]) -> list[Check]:
        raise NotImplementedError

    @classmethod
    def from_columns(cls, span: int, networks: list, columns: dict,
                     access: Any = ()) -> Any:
        """The problem over demand columns (sequences or arrays, one
        entry per demand, keyed by demand field name) instead of demand
        objects; ``access`` as in the constructor."""
        self = cls.__new__(cls)
        self._setup(span, networks, None, columns, access)
        return self

    @property
    def _span(self) -> int:
        return getattr(self, self._SPAN)

    @property
    def _nets(self) -> list:
        return getattr(self, self._NETS)

    # ------------------------------------------------------------------

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The demand columns by field name (read-only arrays)."""
        return self._cols

    @property
    def num_networks(self) -> int:
        """Number of networks (tree-networks or resources) ``r``."""
        return len(self._nets)

    @property
    def num_demands(self) -> int:
        """Number of demands / processors ``m``."""
        return len(self._cols["profit"])

    @property
    def unit_height(self) -> bool:
        """Whether every demand has height exactly 1 (Section 2's case)."""
        return bool(np.all(self._cols["height"] == 1.0))

    def profit_range(self) -> tuple[float, float]:
        """``(pmin, pmax)`` over all demands."""
        profit = self._cols["profit"]
        return float(profit.min()), float(profit.max())

    @property
    def demands(self) -> list:
        """One demand object per processor (built on first use)."""
        if self._demands is None:
            fields = self._INT_FIELDS + ("profit", "height")
            self._demands = [self._DEMAND(i, *vals) for i, vals in enumerate(
                zip(*[self._cols[f].tolist() for f in fields]))]
        return self._demands

    def demand(self, demand_id: int) -> Any:
        """Demand ``demand_id``'s object, without building the others."""
        if self._demands is not None:
            return self._demands[demand_id]
        fields = self._INT_FIELDS + ("profit", "height")
        return self._DEMAND(demand_id, *[self._cols[f][demand_id].item()
                                         for f in fields])

    @property
    def access(self) -> list[frozenset[int]]:
        """``access[i]`` is ``Acc(P_i)``: the network ids processor
        ``i`` (owner of ``demands[i]``) may schedule on."""
        if self._access is None:
            ptr = self._acc_indptr.tolist()
            nets = self._acc_nets.tolist()
            self._access = [frozenset(nets[a:b])
                            for a, b in zip(ptr, ptr[1:])]
        return self._access

    def access_of(self, demand_id: int) -> frozenset[int]:
        """``Acc(P_i)`` of one processor, without building the others."""
        if self._access is not None:
            return self._access[demand_id]
        lo, hi = self._acc_indptr[demand_id:demand_id + 2].tolist()
        return frozenset(self._acc_nets[lo:hi].tolist())

    def conflict_index(self) -> ConflictIndex:
        """The population's :class:`~repro.core.conflict.ConflictIndex`,
        expanded from the columns on first use and shared by every
        caller (ledgers, the shard planner): its geometry is static."""
        if self._index is None:
            self._index = ConflictIndex(problem=self)
        return self._index

    def instance_columns(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def instances(self) -> list[Any]:
        raise NotImplementedError

    def global_edges_of(self, inst: Any) -> list[GlobalEdge]:
        raise NotImplementedError

    def edge_activity(self) -> dict[GlobalEdge, list[int]]:
        """Map every global edge to the instance ids active on it."""
        act: dict[GlobalEdge, list[int]] = {}
        for inst in self.instances():
            for ge in self.global_edges_of(inst):
                act.setdefault(ge, []).append(inst.instance_id)
        return act

    def communication_graph(self) -> Any:
        """The processor communication graph (Section 2).

        Two processors may talk iff their access sets intersect.  Returned
        as a :class:`networkx.Graph` over processor ids; used by the
        distributed substrate.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_demands))
        by_net: dict[int, list[int]] = {}
        for i, acc in enumerate(self.access):
            for q in acc:
                by_net.setdefault(q, []).append(i)
        for members in by_net.values():
            for a, b in zip(members, members[1:]):
                g.add_edge(a, b)
            # The shared-resource groups are cliques in the communication
            # graph; a path through the group preserves connectivity and
            # keeps the graph sparse.  Full cliques are what the model
            # allows — add them for small groups where it is cheap.
            if len(members) <= 50:
                for ia, a in enumerate(members):
                    for b in members[ia + 1:]:
                        g.add_edge(a, b)
        return g


class TreeProblem(_Problem):
    """Throughput maximization on tree-networks (Sections 2 and 6).

    Parameters
    ----------
    n:
        Number of vertices in the shared vertex set.
    networks:
        The tree-networks, each spanning ``0 .. n-1``.  ``networks[q]``
        must have ``network_id == q``.
    demands:
        One :class:`~repro.core.demand.Demand` per processor.
    access:
        ``access[i]`` is ``Acc(P_i)``: the network ids processor ``i``
        (owner of ``demands[i]``) may schedule on; empty means every
        network.

    ``TreeProblem.from_columns(n, networks, {"u": .., "v": .., "profit":
    .., "height": ..}, access)`` builds it without demand objects.
    """

    _INT_FIELDS = ("u", "v")
    _DEMAND = Demand
    n: int
    networks: list[TreeNetwork]

    def __init__(self, n: int, networks: list[TreeNetwork],
                 demands: list[Demand], access: Sequence = ()) -> None:
        self._setup(n, networks, demands, None, access)

    def _checks(self, cols: dict, shared: list[Check]) -> list[Check]:
        u, v, n = cols["u"], cols["v"], self.n
        return [(u == v, lambda i: f"demand {i}: endpoints must differ"),
                *shared,
                (~((0 <= u) & (u < n) & (0 <= v) & (v < n)),
                 lambda i: f"demand {i} endpoints outside 0..{n - 1}")]

    @property
    def num_instances(self) -> int:
        """Number of demand instances: one per accessible network."""
        return len(self._acc_nets)

    def instance_columns(self) -> dict[str, np.ndarray]:
        """The instances as ``demand`` and ``network`` columns, in
        instance-id order: by demand id, then network id."""
        return {"demand": np.repeat(np.arange(self.num_demands,
                                              dtype=np.int64),
                                    np.diff(self._acc_indptr)),
                "network": self._acc_nets}

    def instances(self) -> list[TreeDemandInstance]:
        """The instance objects (one per accessible network), each with
        its route cached; built once, for offline use."""
        if self._instances is None:
            self._instances = self.conflict_index().instances()
        return self._instances

    def global_edges_of(self, inst: TreeDemandInstance) -> list[GlobalEdge]:
        """The global edge ids the instance is active on (``d ∼ e``)."""
        return [(inst.network_id, ek) for ek in inst.path_edges]


class LineProblem(_Problem):
    """Throughput maximization on line-networks with windows (Section 7).

    Parameters
    ----------
    n_slots:
        Number of timeslots on the timeline.
    resources:
        The line-networks; ``resources[q]`` must have ``network_id == q``
        and span ``n_slots`` timeslots.
    demands:
        One :class:`~repro.core.demand.WindowDemand` per processor.
    access:
        ``access[i]`` = resource ids processor ``i`` may use; empty
        means every resource.

    ``LineProblem.from_columns(n_slots, resources, {"release": ..,
    "deadline": .., "proc_time": .., "profit": .., "height": ..},
    access)`` builds it without demand objects.
    """

    _INT_FIELDS = ("release", "deadline", "proc_time")
    _DEMAND = WindowDemand
    _NETS, _SPAN, _NOUN, _UNIT = ("resources", "n_slots", "resource",
                                  "timeslots")
    n_slots: int
    resources: list[LineNetwork]

    def __init__(self, n_slots: int, resources: list[LineNetwork],
                 demands: list[WindowDemand], access: Sequence = ()) -> None:
        self._setup(n_slots, resources, demands, None, access)

    def _checks(self, cols: dict, shared: list[Check]) -> list[Check]:
        rel, dl, proc = cols["release"], cols["deadline"], cols["proc_time"]
        last = self.n_slots - 1
        return [
            (proc <= 0, lambda i: f"demand {i}: proc_time must be positive"),
            (rel > dl, lambda i: f"demand {i}: release {rel[i]} exceeds "
                                 f"deadline {dl[i]}"),
            (dl - rel + 1 < proc,
             lambda i: f"demand {i}: window [{rel[i]}, {dl[i]}] shorter "
                       f"than proc_time {proc[i]}"),
            *shared,
            (dl > last, lambda i: f"demand {i} deadline {dl[i]} outside "
                                  f"timeline 0..{last}"),
            (rel < 0, lambda i: f"demand {i} release {rel[i]} outside "
                                f"timeline 0..{last}"),
        ]

    def length_range(self) -> tuple[int, int]:
        """``(Lmin, Lmax)`` over all demand processing times (Section 7)."""
        proc = self._cols["proc_time"]
        return int(proc.min()), int(proc.max())

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per (demand, resource) pair: its demand and placement count."""
        c = self._cols
        dem = np.repeat(np.arange(self.num_demands, dtype=np.int64),
                        np.diff(self._acc_indptr))
        return dem, (c["deadline"] - c["release"] - c["proc_time"] + 2)[dem]

    @property
    def num_instances(self) -> int:
        """Number of demand instances: one per (resource, placement)."""
        return int(self._pairs()[1].sum())

    def instance_columns(self) -> dict[str, np.ndarray]:
        """The instances as ``demand``, ``network`` and inclusive
        ``start``/``end`` columns, in instance-id order: by demand id,
        then resource id, then placement start."""
        pair_dem, per_pair = self._pairs()
        first = np.zeros(len(per_pair), dtype=np.int64)
        np.cumsum(per_pair[:-1], out=first[1:])
        dem = np.repeat(pair_dem, per_pair)
        start = (np.repeat(self._cols["release"][pair_dem] - first, per_pair)
                 + np.arange(len(dem), dtype=np.int64))
        return {"demand": dem, "network": np.repeat(self._acc_nets, per_pair),
                "start": start,
                "end": start + self._cols["proc_time"][dem] - 1}

    def instances(self) -> list[LineDemandInstance]:
        """The instance objects (one per resource × placement); built
        once, for offline use."""
        if self._instances is None:
            self._instances = self.conflict_index().instances()
        return self._instances

    def global_edges_of(self, inst: LineDemandInstance) -> list[GlobalEdge]:
        """The global edge ids (resource, timeslot) the instance covers."""
        return [(inst.network_id, t) for t in range(inst.start, inst.end + 1)]
