"""Tree-network substrate.

The paper (Section 2) defines the input as a vertex set ``V`` of ``n``
vertices together with ``r`` tree-networks, each a spanning tree over ``V``
(the tree-networks may define *different* trees).  A demand is a pair of
vertices; on a tree the connecting path is unique, so scheduling a demand on
a tree-network fixes its route.

:class:`TreeNetwork` provides exactly the primitives the algorithms need:

* unique-path extraction between any two vertices (via rooted parent
  pointers and LCA climbing — ``O(path length)`` per query after an
  ``O(n)`` preprocessing pass);
* LCA and three-point *median* queries (the median is the unique vertex
  common to the three pairwise paths; Section 4.3's junction node and the
  "bending point" of Section 4.4 are both medians);
* canonical undirected edge keys, so dual variables ``beta(e)`` and
  edge-capacity bookkeeping can be stored in plain dictionaries.

Vertices are integers ``0 .. n-1``.  An edge key is the tuple
``(min(u, v), max(u, v))``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["EdgeKey", "EulerTourIndex", "TreeNetwork", "edge_key"]

EdgeKey = tuple[int, int]


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical undirected key for the edge ``{u, v}``."""
    return (u, v) if u <= v else (v, u)


class TreeNetwork:
    """An undirected tree over vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Exactly ``n - 1`` undirected edges forming a spanning tree.
    network_id:
        Identifier of this tree-network within the problem instance
        (index into the instance's network list).

    Raises
    ------
    ValueError
        If the edge set is not a spanning tree on ``0 .. n-1``.
    """

    __slots__ = (
        "n",
        "network_id",
        "adj",
        "_parent",
        "_depth",
        "_order",
        "_edge_set",
        "_euler",
        "_columns",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], network_id: int = 0):
        self.n = int(n)
        self.network_id = int(network_id)
        if self.n <= 0:
            raise ValueError("a tree-network needs at least one vertex")
        adj: list[list[int]] = [[] for _ in range(self.n)]
        edge_set: set[EdgeKey] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of vertex range 0..{self.n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            k = edge_key(u, v)
            if k in edge_set:
                raise ValueError(f"duplicate edge {k}")
            edge_set.add(k)
            adj[u].append(v)
            adj[v].append(u)
        if len(edge_set) != self.n - 1:
            raise ValueError(
                f"a tree on {self.n} vertices needs {self.n - 1} edges, "
                f"got {len(edge_set)}"
            )
        self.adj = adj
        self._edge_set = edge_set
        # Root at 0 and record parent/depth plus a BFS order; connectivity
        # check falls out of the traversal covering all n vertices.
        parent = [-1] * self.n
        depth = [0] * self.n
        order = [0]
        seen = [False] * self.n
        seen[0] = True
        q = deque([0])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    order.append(y)
                    q.append(y)
        if len(order) != self.n:
            raise ValueError("edge set is not connected: not a spanning tree")
        self._parent = parent
        self._depth = depth
        self._order = order
        self._euler: EulerTourIndex | None = None
        self._columns: tuple | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def edges(self) -> frozenset[EdgeKey]:
        """The set of canonical edge keys of this tree."""
        return frozenset(self._edge_set)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge of this tree."""
        return edge_key(u, v) in self._edge_set

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        return len(self.adj[v])

    def neighbors(self, v: int) -> Sequence[int]:
        """Neighbours of ``v`` (read-only view)."""
        return tuple(self.adj[v])

    def iter_edges(self) -> Iterator[EdgeKey]:
        """Iterate over canonical edge keys."""
        return iter(self._edge_set)

    # ------------------------------------------------------------------
    # Path / LCA machinery
    # ------------------------------------------------------------------

    def lca(self, u: int, v: int) -> int:
        """Least common ancestor of ``u`` and ``v`` w.r.t. the root 0."""
        depth, parent = self._depth, self._parent
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u = parent[u]
            v = parent[v]
        return u

    def distance(self, u: int, v: int) -> int:
        """Number of edges on the unique ``u``–``v`` path."""
        w = self.lca(u, v)
        return self._depth[u] + self._depth[v] - 2 * self._depth[w]

    def path_vertices(self, u: int, v: int) -> list[int]:
        """The unique path from ``u`` to ``v`` as a vertex list (inclusive)."""
        w = self.lca(u, v)
        parent = self._parent
        left = []
        x = u
        while x != w:
            left.append(x)
            x = parent[x]
        right = []
        x = v
        while x != w:
            right.append(x)
            x = parent[x]
        return left + [w] + right[::-1]

    def path_edges(self, u: int, v: int) -> list[EdgeKey]:
        """The unique path from ``u`` to ``v`` as canonical edge keys."""
        verts = self.path_vertices(u, v)
        return [edge_key(a, b) for a, b in zip(verts, verts[1:])]

    def median(self, a: int, b: int, c: int) -> int:
        """The unique vertex lying on all three pairwise paths of ``a,b,c``.

        For a tree this is ``argmax_depth{lca(a,b), lca(b,c), lca(a,c)}``.
        Section 4.3 calls this vertex the *junction* when splitting a
        component, and Section 4.4's *bending point* of a path ``[a, b]``
        with respect to an outside vertex ``c`` is ``median(a, b, c)``.
        """
        x, y, z = self.lca(a, b), self.lca(b, c), self.lca(a, c)
        d = self._depth
        best = x
        if d[y] > d[best]:
            best = y
        if d[z] > d[best]:
            best = z
        return best

    def bending_point(self, u: int, path_endpoints: tuple[int, int]) -> int:
        """Bending point of the path ``path_endpoints`` w.r.t. vertex ``u``.

        The unique vertex ``y`` on the path such that the ``u``–``y`` path
        avoids every other path vertex (Section 4.4).  Equals the median of
        ``u`` and the two endpoints.
        """
        a, b = path_endpoints
        return self.median(a, b, u)

    def wings(self, y: int, path_endpoints: tuple[int, int]) -> list[EdgeKey]:
        """The edges of the path that are incident on path-vertex ``y``.

        One edge if ``y`` is a path endpoint, two otherwise (Section 4.4).

        Raises
        ------
        ValueError
            If ``y`` does not lie on the path.
        """
        a, b = path_endpoints
        if self.median(a, b, y) != y:
            raise ValueError(f"vertex {y} is not on the path {a}..{b}")
        out: list[EdgeKey] = []
        if y != a:
            # First hop from y towards a.
            nxt = self._step_towards(y, a)
            out.append(edge_key(y, nxt))
        if y != b:
            nxt = self._step_towards(y, b)
            k = edge_key(y, nxt)
            if k not in out:
                out.append(k)
        return out

    def _step_towards(self, x: int, target: int) -> int:
        """The neighbour of ``x`` on the unique path to ``target``."""
        if x == target:
            raise ValueError("no step needed: x == target")
        w = self.lca(x, target)
        if x == w:
            # target is below x: climb from target up to the child of x.
            parent = self._parent
            y = target
            while parent[y] != x:
                y = parent[y]
            return y
        return self._parent[x]

    # ------------------------------------------------------------------
    # Subtree / component helpers (used by the decompositions)
    # ------------------------------------------------------------------

    def component_sizes_without(
        self, z: int, component: set[int] | None = None
    ) -> list[tuple[int, int]]:
        """Sizes of the subtrees obtained by deleting ``z``.

        Restricted to ``component`` if given (``component`` must induce a
        connected subtree containing ``z``).  Returns ``(neighbor, size)``
        per resulting component, keyed by the neighbour of ``z`` it hangs
        off.  Used by the balancer search (Section 4.2).
        """
        sizes: list[tuple[int, int]] = []
        for nb in self.adj[z]:
            if component is not None and nb not in component:
                continue
            cnt = 0
            stack = [(nb, z)]
            while stack:
                x, par = stack.pop()
                cnt += 1
                for y in self.adj[x]:
                    if y != par and (component is None or y in component):
                        stack.append((y, x))
            sizes.append((nb, cnt))
        return sizes

    def split_component(self, z: int, component: set[int]) -> list[set[int]]:
        """Split ``component`` by deleting ``z`` (Section 4.2's notion).

        Returns the vertex sets of the resulting connected subtrees.
        ``z`` itself belongs to none of them.
        """
        if z not in component:
            raise ValueError(f"splitter {z} not in component")
        pieces: list[set[int]] = []
        for nb in self.adj[z]:
            if nb not in component:
                continue
            piece: set[int] = set()
            stack = [(nb, z)]
            while stack:
                x, par = stack.pop()
                piece.add(x)
                for y in self.adj[x]:
                    if y != par and y in component:
                        stack.append((y, x))
            pieces.append(piece)
        return pieces

    def component_neighbors(self, component: set[int]) -> set[int]:
        """``Γ[C]``: vertices outside ``component`` adjacent to it (§4.1)."""
        out: set[int] = set()
        for x in component:
            for y in self.adj[x]:
                if y not in component:
                    out.add(y)
        return out

    def is_component(self, vertices: set[int]) -> bool:
        """Whether ``vertices`` induces a connected subtree (a *component*)."""
        if not vertices:
            return False
        start = next(iter(vertices))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in self.adj[x]:
                if y in vertices and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(vertices)

    def find_balancer(self, component: set[int] | None = None) -> int:
        """Find a *balancer* (centroid) of ``component`` (Section 4.2).

        A vertex ``z`` such that deleting it splits the component into
        pieces of size at most ``⌊|C|/2⌋``.  Every component has one; we
        locate it by walking downhill from an arbitrary start towards the
        heaviest piece, which terminates in ``O(|C| · diameter)`` worst
        case and ``O(|C|)`` typically.
        """
        comp = component if component is not None else set(range(self.n))
        size = len(comp)
        if size == 1:
            return next(iter(comp))
        # Compute subtree sizes with one DFS from an arbitrary root of the
        # component, then walk towards any piece larger than half.
        root = next(iter(comp))
        order: list[int] = []
        par: dict[int, int] = {root: -1}
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in self.adj[x]:
                if y in comp and y != par[x]:
                    par[y] = x
                    stack.append(y)
        sub = {x: 1 for x in comp}
        for x in reversed(order):
            p = par[x]
            if p != -1:
                sub[p] += sub[x]
        half = size // 2
        z = root
        while True:
            heavy = None
            for y in self.adj[z]:
                if y not in comp:
                    continue
                piece = sub[y] if par.get(y) == z else size - sub[z]
                if piece > half:
                    heavy = y
                    break
            if heavy is None:
                return z
            z = heavy

    # ------------------------------------------------------------------

    def euler_index(self) -> "EulerTourIndex":
        """The (cached) Euler-tour index of this tree (rooted at 0)."""
        if self._euler is None:
            self._euler = EulerTourIndex(self)
        return self._euler

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray, list[EdgeKey]]:
        """``(parent, rank, keys)``, built once: the rooted parent array
        (root 0 has parent -1), and for every non-root vertex ``c`` the
        position ``rank[c]`` of the edge ``{c, parent[c]}`` among the
        tree's edge keys in sorted order; ``keys`` lists those keys in
        that order."""
        if self._columns is None:
            parent = np.asarray(self._parent, dtype=np.int64)
            child = np.arange(1, self.n, dtype=np.int64)
            lo = np.minimum(child, parent[1:])
            hi = np.maximum(child, parent[1:])
            order = np.lexsort((hi, lo))
            rank = np.full(self.n, -1, dtype=np.int64)
            rank[child[order]] = np.arange(self.n - 1, dtype=np.int64)
            keys = list(zip(lo[order].tolist(), hi[order].tolist()))
            self._columns = (parent, rank, keys)
        return self._columns

    def path_children(self, us, vs) -> tuple[np.ndarray, np.ndarray]:
        """Every ``us[i]``–``vs[i]`` path at once, as edge child vertices.

        Returns ``(rows, children)``: entry ``k`` says path ``rows[k]``
        uses the edge between ``children[k]`` and its parent.  A
        lockstep climb: the deeper endpoint climbs to its partner's
        depth, then both climb until they meet, so the work is the total
        path length plus one array pass per level.  Entries come out
        grouped by level, not by path.
        """
        parent = self.edge_columns()[0]
        depth = self.euler_index().depth
        a = np.asarray(us, dtype=np.int64).copy()
        b = np.asarray(vs, dtype=np.int64).copy()
        swap = depth[a] < depth[b]
        a[swap], b[swap] = b[swap], a[swap]
        rows: list[np.ndarray] = []
        children: list[np.ndarray] = []
        target = depth[b]
        live = np.flatnonzero(depth[a] > target)
        while len(live):
            x = a[live]
            rows.append(live)
            children.append(x)
            a[live] = parent[x]
            live = live[depth[a[live]] > target[live]]
        live = np.flatnonzero(a != b)
        while len(live):
            x, y = a[live], b[live]
            rows += (live, live)
            children += (x, y)
            a[live] = parent[x]
            b[live] = parent[y]
            live = live[a[live] != b[live]]
        if not rows:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return np.concatenate(rows), np.concatenate(children)

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` (for plotting/debugging)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self._edge_set)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TreeNetwork(id={self.network_id}, n={self.n})"


class EulerTourIndex:
    """Euler-tour arrays + O(1) batch LCA / ancestor / path-overlap tests.

    Built once per tree (``O(n log n)`` sparse table over the tour), this
    index turns the per-pair path computations of the conflict relation
    into NumPy gathers:

    * ``is_ancestor(a, b)`` — entry/exit-time interval containment;
    * ``batch_lca(u, v)`` — range-minimum over the tour depth array;
    * ``path_overlap_matrix(us, vs)`` — pairwise "do the routes share an
      edge" for whole instance populations, via the median identity: the
      intersection of ``path(a,b)`` with ``path(c,d)`` contains an edge
      iff ``median(a,b,c) != median(a,b,d)``.

    All query methods accept and return :mod:`numpy` integer arrays.
    """

    def __init__(self, tree: TreeNetwork):
        n = tree.n
        parent, depth = tree._parent, tree._depth
        tour: list[int] = []
        tin = [0] * n
        tout = [0] * n
        first = [-1] * n
        # Iterative Euler tour from the root (vertex 0): push a vertex on
        # entry and again after each child subtree returns.
        stack: list[tuple[int, int]] = [(0, 0)]  # (vertex, next-child index)
        kids = [[y for y in tree.adj[x] if y != parent[x]] for x in range(n)]
        while stack:
            x, ci = stack[-1]
            if ci == 0:
                tin[x] = len(tour)
                first[x] = len(tour)
                tour.append(x)
            if ci < len(kids[x]):
                stack[-1] = (x, ci + 1)
                stack.append((kids[x][ci], 0))
            else:
                tout[x] = len(tour)
                stack.pop()
                if stack:  # re-visit the parent on the way back up
                    tour.append(stack[-1][0])
        self.tour = np.asarray(tour, dtype=np.int64)
        self.tin = np.asarray(tin, dtype=np.int64)
        self.tout = np.asarray(tout, dtype=np.int64)
        self.first = np.asarray(first, dtype=np.int64)
        self.depth = np.asarray(depth, dtype=np.int64)
        tour_depth = self.depth[self.tour]

        m = len(tour)
        # floor(log2(k)) for k in 1..m, exact via the binary exponent.
        ks = np.arange(1, m + 1)
        self._log = np.concatenate(([0], np.frexp(ks.astype(np.float64))[1] - 1))
        levels = int(self._log[m]) + 1
        # Sparse table of argmins (positions into the tour) by depth.
        table = np.empty((levels, m), dtype=np.int64)
        table[0] = np.arange(m)
        for j in range(1, levels):
            half = 1 << (j - 1)
            width = m - (1 << j) + 1
            left = table[j - 1, :width]
            right = table[j - 1, half:half + width]
            take_right = tour_depth[right] < tour_depth[left]
            table[j, :width] = np.where(take_right, right, left)
            table[j, width:] = table[j - 1, width:]
        self._table = table
        self._tour_depth = tour_depth

    # ------------------------------------------------------------------

    def batch_lca(self, us, vs) -> np.ndarray:
        """Vectorized LCA of ``us[i]``/``vs[i]`` (arrays broadcast together)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        fu, fv = self.first[us], self.first[vs]
        lo = np.minimum(fu, fv)
        hi = np.maximum(fu, fv)
        k = self._log[hi - lo + 1]
        a = self._table[k, lo]
        b = self._table[k, hi - (1 << k) + 1]
        pos = np.where(self._tour_depth[b] < self._tour_depth[a], b, a)
        return self.tour[pos]

    def is_ancestor(self, anc, desc) -> np.ndarray:
        """Vectorized "is ``anc[i]`` an ancestor of ``desc[i]``" (inclusive)."""
        anc = np.asarray(anc, dtype=np.int64)
        desc = np.asarray(desc, dtype=np.int64)
        return (self.tin[anc] <= self.tin[desc]) & (self.tout[desc] <= self.tout[anc])

    def _median_grid(self, ws, us, vs, xs) -> np.ndarray:
        """``median(u_i, v_i, x_j)`` for the full (i, j) grid.

        ``ws`` must be ``lca(us, vs)`` (precomputed once per population).
        The median of three vertices is the deepest of their pairwise
        LCAs; with ``w = lca(u, v)`` fixed, only the two cross LCAs vary.
        """
        grid_u = np.broadcast_to(us[:, None], (len(us), len(xs)))
        grid_x = np.broadcast_to(xs[None, :], (len(us), len(xs)))
        l1 = self.batch_lca(grid_u.ravel(), grid_x.ravel()).reshape(grid_u.shape)
        grid_v = np.broadcast_to(vs[:, None], (len(vs), len(xs)))
        l2 = self.batch_lca(grid_v.ravel(), grid_x.ravel()).reshape(grid_v.shape)
        w = np.broadcast_to(ws[:, None], l1.shape)
        med = np.where(self.depth[l1] >= self.depth[w], l1, w)
        med = np.where(self.depth[l2] >= self.depth[med], l2, med)
        return med

    def path_overlap_matrix(self, us, vs) -> np.ndarray:
        """Pairwise edge-overlap of the paths ``path(us[i], vs[i])``.

        Returns the symmetric boolean matrix ``M[i, j]`` = "paths i and j
        share at least one edge" (diagonal True for any non-trivial path).
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        ws = self.batch_lca(us, vs)
        m1 = self._median_grid(ws, us, vs, us)  # projection of u_j onto path i
        m2 = self._median_grid(ws, us, vs, vs)  # projection of v_j onto path i
        return m1 != m2
