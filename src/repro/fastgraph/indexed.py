"""Canonical integer-indexed graph with a flat edge array.

Built once per construction from a :class:`networkx.Graph`; every
hot-path pass afterwards works on ``u[i]``/``v[i]`` int lists and edge
indices. Edge index ``i`` corresponds to the ``i``-th edge reported by
``graph.edges()`` — the same order :func:`networkx.minimum_spanning_tree`
uses as its stable tie-break, which is what lets the kernel reproduce
networkx results bit-for-bit (see :mod:`repro.fastgraph.kruskal`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.fastgraph.union_find import IntUnionFind

Edge = FrozenSet[Hashable]


class IndexedGraph:
    """A graph canonicalized to integer node ids and an edge array.

    Attributes:
        nodes: original node labels, position = integer id;
        index_of: label → integer id;
        u, v: parallel lists, edge ``i`` joins ``u[i]`` and ``v[i]``;
        n, m: node and edge counts;
        generation: mutation counter — bumped by :meth:`add_edge` /
            :meth:`remove_edge`, so caches derived from this index can
            detect staleness without holding back-references.

    A :meth:`from_networkx` index can also be maintained *incrementally*:
    :meth:`add_edge` / :meth:`remove_edge` splice the canonical edge
    array (and the cached adjacency lists) exactly where a from-scratch
    re-canonicalization of the equally-mutated ``nx.Graph`` would place
    the edge, so ``IndexedGraph.from_networkx(g)`` and an incrementally
    edited index never diverge (``tests/test_incremental_index.py`` pins
    this bit for bit).
    """

    __slots__ = (
        "nodes", "index_of", "u", "v", "n", "m", "generation",
        "_neighbors", "_canonical",
    )

    def __init__(
        self,
        nodes: Sequence[Hashable],
        edges: Iterable[Tuple[int, int]],
    ) -> None:
        self.nodes: List[Hashable] = list(nodes)
        self.index_of: Dict[Hashable, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        if len(self.index_of) != len(self.nodes):
            raise ValueError("duplicate node labels")
        self.n = len(self.nodes)
        self.u: List[int] = []
        self.v: List[int] = []
        for a, b in edges:
            self.u.append(a)
            self.v.append(b)
        self.m = len(self.u)
        self.generation = 0
        self._neighbors: Optional[List[List[int]]] = None
        self._canonical: Optional[bool] = None

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "IndexedGraph":
        """Canonicalize ``graph``; edge ``i`` is the ``i``-th of ``graph.edges()``."""
        nodes = list(graph.nodes())
        index_of = {node: i for i, node in enumerate(nodes)}
        edges = [(index_of[a], index_of[b]) for a, b in graph.edges()]
        return cls(nodes, edges)

    # ------------------------------------------------------------------
    # Edge/adjacency views
    # ------------------------------------------------------------------

    def endpoints(self, i: int) -> Tuple[Hashable, Hashable]:
        """Original labels of edge ``i``'s endpoints."""
        return self.nodes[self.u[i]], self.nodes[self.v[i]]

    def neighbors(self) -> List[List[int]]:
        """Adjacency as int lists (cached; insertion order = edge order)."""
        if self._neighbors is None:
            adj: List[List[int]] = [[] for _ in range(self.n)]
            for a, b in zip(self.u, self.v):
                adj[a].append(b)
                if b != a:
                    adj[b].append(a)
            self._neighbors = adj
        return self._neighbors

    # ------------------------------------------------------------------
    # Incremental mutation (mirrors networkx canonical edge order)
    # ------------------------------------------------------------------

    def _require_canonical(self) -> None:
        """Mutation needs the ``from_networkx`` order invariant.

        In any index canonicalized from a ``networkx`` graph, edge ``i``
        is reported by the endpoint appearing *earlier* in node-insertion
        order, so ``u[i] < v[i]`` and ``u`` is non-decreasing (edges of
        one reporting node are contiguous). The splice arithmetic below
        is only correct under that invariant, so indexes built with an
        arbitrary hand-rolled edge order refuse to mutate.
        """
        if self._canonical is None:
            u = self.u
            v = self.v
            self._canonical = all(
                u[i] < v[i] for i in range(self.m)
            ) and all(u[i] <= u[i + 1] for i in range(self.m - 1))
        if not self._canonical:
            raise ValueError(
                "cannot mutate an IndexedGraph whose edge array is not in "
                "networkx canonical order; rebuild via from_networkx()"
            )

    def has_edge(self, a: Hashable, b: Hashable) -> bool:
        """Whether the edge ``{a, b}`` (original labels) is present."""
        ia = self.index_of.get(a)
        ib = self.index_of.get(b)
        if ia is None or ib is None:
            return False
        first, second = (ia, ib) if ia < ib else (ib, ia)
        lo = bisect_left(self.u, first)
        hi = bisect_right(self.u, first, lo=lo)
        return any(self.v[i] == second for i in range(lo, hi))

    def add_edge(self, a: Hashable, b: Hashable) -> int:
        """Splice edge ``{a, b}`` in at its canonical position.

        Unknown labels become new nodes (appended in ``a``, ``b`` order —
        exactly where ``nx.Graph.add_edge`` puts them). Returns the new
        edge's index. The cached adjacency lists, when built, are
        updated in place; every other derived structure must be
        invalidated by the caller (:attr:`generation` is bumped so
        caches can notice).
        """
        if a == b:
            raise ValueError(f"self-loop {a!r}-{b!r} is not allowed")
        self._require_canonical()
        if self.has_edge(a, b):
            raise ValueError(f"edge {a!r}-{b!r} already exists")
        for label in (a, b):
            if label not in self.index_of:
                self.index_of[label] = self.n
                self.nodes.append(label)
                self.n += 1
                if self._neighbors is not None:
                    self._neighbors.append([])
        ia, ib = self.index_of[a], self.index_of[b]
        first, second = (ia, ib) if ia < ib else (ib, ia)
        # networkx appends to ``adj[first]``, so a fresh canonicalization
        # reports the new edge *last* in ``first``'s contiguous block.
        position = bisect_right(self.u, first)
        self.u.insert(position, first)
        self.v.insert(position, second)
        self.m += 1
        if self._neighbors is not None:
            adjacency = self._neighbors
            # Every existing edge incident to ``first`` lives in a block
            # at or before ``first``'s, i.e. strictly before the new
            # edge: append keeps adjacency in edge order.
            adjacency[first].append(second)
            # ``second``'s neighbors with a smaller endpoint than
            # ``second`` form a strictly increasing prefix (one edge per
            # block); the new edge follows exactly those with c <= first.
            spot = 0
            for c in adjacency[second]:
                if c <= first:
                    spot += 1
                else:
                    break
            adjacency[second].insert(spot, first)
        self.generation += 1
        return position

    def remove_edge(self, a: Hashable, b: Hashable) -> int:
        """Remove edge ``{a, b}``; returns the edge index it occupied.

        Nodes are never removed (matching ``nx.Graph.remove_edge``).
        """
        ia = self.index_of.get(a)
        ib = self.index_of.get(b)
        if ia is None or ib is None:
            raise KeyError(f"edge {a!r}-{b!r} is not in the graph")
        self._require_canonical()
        first, second = (ia, ib) if ia < ib else (ib, ia)
        lo = bisect_left(self.u, first)
        hi = bisect_right(self.u, first, lo=lo)
        for i in range(lo, hi):
            if self.v[i] == second:
                break
        else:
            raise KeyError(f"edge {a!r}-{b!r} is not in the graph")
        del self.u[i]
        del self.v[i]
        self.m -= 1
        if self._neighbors is not None:
            self._neighbors[first].remove(second)
            self._neighbors[second].remove(first)
        self.generation += 1
        return i

    def edge_frozenset(self, i: int) -> Edge:
        """Edge ``i`` as the ``frozenset``-of-labels key of the legacy API."""
        return frozenset((self.nodes[self.u[i]], self.nodes[self.v[i]]))

    def endpoint_pairs(self, edge_ids: Iterable[int]) -> "array[int]":
        """Flat ``[u, v, u, v, ...]`` endpoint indices of these edges, in
        the given order (the compact tree form of
        :class:`repro.core.tree_packing.WeightedTree`)."""
        pairs = array("i")
        u = self.u
        v = self.v
        for i in edge_ids:
            pairs.append(u[i])
            pairs.append(v[i])
        return pairs

    def edges_to_node_sets(self, edge_ids: Iterable[int]) -> FrozenSet[Edge]:
        """Edge-index set → the legacy ``frozenset``-of-``frozenset`` form."""
        nodes = self.nodes
        u = self.u
        v = self.v
        return frozenset(
            frozenset((nodes[u[i]], nodes[v[i]])) for i in edge_ids
        )

    # ------------------------------------------------------------------
    # Subset structure
    # ------------------------------------------------------------------

    def nx_edge_order(self, edge_ids: Iterable[int]) -> List[int]:
        """Reorder ``edge_ids`` as ``networkx`` would report them.

        A ``networkx.Graph`` holding all our nodes plus exactly these
        edges (inserted in the given order) reports ``graph.edges()`` in
        node-major adjacency order, which is the stable tie-break order
        of its Kruskal. This reproduces that order on indices, so
        subgraphs built index-side stay bit-compatible with subgraphs
        built graph-side.
        """
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        u = self.u
        v = self.v
        for i in edge_ids:
            a, b = u[i], v[i]
            adj[a].append((b, i))
            if b != a:
                adj[b].append((a, i))
        order: List[int] = []
        reported = [False] * self.n
        for a in range(self.n):
            for b, i in adj[a]:
                if not reported[b]:
                    order.append(i)
            reported[a] = True
        return order

    def is_connected_via(
        self, edge_ids: Optional[Iterable[int]] = None, uf: Optional[IntUnionFind] = None
    ) -> bool:
        """Whether the given edges (default: all) connect all ``n`` nodes."""
        if self.n <= 1:
            return True
        uf = IntUnionFind(self.n) if uf is None else uf.reset()
        u = self.u
        v = self.v
        if edge_ids is None:
            edge_ids = range(self.m)
        for i in edge_ids:
            uf.union(u[i], v[i])
            if uf.n_components == 1:
                return True
        return uf.n_components == 1

    def bfs_tree_edges(self, edge_ids: Sequence[int], root: int = 0) -> List[int]:
        """Edge indices of a BFS spanning tree over the given edge subset.

        Visits neighbors in edge-subset insertion order from ``root`` —
        the same traversal :func:`networkx.bfs_tree` performs on a graph
        built by inserting these edges in the same order, so the
        resulting tree matches the legacy
        :func:`repro.core.tree_packing.spanning_tree_of` edge for edge.
        Only the nodes reachable from ``root`` are spanned; callers
        check connectivity first.
        """
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        u = self.u
        v = self.v
        for i in edge_ids:
            a, b = u[i], v[i]
            adj[a].append((b, i))
            if b != a:
                adj[b].append((a, i))
        tree: List[int] = []
        visited = [False] * self.n
        visited[root] = True
        queue = deque([root])
        while queue:
            a = queue.popleft()
            for b, i in adj[a]:
                if not visited[b]:
                    visited[b] = True
                    tree.append(i)
                    queue.append(b)
        return tree

    # ------------------------------------------------------------------
    # API boundary: back to networkx
    # ------------------------------------------------------------------

    def tree_graph(self, edge_ids: Iterable[int]) -> nx.Graph:
        """A labeled :class:`networkx.Graph` with all nodes + these edges.

        Packings materialize one graph per tree, so this writes the
        adjacency structure directly when the networkx internals look
        like plain dicts (they have since 2.0) and falls back to the
        public API otherwise. Both paths produce byte-equivalent graphs
        (no node/edge data, default factories).
        """
        graph = nx.Graph()
        nodes = self.nodes
        u = self.u
        v = self.v
        node_attrs = getattr(graph, "_node", None)
        adjacency = getattr(graph, "_adj", None)
        if type(node_attrs) is dict and type(adjacency) is dict:
            for label in nodes:
                node_attrs[label] = {}
                adjacency[label] = {}
            for i in edge_ids:
                a = nodes[u[i]]
                b = nodes[v[i]]
                data: Dict = {}
                adjacency[a][b] = data
                adjacency[b][a] = data
        else:  # pragma: no cover - exotic networkx configuration
            graph.add_nodes_from(nodes)
            graph.add_edges_from((nodes[u[i]], nodes[v[i]]) for i in edge_ids)
        return graph

    def to_networkx(self) -> nx.Graph:
        """The full graph back as a labeled :class:`networkx.Graph`."""
        return self.tree_graph(range(self.m))
