"""Tree packing containers and full validity verification (Section 2).

A *fractional dominating tree packing* assigns weights ``x_τ ∈ [0, 1]`` to
dominating trees so that every vertex carries total weight at most 1; its
*size* is ``Σ x_τ``. A *fractional spanning tree packing* is the same with
spanning trees and per-edge capacity. These containers hold the trees,
compute sizes/loads, and :meth:`verify` every defining constraint, raising
:class:`~repro.errors.PackingValidationError` on the first violation.

Trees are kept index-side (:class:`WeightedTree`): a label list shared
by the packing, a member-index array and a flat endpoint-pair array, so
a result held in a cache is a few flat arrays per tree rather than a
graph of dicts. Sizes, loads and disjointness read the arrays; only
:meth:`~DominatingTreePacking.verify`, :meth:`WeightedTree.diameter` and
readers of :attr:`WeightedTree.tree` build a :class:`networkx.Graph`.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Set, Tuple

import networkx as nx

from repro.errors import PackingValidationError
from repro.graphs.connectivity import is_dominating_tree, is_spanning_tree

_TOLERANCE = 1e-9


class WeightedTree:
    """One tree of a packing: its weight, its class id and the tree.

    Stored index-side: ``labels`` is a node-label list, shared by every
    tree of a packing built on one index (the
    :class:`~repro.core.virtual_graph.CdsIndex` /
    :class:`~repro.fastgraph.IndexedGraph` list); ``members`` the
    ascending indices of the tree's nodes, or ``None`` for every label
    the list held when the tree was made (a spanning tree; a session edit
    may append labels later); ``pairs`` a flat ``array('i')`` of
    endpoint indices, edge ``e`` joining ``pairs[2e]`` and
    ``pairs[2e+1]``, in insertion order. A cached result therefore holds
    a few flat arrays per tree, not a graph of dicts.

    :attr:`tree` builds the :class:`networkx.Graph` on first access —
    members in order, then edges in order — and keeps it.
    ``WeightedTree(tree, weight, class_id)`` converts a given graph to
    the same form and keeps that graph as the cache.
    """

    __slots__ = (
        "weight", "class_id", "_labels", "_members", "_n_nodes", "_pairs",
        "_tree",
    )

    def __init__(self, tree: nx.Graph, weight: float, class_id: int) -> None:
        labels = list(tree.nodes())
        index_of = {v: i for i, v in enumerate(labels)}
        pairs = array("i")
        for a, b in tree.edges():
            pairs.append(index_of[a])
            pairs.append(index_of[b])
        self._set(labels, None, len(labels), pairs, weight, class_id)
        self._tree: Optional[nx.Graph] = tree

    @classmethod
    def from_indices(
        cls,
        labels: List[Hashable],
        pairs: "array[int]",
        weight: float,
        class_id: int,
        members: Optional["array[int]"] = None,
    ) -> "WeightedTree":
        """A tree on ``labels[members]`` (default: every label ``labels``
        holds now) with edges ``pairs``."""
        wt = cls.__new__(cls)
        wt._set(labels, members, len(labels), pairs, weight, class_id)
        wt._tree = None
        return wt

    def _set(self, labels, members, n_nodes, pairs, weight, class_id) -> None:
        if not 0.0 <= weight <= 1.0 + _TOLERANCE:
            raise PackingValidationError(f"tree weight {weight} outside [0, 1]")
        self._labels = labels
        self._members = members
        self._n_nodes = n_nodes
        self._pairs = pairs
        self.weight = weight
        self.class_id = class_id

    def __repr__(self) -> str:
        return (
            f"WeightedTree(class_id={self.class_id}, weight={self.weight!r}, "
            f"nodes={self.n_nodes}, edges={len(self._pairs) // 2})"
        )

    # -- compact views (no graph is built) ------------------------------

    @property
    def n_nodes(self) -> int:
        members = self._members
        return self._n_nodes if members is None else len(members)

    def node_labels(self) -> Iterator[Hashable]:
        """The tree's nodes, in the order :attr:`tree` inserts them."""
        labels = self._labels
        if self._members is None:
            return iter(labels[: self._n_nodes])
        return map(labels.__getitem__, self._members)

    def edge_labels(self) -> Iterator[Tuple[Hashable, Hashable]]:
        """The tree's edges as label pairs, in insertion order."""
        labels = self._labels
        ends = map(labels.__getitem__, self._pairs)
        return zip(ends, ends)

    def adjacency(self) -> Dict[Hashable, Set[Hashable]]:
        """Node → neighbor set; each set is filled in :attr:`tree`'s
        adjacency order, so iterating it matches iterating the set built
        from ``tree.neighbors(v)``."""
        tree = self._tree
        if tree is not None:
            return {v: set(tree.neighbors(v)) for v in tree.nodes()}
        neighbors: Dict[Hashable, List[Hashable]] = {
            v: [] for v in self.node_labels()
        }
        for a, b in self.edge_labels():
            neighbors[a].append(b)
            neighbors[b].append(a)
        return {v: set(nbrs) for v, nbrs in neighbors.items()}

    @property
    def nodes(self) -> FrozenSet[Hashable]:
        return frozenset(self.node_labels())

    @property
    def edges(self) -> FrozenSet[FrozenSet[Hashable]]:
        return frozenset(map(frozenset, self.edge_labels()))

    # -- the networkx graph ----------------------------------------------

    @property
    def tree(self) -> nx.Graph:
        """The tree as a :class:`networkx.Graph` (built once, then kept)."""
        if self._tree is None:
            self._tree = self._build_graph()
        return self._tree

    def _graph(self) -> nx.Graph:
        """The cached graph, or a fresh one that is not kept."""
        return self._tree if self._tree is not None else self._build_graph()

    def _build_graph(self) -> nx.Graph:
        tree = nx.Graph()
        tree.add_nodes_from(self.node_labels())
        tree.add_edges_from(self.edge_labels())
        return tree

    def diameter(self) -> int:
        if self.n_nodes <= 1:
            return 0
        return nx.diameter(self._graph())


class _BasePacking:
    """Shared machinery for both packing kinds."""

    def __init__(self, graph: nx.Graph, trees: List[WeightedTree]) -> None:
        self.graph = graph
        self.trees = list(trees)

    @property
    def size(self) -> float:
        """Total weight — the packing size κ of Section 2."""
        return sum(t.weight for t in self.trees)

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)

    def max_diameter(self) -> int:
        """Largest tree diameter (Theorem 1.1 bounds this by Õ(n/k))."""
        return max((t.diameter() for t in self.trees), default=0)


class DominatingTreePacking(_BasePacking):
    """A fractional dominating tree packing (Section 2).

    Constraints verified by :meth:`verify`:

    * every tree is a dominating tree of ``graph`` (footnote 1);
    * every weight lies in ``[0, 1]``;
    * every vertex carries total weight ≤ 1.
    """

    def node_loads(self) -> Dict[Hashable, float]:
        """Total tree weight carried by each vertex."""
        loads: Dict[Hashable, float] = {v: 0.0 for v in self.graph.nodes()}
        for wt in self.trees:
            weight = wt.weight
            for v in wt.node_labels():
                loads[v] += weight
        return loads

    def trees_per_node(self) -> Dict[Hashable, int]:
        """How many trees contain each vertex (Theorem 1.1: O(log n))."""
        counts: Dict[Hashable, int] = {v: 0 for v in self.graph.nodes()}
        for wt in self.trees:
            for v in wt.node_labels():
                counts[v] += 1
        return counts

    def max_node_load(self) -> float:
        loads = self.node_loads()
        return max(loads.values()) if loads else 0.0

    def verify(self) -> None:
        """Raise :class:`PackingValidationError` unless all constraints hold."""
        for index, wt in enumerate(self.trees):
            if not is_dominating_tree(self.graph, wt._graph()):
                raise PackingValidationError(
                    f"tree #{index} (class {wt.class_id}) is not a "
                    "dominating tree of the graph"
                )
        load = self.max_node_load()
        if load > 1.0 + _TOLERANCE:
            raise PackingValidationError(
                f"vertex capacity violated: max node load {load} > 1"
            )

    def is_vertex_disjoint(self) -> bool:
        """Whether the trees are pairwise vertex-disjoint (integral packing)."""
        seen: set = set()
        for wt in self.trees:
            nodes = set(wt.node_labels())
            if seen & nodes:
                return False
            seen |= nodes
        return True


class SpanningTreePacking(_BasePacking):
    """A fractional spanning tree packing (Section 2).

    Constraints verified by :meth:`verify`:

    * every tree is a spanning tree of ``graph``;
    * every weight lies in ``[0, 1]``;
    * every edge carries total weight ≤ 1.
    """

    def edge_loads(self) -> Dict[FrozenSet[Hashable], float]:
        loads: Dict[FrozenSet[Hashable], float] = {
            frozenset(e): 0.0 for e in self.graph.edges()
        }
        for wt in self.trees:
            weight = wt.weight
            for e in wt.edge_labels():
                loads[frozenset(e)] += weight
        return loads

    def trees_per_edge(self) -> Dict[FrozenSet[Hashable], int]:
        """How many trees use each edge (Theorem 1.3: O(log³ n))."""
        counts: Dict[FrozenSet[Hashable], int] = {
            frozenset(e): 0 for e in self.graph.edges()
        }
        for wt in self.trees:
            for e in wt.edge_labels():
                counts[frozenset(e)] += 1
        return counts

    def max_edge_load(self) -> float:
        loads = self.edge_loads()
        return max(loads.values()) if loads else 0.0

    def verify(self) -> None:
        """Raise :class:`PackingValidationError` unless all constraints hold."""
        for index, wt in enumerate(self.trees):
            if not is_spanning_tree(self.graph, wt._graph()):
                raise PackingValidationError(
                    f"tree #{index} (class {wt.class_id}) is not a spanning "
                    "tree of the graph"
                )
        load = self.max_edge_load()
        if load > 1.0 + _TOLERANCE:
            raise PackingValidationError(
                f"edge capacity violated: max edge load {load} > 1"
            )

    def is_edge_disjoint(self) -> bool:
        """Whether the trees are pairwise edge-disjoint (integral packing)."""
        seen: set = set()
        for wt in self.trees:
            edges = set(map(frozenset, wt.edge_labels()))
            if seen & edges:
                return False
            seen |= edges
        return True


def spanning_tree_of(graph: nx.Graph, nodes=None) -> nx.Graph:
    """A BFS spanning tree of ``graph`` (or of ``graph[nodes]``).

    Helper used to turn a connected CDS into a dominating tree and a
    connected edge-part into a spanning tree.
    """
    sub = graph if nodes is None else graph.subgraph(nodes)
    if sub.number_of_nodes() == 0:
        raise PackingValidationError("cannot build a tree on an empty node set")
    root = next(iter(sub.nodes()))
    tree = nx.bfs_tree(sub, root).to_undirected()
    result = nx.Graph()
    result.add_nodes_from(sub.nodes())
    result.add_edges_from(tree.edges())
    if not nx.is_tree(result):
        raise PackingValidationError("node set does not induce a connected graph")
    return result
