"""Exact connectivity oracles and Menger path extraction.

These are the *ground truth* oracles the experiments compare against:
exact vertex/edge connectivity (via max-flow, through networkx), minimum
vertex cuts, the disjoint path systems promised by Menger's theorem
([10, Chapter 9] in the paper), and domination/CDS predicates (Section 2).

The decompositions do not need the κ/λ oracles (that is the point of
the paper). The spanning packings, which are sized from ``λ``, take it
from the indexed kernel (:func:`repro.fastgraph.edge_connectivity`);
the one remaining caller on a construction path is
:func:`repro.core.integral_packing.integral_cds_packing`, which reads
exact ``κ`` as a scale hint when no ``k`` is given. The domination/CDS
predicates validate packing outputs. The test suite, the preserved
reference implementations and the analysis reports use the oracles to
measure achieved packing sizes against true connectivity.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Set

import networkx as nx

from repro.errors import GraphValidationError


def _require_graph(graph: nx.Graph) -> None:
    if graph.number_of_nodes() == 0:
        raise GraphValidationError("graph must be non-empty")


def vertex_connectivity(graph: nx.Graph) -> int:
    """Exact vertex connectivity ``k`` of ``graph``.

    By convention, the complete graph K_n has connectivity ``n - 1`` and a
    disconnected graph has connectivity 0.
    """
    _require_graph(graph)
    n = graph.number_of_nodes()
    if n == 1:
        return 0
    if not nx.is_connected(graph):
        return 0
    if graph.number_of_edges() == n * (n - 1) // 2:
        return n - 1
    return nx.node_connectivity(graph)


def edge_connectivity(graph: nx.Graph) -> int:
    """Exact edge connectivity ``λ`` of ``graph`` (0 if disconnected)."""
    _require_graph(graph)
    if graph.number_of_nodes() == 1:
        return 0
    if not nx.is_connected(graph):
        return 0
    return nx.edge_connectivity(graph)


def min_vertex_cut(graph: nx.Graph) -> Set[Hashable]:
    """A minimum vertex cut of ``graph``.

    Raises :class:`GraphValidationError` for complete graphs, which have
    no vertex cut.
    """
    _require_graph(graph)
    n = graph.number_of_nodes()
    if graph.number_of_edges() == n * (n - 1) // 2:
        raise GraphValidationError("complete graphs have no vertex cut")
    return set(nx.minimum_node_cut(graph))


def menger_vertex_paths(
    graph: nx.Graph, source: Hashable, target: Hashable
) -> List[List[Hashable]]:
    """A maximum system of internally vertex-disjoint source-target paths.

    Menger's theorem guarantees at least ``k`` such paths between any
    non-adjacent pair in a k-vertex-connected graph. Used by the tests of
    Lemma 4.3 (Connector Abundance).
    """
    _require_graph(graph)
    if source == target:
        raise GraphValidationError("source and target must differ")
    return [list(p) for p in nx.node_disjoint_paths(graph, source, target)]


def menger_edge_paths(
    graph: nx.Graph, source: Hashable, target: Hashable
) -> List[List[Hashable]]:
    """A maximum system of edge-disjoint source-target paths."""
    _require_graph(graph)
    if source == target:
        raise GraphValidationError("source and target must differ")
    return [list(p) for p in nx.edge_disjoint_paths(graph, source, target)]


def is_dominating_set(graph: nx.Graph, candidate: Iterable[Hashable]) -> bool:
    """Whether every node outside ``candidate`` has a neighbor inside it.

    This is the paper's Section 2 definition (note it does not require
    nodes *inside* the set to have neighbors in it).
    """
    members = set(candidate)
    if not members:
        return graph.number_of_nodes() == 0
    if not members <= set(graph.nodes()):
        raise GraphValidationError("candidate contains nodes not in graph")
    for node in graph.nodes():
        if node in members:
            continue
        if not any(neighbor in members for neighbor in graph.neighbors(node)):
            return False
    return True


def is_connected_dominating_set(
    graph: nx.Graph, candidate: Iterable[Hashable]
) -> bool:
    """Whether ``candidate`` is a CDS: dominating and inducing a connected
    subgraph (Section 2)."""
    members = set(candidate)
    if not members:
        return False
    if not is_dominating_set(graph, members):
        return False
    induced = graph.subgraph(members)
    return nx.is_connected(induced)


def is_dominating_tree(graph: nx.Graph, tree: nx.Graph) -> bool:
    """Whether ``tree`` is a dominating tree of ``graph``.

    Per footnote 1 of the paper: ``tree`` must be a tree using only nodes
    and edges of ``graph``, and its node set must dominate ``graph``.
    """
    if tree.number_of_nodes() == 0:
        return False
    if not set(tree.nodes()) <= set(graph.nodes()):
        return False
    for u, v in tree.edges():
        if not graph.has_edge(u, v):
            return False
    if not nx.is_tree(tree):
        return False
    return is_dominating_set(graph, tree.nodes())


def is_spanning_tree(graph: nx.Graph, tree: nx.Graph) -> bool:
    """Whether ``tree`` is a spanning tree of ``graph``."""
    if set(tree.nodes()) != set(graph.nodes()):
        return False
    for u, v in tree.edges():
        if not graph.has_edge(u, v):
            return False
    return nx.is_tree(tree)


def local_vertex_connectivity(
    graph: nx.Graph, source: Hashable, target: Hashable
) -> int:
    """Maximum number of internally vertex-disjoint source-target paths."""
    _require_graph(graph)
    return nx.connectivity.local_node_connectivity(graph, source, target)
