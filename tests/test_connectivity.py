"""Connectivity oracles, Menger paths, domination predicates (Section 2)."""

import networkx as nx
import pytest

from repro.errors import GraphValidationError
from repro.graphs.connectivity import (
    edge_connectivity,
    is_connected_dominating_set,
    is_dominating_set,
    is_dominating_tree,
    is_spanning_tree,
    local_vertex_connectivity,
    menger_edge_paths,
    menger_vertex_paths,
    min_vertex_cut,
    vertex_connectivity,
)
from repro.graphs.generators import harary_graph


class TestConnectivityValues:
    def test_cycle(self):
        g = nx.cycle_graph(8)
        assert vertex_connectivity(g) == 2
        assert edge_connectivity(g) == 2

    def test_path_graph(self):
        g = nx.path_graph(5)
        assert vertex_connectivity(g) == 1
        assert edge_connectivity(g) == 1

    def test_complete_graph_convention(self):
        g = nx.complete_graph(6)
        assert vertex_connectivity(g) == 5

    def test_disconnected_is_zero(self):
        g = nx.Graph([(0, 1), (2, 3)])
        assert vertex_connectivity(g) == 0
        assert edge_connectivity(g) == 0

    def test_single_node(self):
        g = nx.Graph()
        g.add_node(0)
        assert vertex_connectivity(g) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphValidationError):
            vertex_connectivity(nx.Graph())

    def test_self_loops_do_not_raise_edge_connectivity(self):
        # networkx alone reports 3: it counts each loop twice in the
        # minimum degree it starts from.
        g = nx.complete_graph(2)
        g.add_edges_from([(0, 0), (1, 1)])
        assert edge_connectivity(g) == 1
        assert vertex_connectivity(g) == 1

    def test_self_loop_does_not_complete_a_graph(self):
        # K4 minus an edge has 5 edges; one loop brings the count to the
        # 6 of K4, which the complete-graph shortcut used to read as κ=3.
        g = nx.complete_graph(4)
        g.remove_edge(0, 1)
        g.add_edge(2, 2)
        assert vertex_connectivity(g) == 2
        assert edge_connectivity(g) == 2
        assert min_vertex_cut(g) == {2, 3}


class TestCutsAndMenger:
    def test_min_vertex_cut_disconnects(self):
        g = harary_graph(3, 12)
        cut = min_vertex_cut(g)
        assert len(cut) == 3
        h = g.copy()
        h.remove_nodes_from(cut)
        assert not nx.is_connected(h)

    def test_min_cut_of_complete_rejected(self):
        with pytest.raises(GraphValidationError):
            min_vertex_cut(nx.complete_graph(5))

    def test_menger_vertex_paths_count(self):
        g = harary_graph(4, 16)
        # pick a non-adjacent pair
        pairs = [
            (u, v)
            for u in g.nodes()
            for v in g.nodes()
            if u < v and not g.has_edge(u, v)
        ]
        u, v = pairs[0]
        paths = menger_vertex_paths(g, u, v)
        assert len(paths) >= 4
        # internal disjointness
        internals = [set(p[1:-1]) for p in paths]
        for i in range(len(internals)):
            for j in range(i + 1, len(internals)):
                assert not internals[i] & internals[j]

    def test_menger_edge_paths_disjoint(self):
        g = harary_graph(4, 12)
        paths = menger_edge_paths(g, 0, 6)
        assert len(paths) >= 4
        used = set()
        for p in paths:
            for a, b in zip(p, p[1:]):
                e = frozenset((a, b))
                assert e not in used
                used.add(e)

    def test_menger_same_node_rejected(self):
        g = nx.cycle_graph(5)
        with pytest.raises(GraphValidationError):
            menger_vertex_paths(g, 0, 0)

    def test_local_connectivity(self):
        g = nx.cycle_graph(6)
        assert local_vertex_connectivity(g, 0, 3) == 2


class TestDominationPredicates:
    def test_whole_vertex_set_dominates(self):
        g = nx.cycle_graph(6)
        assert is_dominating_set(g, g.nodes())

    def test_every_other_node_dominates_cycle(self):
        g = nx.cycle_graph(6)
        assert is_dominating_set(g, {0, 2, 4})

    def test_non_dominating(self):
        g = nx.path_graph(6)
        assert not is_dominating_set(g, {0})

    def test_cds_requires_connected(self):
        g = nx.cycle_graph(6)
        assert not is_connected_dominating_set(g, {0, 2, 4})
        assert is_connected_dominating_set(g, {0, 1, 2, 3, 4})

    def test_empty_set_not_cds(self):
        g = nx.cycle_graph(4)
        assert not is_connected_dominating_set(g, set())

    def test_foreign_nodes_rejected(self):
        g = nx.cycle_graph(4)
        with pytest.raises(GraphValidationError):
            is_dominating_set(g, {99})


class TestTreePredicates:
    def test_dominating_tree_accepts(self):
        g = nx.cycle_graph(6)
        tree = nx.path_graph(5)  # nodes 0..4 dominate the 6-cycle
        assert is_dominating_tree(g, tree)

    def test_dominating_tree_rejects_cycle(self):
        g = nx.complete_graph(5)
        not_tree = nx.cycle_graph(3)
        assert not is_dominating_tree(g, not_tree)

    def test_dominating_tree_rejects_foreign_edge(self):
        g = nx.cycle_graph(6)
        tree = nx.Graph([(0, 3)])  # not an edge of the cycle
        assert not is_dominating_tree(g, tree)

    def test_spanning_tree_accepts(self):
        g = nx.complete_graph(5)
        t = nx.star_graph(4)
        assert is_spanning_tree(g, t)

    def test_spanning_tree_rejects_partial(self):
        g = nx.complete_graph(5)
        t = nx.path_graph(4)
        assert not is_spanning_tree(g, t)
