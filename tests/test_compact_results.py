"""Compact cached results: flat virtual-node record and index-side trees.

A cached packing result must hold a number of collector-tracked objects
that grows with its trees and classes, never one object per virtual node
(3·L·n of them) or per tree node and edge. Materialized trees, index-side
aggregates and broadcasts over compact trees must equal what the eager
networkx trees gave.
"""

import gc
import types

import networkx as nx
import pytest

from repro.api import GraphSession
from repro.apps.broadcast import edge_broadcast, vertex_broadcast
from repro.core.cds_packing import construct_cds_packing
from repro.core.spanning_packing import (
    MwuParameters,
    _mwu_indexed,
    fractional_spanning_tree_packing,
)
from repro.core.tree_packing import (
    DominatingTreePacking,
    SpanningTreePacking,
    WeightedTree,
)
from repro.core.virtual_graph import VirtualGraph, VirtualNode
from repro.errors import GraphValidationError
from repro.fastgraph import IndexedGraph, edge_connectivity
from repro.graphs.generators import harary_graph
from repro.utils.mathutil import ceil_div

SPECS = ["hypercube:6", "harary:12,48"]


def _reachable(roots, stop=frozenset()):
    """Objects reachable from ``roots`` through ``gc.get_referents``,
    not entering ``stop`` ids, types, modules or functions."""
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in stop or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen


def _tracked_objects(result, session):
    """Tracked objects a cached result holds beyond the session's own
    graph and indexes."""
    shared = _reachable([session.graph, session.indexed, session.cds_index])
    owned = _reachable([result], frozenset(shared))
    return [obj for obj in owned.values() if gc.is_tracked(obj)]


def _graph_shape(tree):
    """Node order, adjacency order and edge order of a graph."""
    return (
        list(tree.nodes()),
        [(v, list(tree.adj[v])) for v in tree.nodes()],
        list(tree.edges()),
    )


class TestTrackedObjectBudget:
    @pytest.mark.parametrize("spec", SPECS)
    def test_cds_result(self, spec):
        session = GraphSession(spec)
        result = session.pack_cds(seed=3).raw
        vg = result.virtual_graph
        trees = len(result.packing)
        classes = vg.n_classes
        # Per tree: the tree and its member and edge arrays. Per class:
        # its state, multiplicity dict, union-find and the union-find's
        # two lists. One class set per real node (Theorem 1.1's
        # O(log n) memberships), one stats record per layer.
        budget = 3 * trees + 5 * classes + session.n + vg.layers + 32
        tracked = _tracked_objects(result, session)
        assert len(tracked) <= budget
        assert budget < 3 * vg.layers * session.n
        assert not any(isinstance(obj, VirtualNode) for obj in tracked)

    @pytest.mark.parametrize("spec", SPECS)
    def test_spanning_result(self, spec):
        session = GraphSession(spec)
        result = session.pack_spanning(seed=3).raw
        trees = len(result.packing)
        tracked = _tracked_objects(result, session)
        # Per tree: the tree and its edge array.
        assert len(tracked) <= 2 * trees + 16
        assert not any(isinstance(obj, nx.Graph) for obj in tracked)

    def test_reading_aggregates_builds_no_graph(self):
        session = GraphSession("hypercube:6")
        packing = session.pack_spanning(seed=3).raw.packing
        packing.max_edge_load()
        packing.trees_per_edge()
        packing.is_edge_disjoint()
        packing.verify()
        assert all(wt._tree is None for wt in packing.trees)


class TestMaterialization:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_cds_tree_equals_members_bfs_graph(self, seed):
        graph = harary_graph(6, 30)
        packing = construct_cds_packing(graph, 6, rng=seed).packing
        for wt in packing.trees:
            members = [v for v in graph.nodes() if v in wt.nodes]
            old = nx.Graph()
            old.add_nodes_from(members)
            old.add_edges_from(
                nx.bfs_edges(graph.subgraph(members), members[0])
            )
            assert _graph_shape(wt.tree) == _graph_shape(old)

    @pytest.mark.parametrize("seed", [2, 9])
    def test_spanning_tree_equals_indexed_tree_graph(self, seed):
        graph = harary_graph(4, 16)
        params = MwuParameters(epsilon=0.2, beta_factor=2.0)
        result = fractional_spanning_tree_packing(graph, params=params, rng=seed)
        assert result.parts == 1
        indexed = IndexedGraph.from_networkx(graph)
        lam = edge_connectivity(indexed)
        target = max(1, ceil_div(max(0, lam - 1), 2))
        raw, _ = _mwu_indexed(indexed, list(range(indexed.m)), target, params)
        assert len(raw) == len(result.packing)
        for wt, (key, _) in zip(result.packing.trees, raw):
            assert _graph_shape(wt.tree) == _graph_shape(indexed.tree_graph(key))

    def test_tree_is_built_once(self):
        packing = construct_cds_packing(harary_graph(4, 16), 4, rng=1).packing
        wt = packing.trees[0]
        assert wt.tree is wt.tree

    def test_given_graph_is_kept_as_the_tree(self):
        tree = nx.path_graph(4)
        wt = WeightedTree(tree=tree, weight=0.5, class_id=3)
        assert wt.tree is tree
        assert wt.nodes == frozenset(range(4))
        assert wt.edges == {frozenset(e) for e in tree.edges()}
        assert wt.n_nodes == 4


def _eager(packing):
    """The same packing with every tree held as a networkx graph."""
    trees = [WeightedTree(wt.tree, wt.weight, wt.class_id) for wt in packing]
    return type(packing)(packing.graph, trees)


class TestIndexSideAggregates:
    def test_dominating_aggregates(self):
        packing = construct_cds_packing(harary_graph(6, 30), 6, rng=4).packing
        graph = packing.graph
        loads = {v: 0.0 for v in graph.nodes()}
        counts = {v: 0 for v in graph.nodes()}
        for wt in packing.trees:
            for v in wt.tree.nodes():
                loads[v] += wt.weight
                counts[v] += 1
        assert list(packing.node_loads().items()) == list(loads.items())
        assert packing.trees_per_node() == counts
        assert packing.max_node_load() == max(loads.values())
        for wt in packing.trees:
            assert wt.nodes == frozenset(wt.tree.nodes())
            assert wt.edges == frozenset(map(frozenset, wt.tree.edges()))
        assert packing.is_vertex_disjoint() == _eager(packing).is_vertex_disjoint()

    def test_spanning_aggregates(self):
        graph = harary_graph(5, 18)
        packing = fractional_spanning_tree_packing(
            graph, params=MwuParameters(epsilon=0.25, beta_factor=3.0), rng=5
        ).packing
        loads = {frozenset(e): 0.0 for e in graph.edges()}
        counts = {frozenset(e): 0 for e in graph.edges()}
        for wt in packing.trees:
            for e in wt.tree.edges():
                loads[frozenset(e)] += wt.weight
                counts[frozenset(e)] += 1
        assert list(packing.edge_loads().items()) == list(loads.items())
        assert packing.trees_per_edge() == counts
        assert packing.max_edge_load() == max(loads.values())
        assert packing.is_edge_disjoint() == _eager(packing).is_edge_disjoint()
        assert packing.max_diameter() == max(
            nx.diameter(wt.tree) for wt in packing.trees
        )


def _outcome(outcome):
    return (
        outcome.rounds,
        list(outcome.tree_assignment.items()),
        list(outcome.node_transmissions.items()),
        list(outcome.edge_transmissions.items()),
    )


class TestBroadcastOverCompactTrees:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_vertex_broadcast(self, seed):
        packing = construct_cds_packing(harary_graph(6, 24), 6, rng=101).packing
        sources = {i: i % 24 for i in range(20)}
        compact = vertex_broadcast(packing, sources, rng=seed)
        eager = vertex_broadcast(_eager(packing), sources, rng=seed)
        assert _outcome(compact) == _outcome(eager)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_edge_broadcast(self, seed):
        packing = fractional_spanning_tree_packing(
            harary_graph(8, 30),
            params=MwuParameters(epsilon=0.25, beta_factor=3.0), rng=102,
        ).packing
        sources = {i: (7 * i) % 30 for i in range(24)}
        compact = edge_broadcast(packing, sources, rng=seed)
        eager = edge_broadcast(_eager(packing), sources, rng=seed)
        assert _outcome(compact) == _outcome(eager)

    def test_only_assigned_trees_are_read(self):
        packing = fractional_spanning_tree_packing(
            harary_graph(12, 48), rng=1
        ).packing
        edge_broadcast(packing, {0: 0, 1: 5}, rng=4)
        assert all(wt._tree is None for wt in packing.trees)


@pytest.fixture
def vg():
    return VirtualGraph(nx.cycle_graph(5), layers=4, n_classes=3)


class TestVirtualGraphRecord:
    @pytest.mark.parametrize(
        "layer,vtype", [(0, 1), (5, 1), (-1, 2), (1, 0), (1, 4), (2, -1)]
    )
    def test_out_of_range_layer_or_type(self, vg, layer, vtype):
        with pytest.raises(GraphValidationError):
            vg.assign(VirtualNode(0, layer, vtype), 0)
        with pytest.raises(GraphValidationError):
            vg.assign_at(0, layer, vtype, 0)
        assert len(vg.assignment) == 0

    @pytest.mark.parametrize("i", [-1, 5])
    def test_out_of_range_index(self, vg, i):
        with pytest.raises(GraphValidationError):
            vg.assign_at(i, 1, 1, 0)

    def test_duplicate_rejected(self, vg):
        vg.assign(VirtualNode(2, 3, 2), 1)
        with pytest.raises(GraphValidationError, match="already assigned"):
            vg.assign(VirtualNode(2, 3, 2), 0)
        with pytest.raises(GraphValidationError, match="already assigned"):
            vg.assign_at(2, 3, 2, 1)
        assert vg.class_of(VirtualNode(2, 3, 2)) == 1
        assert len(vg.assignment) == 1

    def test_class_out_of_range(self, vg):
        for class_id in (-1, 3):
            with pytest.raises(GraphValidationError, match="out of range"):
                vg.assign(VirtualNode(0, 1, 1), class_id)
        assert VirtualNode(0, 1, 1) not in vg.assignment

    def test_assignment_is_a_read_only_mapping(self, vg):
        expected = {}
        for vnode, class_id in [
            (VirtualNode(4, 2, 3), 2),
            (VirtualNode(0, 1, 1), 0),
            (VirtualNode(1, 1, 2), 1),
        ]:
            vg.assign(vnode, class_id)
            expected[vnode] = class_id
        view = vg.assignment
        assert len(view) == 3
        assert view == expected
        assert expected == view
        assert set(view) == set(expected)
        assert VirtualNode(0, 1, 1) in view
        assert (0, 1, 1) in view
        assert VirtualNode(0, 1, 2) not in view
        assert ("missing", 1, 1) not in view
        assert view[VirtualNode(4, 2, 3)] == 2
        assert view.get(VirtualNode(3, 1, 1)) is None
        assert vg.class_of(VirtualNode(0, 9, 1)) is None
        with pytest.raises(KeyError):
            view[VirtualNode(3, 1, 1)]
        with pytest.raises(TypeError):
            view[VirtualNode(3, 1, 1)] = 0

    def test_iteration_follows_assignment_order(self):
        result = construct_cds_packing(harary_graph(4, 12), 4, rng=2)
        keys = list(result.virtual_graph.assignment)
        n, layers = 12, result.virtual_graph.layers
        assert len(keys) == 3 * layers * n
        assert keys[:4] == [
            VirtualNode(0, 1, 1), VirtualNode(0, 1, 2),
            VirtualNode(0, 1, 3), VirtualNode(1, 1, 1),
        ]
