"""The kernel λ (:func:`repro.fastgraph.edge_connectivity`) against the
two independent exact oracles: networkx's flow-based
``nx.edge_connectivity`` and the from-scratch Stoer–Wagner baseline.

The spanning packings are sized from the kernel value, so any
divergence here would silently change every spanning-packing output.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.specs import parse_graph_spec
from repro.baselines.mincut import edge_connectivity_exact
from repro.fastgraph import IndexedGraph, edge_connectivity
from repro.graphs.connectivity import edge_connectivity as nx_edge_connectivity

_examples = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _kernel(graph: nx.Graph) -> int:
    return edge_connectivity(IndexedGraph.from_networkx(graph))


def _assert_all_agree(graph: nx.Graph) -> int:
    lam = _kernel(graph)
    assert lam == nx_edge_connectivity(graph)
    assert lam == edge_connectivity_exact(graph)
    return lam


@_examples
@given(
    n=st.integers(1, 14),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
def test_gnp_connected_or_not(n, p, seed):
    graph = nx.gnp_random_graph(n, p, seed=seed)
    lam = _assert_all_agree(graph)
    if n < 2 or not nx.is_connected(graph):
        assert lam == 0


@_examples
@given(n=st.integers(2, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_universal_vertex(n, p, seed):
    graph = nx.gnp_random_graph(n, p, seed=seed)
    graph.add_edges_from((0, v) for v in range(1, n))
    assert _assert_all_agree(graph) == min(d for _, d in graph.degree())


@_examples
@given(data=st.data(), n=st.integers(3, 16))
def test_trees_have_lambda_one(data, n):
    prufer = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    assert _assert_all_agree(nx.from_prufer_sequence(prufer)) == 1


@_examples
@given(
    a=st.integers(3, 8),
    b=st.integers(3, 8),
    seed=st.integers(0, 10_000),
)
def test_bridge_between_dense_halves(a, b, seed):
    left = nx.gnp_random_graph(a, 0.8, seed=seed)
    right = nx.gnp_random_graph(b, 0.8, seed=seed + 1)
    graph = nx.disjoint_union(left, right)
    graph.add_edge(0, a)  # the bridge
    if not nx.is_connected(graph):
        assert _assert_all_agree(graph) == 0
    else:
        assert _assert_all_agree(graph) == 1


@_examples
@given(
    n=st.integers(1, 12),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    loops=st.sets(st.integers(0, 11)),
)
def test_self_loops_cross_no_cut(n, p, seed, loops):
    """A loop adds nothing to a cut. networkx counts it twice in the
    degree and can then overstate λ, so its answer is taken on the
    loop-stripped graph; Stoer–Wagner takes the graph as it is."""
    graph = nx.gnp_random_graph(n, p, seed=seed)
    stripped = graph.copy()
    graph.add_edges_from((v, v) for v in loops if v < n)
    lam = _kernel(graph)
    assert lam == edge_connectivity_exact(graph)
    assert lam == nx_edge_connectivity(stripped)
    assert lam == _kernel(stripped)


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_graphs(n):
    assert _assert_all_agree(nx.complete_graph(n)) == n - 1
    assert _assert_all_agree(nx.empty_graph(n)) == 0


@pytest.mark.parametrize("n", range(3, 10))
def test_complete_graphs(n):
    assert _assert_all_agree(nx.complete_graph(n)) == n - 1


@pytest.mark.parametrize(
    "spec,lam",
    [
        ("torus:12,12", 4),
        ("hypercube:7", 7),
        ("regular:10,160,7", 10),
        ("clique_chain:8,16", 15),
        ("harary:8,200", 8),
        ("harary:12,48", 12),
    ],
)
def test_benchmark_query_graphs(spec, lam):
    graph = parse_graph_spec(spec)
    assert _kernel(graph) == lam
    assert nx.edge_connectivity(graph) == lam
