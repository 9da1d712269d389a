"""Incremental re-canonicalization == from-scratch, bit for bit.

:meth:`IndexedGraph.add_edge` / :meth:`IndexedGraph.remove_edge` splice
the canonical edge arrays and the neighbor lists in place; the contract
is that after *any* edit schedule the index is **indistinguishable**
from ``IndexedGraph.from_networkx`` of the equally-edited ``nx.Graph``
— same node order, same (u, v) arrays, same neighbor lists. The same
contract one level up: a mutated :class:`GraphSession` must be
byte-identical (fingerprints, payload JSON, simulation traces) to a
fresh session built from the final graph.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.api import GraphSession
from repro.errors import GraphValidationError
from repro.fastgraph import IndexedGraph
from repro.graphs.generators import harary_graph, hypercube, torus_grid


def assert_same_index(actual: IndexedGraph, expected: IndexedGraph) -> None:
    assert actual.nodes == expected.nodes
    assert actual.index_of == expected.index_of
    assert (actual.n, actual.m) == (expected.n, expected.m)
    assert actual.u == expected.u
    assert actual.v == expected.v
    assert actual.neighbors() == expected.neighbors()


def random_schedule(graph: nx.Graph, rng: random.Random, steps: int):
    """Yield (op, a, b) edits keeping the graph connected and loop-free."""
    for _ in range(steps):
        if rng.random() < 0.55 or graph.number_of_edges() <= graph.number_of_nodes():
            # add a random non-edge (occasionally to a brand-new node)
            nodes = list(graph.nodes())
            if rng.random() < 0.1:
                a = rng.choice(nodes)
                b = max(
                    (n for n in nodes if isinstance(n, int)), default=0
                ) + 1 + rng.randrange(3)
                if graph.has_edge(a, b) or a == b:
                    continue
            else:
                a, b = rng.sample(nodes, 2)
                if graph.has_edge(a, b):
                    continue
            yield ("add", a, b)
        else:
            # remove a random edge whose removal keeps the graph
            # connected — probing on a *copy*: remove+re-add on the
            # shared graph would move the probed edge to the end of
            # nx's adjacency insertion order and scramble the very
            # canonical order the differential pins.
            edges = list(graph.edges())
            rng.shuffle(edges)
            for a, b in edges:
                probe = graph.copy()
                probe.remove_edge(a, b)
                if nx.is_connected(probe):
                    yield ("remove", a, b)
                    break


BASE_GRAPHS = [
    ("harary", lambda: harary_graph(4, 14)),
    ("hypercube", lambda: hypercube(3)),
    ("torus", lambda: torus_grid(3, 4)),
]


@pytest.mark.parametrize("name,build", BASE_GRAPHS, ids=[g[0] for g in BASE_GRAPHS])
@pytest.mark.parametrize("schedule_seed", range(6))
def test_incremental_matches_scratch(name, build, schedule_seed):
    """Randomized edit schedules: spliced index == rebuilt index."""
    salt = sum(ord(c) for c in name)  # deterministic, unlike hash()
    rng = random.Random(1000 * schedule_seed + salt)
    graph = build()
    indexed = IndexedGraph.from_networkx(graph)
    for op, a, b in random_schedule(graph, rng, steps=20):
        if op == "add":
            indexed.add_edge(a, b)
            graph.add_edge(a, b)
        else:
            indexed.remove_edge(a, b)
            graph.remove_edge(a, b)
        assert_same_index(indexed, IndexedGraph.from_networkx(graph))


def test_incremental_cold_neighbors():
    """Edits before the neighbor lists were ever materialized."""
    graph = harary_graph(4, 10)
    indexed = IndexedGraph.from_networkx(graph)
    indexed.add_edge(0, 5)
    graph.add_edge(0, 5)
    indexed.remove_edge(0, 1)
    graph.remove_edge(0, 1)
    assert_same_index(indexed, IndexedGraph.from_networkx(graph))


def test_add_edge_new_nodes_appended_in_order():
    graph = nx.path_graph(4)
    indexed = IndexedGraph.from_networkx(graph)
    indexed.add_edge(10, 11)  # both endpoints brand new
    graph.add_edge(10, 11)
    assert_same_index(indexed, IndexedGraph.from_networkx(graph))
    assert indexed.nodes[-2:] == [10, 11]


def test_mutation_rejects_self_loop_and_duplicates():
    indexed = IndexedGraph.from_networkx(nx.path_graph(4))
    with pytest.raises(ValueError):
        indexed.add_edge(2, 2)
    with pytest.raises(ValueError):
        indexed.add_edge(0, 1)  # already present
    with pytest.raises(KeyError):
        indexed.remove_edge(0, 2)  # not present


def test_has_edge_and_generation():
    indexed = IndexedGraph.from_networkx(nx.cycle_graph(5))
    assert indexed.generation == 0
    assert indexed.has_edge(0, 1) and indexed.has_edge(1, 0)
    assert not indexed.has_edge(0, 2)
    indexed.add_edge(0, 2)
    assert indexed.generation == 1
    assert indexed.has_edge(0, 2)
    indexed.remove_edge(0, 2)
    assert indexed.generation == 2
    assert not indexed.has_edge(0, 2)


def test_non_canonical_index_refuses_mutation():
    """Hand-built indexes without the canonical order can't be spliced."""
    indexed = IndexedGraph([0, 1, 2], [(1, 0), (0, 2)])  # u[0] > v[0]
    with pytest.raises(ValueError):
        indexed.add_edge(1, 2)


# -- session-level differential --------------------------------------------


def edit_session_and_graph(session, graph, rng, steps=10):
    """Apply one connectivity-preserving schedule to both; returns the
    number of edits actually applied (the schedule may skip steps)."""
    applied = 0
    for op, a, b in random_schedule(graph, rng, steps):
        if op == "add":
            session.add_edge(a, b)
            graph.add_edge(a, b)
        else:
            session.remove_edge(a, b)
            graph.remove_edge(a, b)
        applied += 1
    return applied


@pytest.mark.parametrize("schedule_seed", range(3))
def test_session_differential_byte_identity(schedule_seed):
    """A mutated session == a fresh session from the final graph.

    Fingerprint, connectivity/packing payload JSON, and simulation
    traces must agree byte for byte — the acceptance criterion of the
    incremental re-canonicalization layer.
    """
    rng = random.Random(42 + schedule_seed)
    graph = harary_graph(4, 12)
    session = GraphSession(graph, label="edited")
    session.connectivity(seed=1)  # warm the index + caches pre-edit
    shadow = graph.copy()
    applied = edit_session_and_graph(session, shadow, rng, steps=12)
    assert applied >= 6  # the schedule really exercised the splice path

    fresh = GraphSession(shadow.copy(), label="edited")
    assert session.fingerprint == fresh.fingerprint
    assert (
        session.connectivity(seed=1).canonical_json()
        == fresh.connectivity(seed=1).canonical_json()
    )
    assert (
        session.pack_cds(seed=2).canonical_json()
        == fresh.pack_cds(seed=2).canonical_json()
    )
    assert (
        session.simulate(program="flood-min", seed=3).canonical_json()
        == fresh.simulate(program="flood-min", seed=3).canonical_json()
    )
    assert session.stats["mutations"] == applied
    assert session.stats["canonicalizations"] == 1  # never rebuilt


def test_session_mutation_invalidates_dependent_layers():
    session = GraphSession("harary:4,12")
    before = session.connectivity(seed=0)
    fp_before = session.fingerprint
    cds_before = session.cds_index
    session.add_edge(0, 6)
    assert session.generation == 1
    assert session.fingerprint != fp_before
    assert session.cds_index is not cds_before  # rebuilt lazily
    after = session.connectivity(seed=0)
    assert after.payload != before.payload or after.fingerprint != before.fingerprint
    assert session.stats["invalidations"] >= 1
    # undo: everything converges back to the original fingerprint
    session.remove_edge(0, 6)
    assert session.fingerprint == fp_before


def test_session_mutation_validation_errors():
    session = GraphSession("harary:4,12")
    with pytest.raises(GraphValidationError):
        session.add_edge(3, 3)
    with pytest.raises(GraphValidationError):
        session.add_edge(0, 1)
    with pytest.raises(GraphValidationError):
        session.remove_edge(0, 5)
    assert session.stats["mutations"] == 0


def test_session_result_cache_lru_bound():
    """The per-session result cache is bounded and counts evictions."""
    session = GraphSession("harary:4,12", cache_limit=3)
    for seed in range(6):
        session.simulate  # no-op attr touch; simulate is uncached
        session.connectivity(seed=seed)
    assert len(session._results) <= 3
    assert session.stats["evictions"] > 0
    # most-recent seeds are still warm
    hits_before = session.stats["cache_hits"]
    session.connectivity(seed=5)
    assert session.stats["cache_hits"] == hits_before + 1


def test_session_cache_limit_validation():
    with pytest.raises(GraphValidationError):
        GraphSession("harary:4,12", cache_limit=0)
    GraphSession("harary:4,12", cache_limit=None)  # unbounded is allowed


def test_session_lambda_follows_edits():
    """The session's cached λ belongs to one graph generation: after
    each edit it equals a fresh session's, and so do the spanning
    packings sized from it."""
    session = GraphSession("harary:4,12")
    assert session.pack_spanning(seed=0).payload["lam"] == 4
    for op, a, b in (("rmv", 0, 1), ("new", 0, 6), ("rmv", 3, 4)):
        if op == "new":
            session.add_edge(a, b)
        else:
            session.remove_edge(a, b)
        fresh = GraphSession(session.graph.copy(), label=session.label)
        assert session._edge_connectivity() == fresh._edge_connectivity()
        assert (
            session.pack_spanning(seed=0).canonical_json()
            == fresh.pack_spanning(seed=0).canonical_json()
        )
    assert session.pack_spanning(seed=0).payload["lam"] == 3
