"""GraphSession: cached canonicalization + bit-identity with the free
functions.

Two properties anchor the API layer:

* **construction-once** — one session performs exactly one
  ``IndexedGraph`` canonicalization and one ``CdsIndex`` build across
  the whole estimate → pack → broadcast pipeline;
* **shim equivalence** — under a fixed seed, every session method is
  bit-identical to the legacy free function it fronts (the session only
  shares indices; it never touches an RNG stream).
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.api import GraphSession, parse_graph_spec
from repro.core.cds_packing import fractional_cds_packing
from repro.core.integral_packing import (
    integral_cds_packing,
    integral_spanning_packing,
)
from repro.core.spanning_packing import fractional_spanning_tree_packing
from repro.core.vertex_connectivity import approximate_vertex_connectivity
from repro.core.virtual_graph import CdsIndex
from repro.errors import GraphValidationError
from repro.fastgraph import IndexedGraph

SPEC = "harary:4,16"


def _tree_edge_sets(packing):
    return [
        (wt.class_id, wt.weight, frozenset(map(frozenset, wt.tree.edges())))
        for wt in packing.trees
    ]


class TestConstruction:
    def test_from_spec(self):
        session = GraphSession(SPEC)
        assert session.n == 16
        assert session.label == SPEC

    def test_from_graph(self):
        graph = parse_graph_spec(SPEC)
        session = GraphSession(graph)
        assert session.graph is graph
        assert session.label.startswith("<graph ")

    def test_from_edge_list(self):
        session = GraphSession([(0, 1), (1, 2), (2, 0)])
        assert session.n == 3
        assert session.m == 3

    def test_rejects_garbage(self):
        with pytest.raises(GraphValidationError):
            GraphSession(42)

    def test_fingerprint_is_structural(self):
        from_spec = GraphSession(SPEC)
        from_graph = GraphSession(parse_graph_spec(SPEC))
        assert from_spec.fingerprint == from_graph.fingerprint
        other = GraphSession("harary:4,18")
        assert other.fingerprint != from_spec.fingerprint

    def test_envelope_carries_identity(self):
        session = GraphSession(SPEC)
        envelope = session.pack_cds(seed=3)
        assert envelope.task == "pack_cds"
        assert envelope.graph == SPEC
        assert envelope.fingerprint == session.fingerprint
        assert (envelope.n, envelope.m) == (session.n, session.m)
        assert envelope.seed == 3


class TestConstructionHappensOnce:
    """The acceptance-criterion test: estimate → pack → broadcast on one
    session performs exactly one canonicalization of each kind."""

    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"indexed": 0, "cds_index": 0}
        original_from_networkx = IndexedGraph.from_networkx.__func__
        original_cds_init = CdsIndex.__init__

        def counting_from_networkx(cls, graph):
            counts["indexed"] += 1
            return original_from_networkx(cls, graph)

        def counting_cds_init(self, graph, indexed=None):
            counts["cds_index"] += 1
            return original_cds_init(self, graph, indexed=indexed)

        monkeypatch.setattr(
            IndexedGraph, "from_networkx",
            classmethod(counting_from_networkx),
        )
        monkeypatch.setattr(CdsIndex, "__init__", counting_cds_init)
        return counts

    def test_estimate_pack_broadcast_single_canonicalization(self, counters):
        session = GraphSession(SPEC)
        session.connectivity(seed=3)
        session.pack_cds(seed=3)
        session.broadcast(messages=8, seed=3)
        assert counters["indexed"] == 1
        assert counters["cds_index"] == 1

    def test_spanning_and_integral_reuse_the_index(self, counters):
        session = GraphSession(SPEC)
        session.pack_spanning(seed=5)
        session.pack_integral(kind="spanning", seed=5)
        assert counters["indexed"] == 1

    def test_simulate_reuses_the_index(self, counters):
        session = GraphSession(SPEC)
        session.pack_cds(seed=1)
        session.simulate(program="flood-min", seed=1)
        assert counters["indexed"] == 1

    def test_lambda_computed_once_per_generation(self, monkeypatch):
        import repro.fastgraph

        calls = []
        original = repro.fastgraph.edge_connectivity

        def counting(indexed):
            calls.append(indexed)
            return original(indexed)

        monkeypatch.setattr(repro.fastgraph, "edge_connectivity", counting)
        session = GraphSession(SPEC)
        spanning = session.pack_spanning(seed=5)
        session.pack_spanning(seed=6)
        session.pack_integral(kind="spanning", seed=5)
        session.broadcast(messages=4, seed=7, transport="edge")
        assert calls == [session.indexed]
        assert spanning.params["lam"] is None
        assert spanning.payload["lam"] == original(session.indexed)

    def test_per_call_path_recanonicalizes(self, counters):
        # The contrast case: three free-function calls, three
        # canonicalizations (what the session exists to avoid).
        graph = parse_graph_spec(SPEC)
        approximate_vertex_connectivity(graph, rng=3)
        fractional_cds_packing(graph, rng=3)
        fractional_spanning_tree_packing(graph, rng=3)
        assert counters["indexed"] == 3


class TestResultCache:
    def test_repeated_call_is_cached(self):
        session = GraphSession(SPEC)
        first = session.pack_cds(seed=3)
        second = session.pack_cds(seed=3)
        assert second == first
        assert second.raw is first.raw  # the construction is shared...
        assert second is not first      # ...the envelope is a copy
        assert session.stats["cache_hits"] == 1

    def test_caller_mutation_cannot_poison_the_cache(self):
        session = GraphSession(SPEC)
        envelope = session.pack_cds(seed=3)
        pristine_size = envelope.payload["size"]
        envelope.payload["size"] = -1.0
        envelope.timings.clear()
        assert session.pack_cds(seed=3).payload["size"] == pristine_size

    def test_connectivity_shares_the_pack_cds_construction(self):
        session = GraphSession(SPEC)
        session.connectivity(seed=3)
        misses_after_estimate = session.stats["cache_misses"]
        envelope = session.pack_cds(seed=3)
        # pack_cds is a new envelope (one miss) but reuses the estimate's
        # underlying construction — its payload matches the free function
        # exactly (asserted in TestShimEquivalence).
        assert session.stats["cache_misses"] == misses_after_estimate + 1
        assert envelope.payload["size"] > 0

    def test_different_seeds_are_distinct(self):
        session = GraphSession(SPEC)
        assert (
            session.pack_cds(seed=3).payload
            != session.pack_cds(seed=4).payload
            or session.pack_cds(seed=3) is not session.pack_cds(seed=4)
        )


class TestShimEquivalence:
    """Session methods == legacy free functions, bit for bit, per seed."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_pack_cds(self, seed):
        session = GraphSession(SPEC)
        envelope = session.pack_cds(seed=seed)
        reference = fractional_cds_packing(parse_graph_spec(SPEC), rng=seed)
        assert _tree_edge_sets(envelope.raw.packing) == _tree_edge_sets(
            reference.packing
        )
        assert envelope.payload["size"] == reference.packing.size
        assert envelope.payload["t_used"] == reference.t_used

    @pytest.mark.parametrize("seed", [0, 5])
    def test_pack_spanning(self, seed):
        session = GraphSession(SPEC)
        envelope = session.pack_spanning(seed=seed)
        reference = fractional_spanning_tree_packing(
            parse_graph_spec(SPEC), rng=seed
        )
        assert _tree_edge_sets(envelope.raw.packing) == _tree_edge_sets(
            reference.packing
        )
        assert envelope.payload["size"] == reference.packing.size

    @pytest.mark.parametrize("seed", [0, 7])
    def test_connectivity(self, seed):
        session = GraphSession(SPEC)
        envelope = session.connectivity(seed=seed)
        reference = approximate_vertex_connectivity(
            parse_graph_spec(SPEC), rng=seed
        )
        assert envelope.payload["lower_bound"] == reference.lower_bound
        assert envelope.payload["upper_bound"] == reference.upper_bound
        assert envelope.payload["estimate"] == reference.estimate
        assert envelope.payload["packing_size"] == reference.packing_size

    def test_pack_integral_cds(self):
        session = GraphSession("fat_cycle:4,4")
        envelope = session.pack_integral(
            kind="cds", class_factor=2.0, seed=17
        )
        reference = integral_cds_packing(
            parse_graph_spec("fat_cycle:4,4"), class_factor=2.0, rng=17
        )
        assert _tree_edge_sets(envelope.raw.packing) == _tree_edge_sets(
            reference.packing
        )

    def test_pack_integral_spanning(self):
        session = GraphSession("harary:6,20")
        envelope = session.pack_integral(kind="spanning", seed=9)
        reference = integral_spanning_packing(
            parse_graph_spec("harary:6,20"), rng=9
        )
        assert _tree_edge_sets(envelope.raw) == _tree_edge_sets(reference)

    def test_broadcast_matches_manual_pipeline(self):
        from repro.apps.broadcast import vertex_broadcast

        session = GraphSession(SPEC)
        envelope = session.broadcast(messages=8, seed=7)
        graph = parse_graph_spec(SPEC)
        packing = fractional_cds_packing(graph, rng=7).packing
        nodes = sorted(graph.nodes(), key=str)
        sources = {i: nodes[i % len(nodes)] for i in range(8)}
        reference = vertex_broadcast(packing, sources, rng=7)
        assert envelope.payload["rounds"] == reference.rounds
        assert envelope.raw.tree_assignment == reference.tree_assignment
        assert envelope.raw.node_transmissions == reference.node_transmissions

    def test_gossip_matches_manual_pipeline(self):
        from repro.apps.gossip import gossip

        session = GraphSession(SPEC)
        envelope = session.gossip(seed=5)
        packing = fractional_cds_packing(parse_graph_spec(SPEC), rng=5).packing
        reference = gossip(packing, rng=5)
        assert envelope.payload["rounds"] == reference.rounds
        assert envelope.payload["reference_rounds"] == (
            reference.reference_rounds
        )

    @pytest.mark.parametrize("program", ["flood-min", "bfs"])
    def test_simulate_matches_standalone_scenario(self, program):
        from repro.simulator.scenario import Scenario

        session = GraphSession(SPEC)
        envelope = session.simulate(program=program, seed=3)
        reference = Scenario(topology=SPEC, program=program, seed=3).run()
        assert envelope.payload["rounds"] == reference.summary()["rounds"]
        assert envelope.payload["messages"] == reference.summary()["messages"]
        assert envelope.raw.result.outputs == reference.result.outputs


class TestValidation:
    def test_bad_transport(self):
        with pytest.raises(GraphValidationError, match="vertex, edge"):
            GraphSession(SPEC).broadcast(transport="pigeon")

    def test_bad_integral_kind(self):
        with pytest.raises(GraphValidationError, match="cds, spanning"):
            GraphSession(SPEC).pack_integral(kind="mystery")

    def test_disconnected_graph_surfaces_core_error(self):
        graph = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(GraphValidationError):
            GraphSession(graph).pack_cds()

    def test_mismatched_prebuilt_index_rejected(self):
        from repro.simulator.network import Network

        other = IndexedGraph.from_networkx(parse_graph_spec("hypercube:3"))
        graph = parse_graph_spec(SPEC)
        with pytest.raises(GraphValidationError, match="does not match"):
            CdsIndex(graph, indexed=other)
        with pytest.raises(GraphValidationError, match="does not match"):
            Network(graph, rng=0, indexed=other)


class TestModuleLevelShims:
    def test_one_shot_functions(self):
        import repro.api as api

        envelope = api.pack_cds(SPEC, seed=3)
        assert envelope.payload == GraphSession(SPEC).pack_cds(seed=3).payload

    def test_top_level_lazy_exports(self):
        import repro

        assert repro.GraphSession is GraphSession
        assert callable(repro.fractional_cds_packing)
        assert callable(repro.approximate_vertex_connectivity)
        assert "GraphSession" in repro.__all__
        assert "JobSpec" in repro.__all__
        with pytest.raises(AttributeError):
            repro.not_a_real_name
