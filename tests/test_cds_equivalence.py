"""CDS-packing kernel equivalence: indexed pipeline vs preserved reference.

The fastgraph port of :mod:`repro.core.cds_packing` (index-side
recursion, union-find validity testing, index-side BFS tree extraction)
must be **bit-identical** to the preserved pre-kernel implementation
(:mod:`repro.core.cds_packing_reference`) under a fixed seed: same RNG
consumption, same valid classes, same trees edge-for-edge, same float
weights, same per-virtual-node assignment. This suite pins that on
fixed-seed random, clustered, and k-connected generator graphs —
mirroring the pinned-seed discipline of ``test_engine_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.core.cds_packing import (
    PackingParameters,
    construct_cds_packing,
    fractional_cds_packing,
)
from repro.core.bridging import run_recursion
from repro.core.cds_packing_reference import (
    ReferenceVirtualGraph,
    construct_cds_packing_reference,
    fractional_cds_packing_reference,
    run_recursion_reference,
)
from repro.core.virtual_graph import VirtualGraph
from repro.graphs.generators import (
    clique_chain,
    fat_cycle,
    gnp_connected,
    harary_graph,
    hypercube,
    random_k_connected,
    random_regular_connected,
)

SEEDS = (0, 7, 41)

# name -> (builder, k_guess); spans the random / clustered / k-connected
# generator space of the paper's parameter regimes.
FAMILIES = [
    # fixed-seed random graphs
    ("gnp(26,0.3)", lambda: gnp_connected(26, 0.3, rng=5), 4),
    ("regular(6,30)", lambda: random_regular_connected(6, 30, rng=2), 6),
    # clustered topologies (cliques glued into chains / cycles)
    ("clique_chain(4,6)", lambda: clique_chain(4, 6), 4),
    ("fat_cycle(3,6)", lambda: fat_cycle(3, 6), 6),
    # k-connected generator graphs
    ("harary(5,24)", lambda: harary_graph(5, 24), 5),
    ("random_k_connected(24,4)", lambda: random_k_connected(24, 4, rng=11), 4),
]


def _canonical(result):
    """Everything observable about a construction, hashable-comparable."""
    return {
        "valid_classes": result.valid_classes,
        "t_requested": result.t_requested,
        "t_used": result.t_used,
        "attempts": result.attempts,
        "size": result.packing.size,
        "layer_history": result.layer_history,
        "trees": [
            (
                wt.class_id,
                wt.weight,
                frozenset(wt.tree.nodes()),
                frozenset(frozenset(e) for e in wt.tree.edges()),
            )
            for wt in result.packing.trees
        ],
    }


class TestConstructEquivalence:
    @pytest.mark.parametrize("name,builder,k", FAMILIES, ids=[f[0] for f in FAMILIES])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_construction(self, name, builder, k, seed):
        graph = builder()
        kernel = construct_cds_packing(graph, k, rng=seed)
        reference = construct_cds_packing_reference(graph, k, rng=seed)
        assert _canonical(kernel) == _canonical(reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_virtual_assignment_identical(self, seed):
        """The full 3Ln-entry virtual-node assignment matches, not just
        the projected packing — the recursion's every decision is pinned."""
        graph = harary_graph(5, 24)
        kernel = construct_cds_packing(graph, 5, rng=seed)
        reference = construct_cds_packing_reference(graph, 5, rng=seed)
        assert (
            kernel.virtual_graph.assignment
            == reference.virtual_graph.assignment
        )

    def test_nondefault_parameters(self):
        """Parameter variations (more classes, fewer layers) stay pinned."""
        graph = harary_graph(6, 30)
        params = PackingParameters(class_factor=1.0, layer_factor=1)
        kernel = construct_cds_packing(graph, 6, params=params, rng=13)
        reference = construct_cds_packing_reference(
            graph, 6, params=params, rng=13
        )
        assert _canonical(kernel) == _canonical(reference)

    def test_retry_path_identical(self):
        """An over-large k_guess exercises the halving retry loop in both
        implementations identically (attempts > 1 or not, same either way)."""
        graph = clique_chain(3, 5)
        kernel = construct_cds_packing(graph, 12, rng=3)
        reference = construct_cds_packing_reference(graph, 12, rng=3)
        assert _canonical(kernel) == _canonical(reference)


class TestGuessLoopEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fractional_guessing_identical(self, seed):
        """The Remark 3.1 try-and-error loop (k unknown) consumes the RNG
        identically across guesses and returns the same accepted packing."""
        graph = harary_graph(4, 20)
        kernel = fractional_cds_packing(graph, rng=seed)
        reference = fractional_cds_packing_reference(graph, rng=seed)
        assert _canonical(kernel) == _canonical(reference)
        assert kernel.k_guess == reference.k_guess


class TestAblationEquivalence:
    """Both ablation flags of ``assign_layer`` stay pinned too: every
    layer's statistics and the full assignment, per flag combination."""

    @pytest.mark.parametrize("use_deactivation", [True, False])
    @pytest.mark.parametrize("require_type3_witness", [True, False])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_flag_combinations_identical(
        self, use_deactivation, require_type3_witness, seed
    ):
        graph = harary_graph(6, 40)
        flags = dict(
            use_deactivation=use_deactivation,
            require_type3_witness=require_type3_witness,
        )
        kernel_vg = VirtualGraph(graph, layers=8, n_classes=24)
        kernel_history = run_recursion(kernel_vg, rng=seed, **flags)
        reference_vg = ReferenceVirtualGraph(graph, layers=8, n_classes=24)
        reference_history = run_recursion_reference(
            reference_vg, rng=seed, **flags
        )
        assert kernel_history == reference_history
        assert kernel_vg.assignment == reference_vg.assignment


class TestBenchmarkScaleEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hypercube7_guess_ladder_identical(self, seed):
        """hypercube(7) with k unknown: ~40 candidate components per
        node in every layer's sweep."""
        graph = hypercube(7)
        kernel = fractional_cds_packing(graph, rng=seed)
        reference = fractional_cds_packing_reference(graph, rng=seed)
        assert _canonical(kernel) == _canonical(reference)
        assert kernel.k_guess == reference.k_guess
        assert (
            kernel.virtual_graph.assignment
            == reference.virtual_graph.assignment
        )
