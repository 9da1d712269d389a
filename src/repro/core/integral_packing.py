"""Integral tree packings (Section 1.2, "Integral Tree Packings").

* :func:`integral_cds_packing` — vertex-disjoint CDS packing of size
  ``Ω(κ / log² n)`` via the random layering of [12, Theorem 1.2]: each
  *real* node participates exactly once (one virtual identity with a
  random layer and type), so distinct classes are vertex-disjoint by
  construction; the same bridging/matching recursion connects them.
* :func:`integral_spanning_packing` — edge-disjoint spanning tree packing
  of size ``Ω(λ / log n)`` ("a considerably simpler variant" of
  Theorem 1.3): split the edges into ``Θ(λ / log n)`` random parts; each
  part is connected w.h.p. (Karger), and one spanning tree per connected
  part gives pairwise edge-disjoint spanning trees.

Both functions keep only classes/parts that verify, so outputs are always
valid integral packings; benchmark E15 records achieved vs. bound sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from repro.errors import GraphValidationError, PackingConstructionError
from repro.core.tree_packing import (
    DominatingTreePacking,
    SpanningTreePacking,
    WeightedTree,
    spanning_tree_of,
)
from repro.core.bridging import closed_neighborhood
from repro.fastgraph import IndexedGraph, IntUnionFind, edge_connectivity
from repro.graphs.connectivity import is_connected_dominating_set
from repro.graphs.sampling import karger_edge_index_partition
from repro.utils.mathutil import ceil_log2
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class IntegralCdsResult:
    """Outcome of the vertex-disjoint CDS packing."""

    packing: DominatingTreePacking
    t_requested: int
    valid_classes: int

    @property
    def size(self) -> int:
        return len(self.packing)


def _random_layering_classes(
    graph: nx.Graph, t: int, layers: int, rng
) -> List[Set[Hashable]]:
    """One recursion pass where each real node exists exactly once.

    Each node draws a random (layer, type); layers ``1..L/2`` join random
    classes up front, later layers are assigned in order with the same
    bridging-graph logic as the fractional algorithm, restricted to the
    single identity per node (so classes stay vertex-disjoint).
    """
    layer_of = {v: rng.randrange(1, layers + 1) for v in graph.nodes()}
    type_of = {v: rng.randrange(1, 4) for v in graph.nodes()}
    class_of: Dict[Hashable, int] = {}
    for v in graph.nodes():
        if layer_of[v] <= layers // 2:
            class_of[v] = rng.randrange(t)

    for layer in range(layers // 2 + 1, layers + 1):
        new_nodes = [v for v in graph.nodes() if layer_of[v] == layer]
        members: Dict[int, Set[Hashable]] = {}
        for v, c in class_of.items():
            members.setdefault(c, set()).add(v)
        comp_of: Dict[Hashable, Tuple[int, int]] = {}
        comps_per_class: Dict[int, int] = {}
        for c, mset in members.items():
            induced = graph.subgraph(mset)
            for idx, comp in enumerate(nx.connected_components(induced)):
                comps_per_class[c] = idx + 1
                for w in comp:
                    comp_of[w] = (c, idx)

        type1 = {v for v in new_nodes if type_of[v] == 1}
        type3 = {v for v in new_nodes if type_of[v] == 3}
        # Type-1 and type-3 nodes pick random classes immediately.
        pending2 = []
        for v in new_nodes:
            if type_of[v] == 2:
                pending2.append(v)
            else:
                class_of[v] = rng.randrange(t)

        # Deactivation by type-1 bridges.
        deactivated: Set[Tuple[int, int]] = set()
        for u in type1:
            c = class_of[u]
            reps = {
                comp_of[w]
                for w in closed_neighborhood(graph, u)
                if comp_of.get(w, (None,))[0] == c
            }
            if len(reps) >= 2:
                deactivated |= reps
        # Suitable components of type-3 nodes.
        suitable: Dict[Hashable, Set[Tuple[int, int]]] = {}
        for u in type3:
            c = class_of[u]
            suitable[u] = {
                comp_of[w]
                for w in closed_neighborhood(graph, u)
                if comp_of.get(w, (None,))[0] == c
            }
        matched: Set[Tuple[int, int]] = set()
        rng.shuffle(pending2)
        for v in pending2:
            neighborhood = closed_neighborhood(graph, v)
            candidates = []
            seen = set()
            for w in neighborhood:
                key = comp_of.get(w)
                if key is not None and key not in seen:
                    seen.add(key)
                    candidates.append(key)
            rng.shuffle(candidates)
            chosen: Optional[int] = None
            for key in candidates:
                if key in deactivated or key in matched:
                    continue
                c = key[0]
                bridged = any(
                    u in suitable
                    and class_of.get(u) == c
                    and any(other != key for other in suitable[u])
                    for u in neighborhood
                )
                if bridged:
                    matched.add(key)
                    chosen = c
                    break
            class_of[v] = chosen if chosen is not None else rng.randrange(t)

    classes: List[Set[Hashable]] = [set() for _ in range(t)]
    for v, c in class_of.items():
        classes[c].add(v)
    return classes


def integral_cds_packing(
    graph: nx.Graph,
    k: Optional[int] = None,
    class_factor: float = 0.25,
    layer_factor: int = 2,
    max_attempts: int = 5,
    rng: RngLike = None,
) -> IntegralCdsResult:
    """Vertex-disjoint CDS packing of size Ω(κ / log² n).

    ``k`` defaults to the exact vertex connectivity (the oracle is only a
    scale hint here; the paper's try-and-error applies as in the
    fractional case). Invalid classes are discarded; retries halve ``t``.
    """
    from repro.graphs.connectivity import vertex_connectivity

    if graph.number_of_nodes() < 2 or not nx.is_connected(graph):
        raise GraphValidationError("graph must be connected with >= 2 nodes")
    rand = ensure_rng(rng)
    if k is None:
        k = max(1, vertex_connectivity(graph))
    n = graph.number_of_nodes()
    log_n = max(1, ceil_log2(max(2, n)))
    layers = max(4, layer_factor * log_n)
    layers += layers % 2
    t_requested = max(1, round(class_factor * k / max(1, log_n)))

    t = t_requested
    for _ in range(max_attempts):
        classes = _random_layering_classes(graph, t, layers, rand)
        valid = [
            c for c in classes if c and is_connected_dominating_set(graph, c)
        ]
        if valid:
            trees = [
                WeightedTree(
                    tree=spanning_tree_of(graph, members),
                    weight=1.0,
                    class_id=i,
                )
                for i, members in enumerate(valid)
            ]
            packing = DominatingTreePacking(graph, trees)
            packing.verify()
            if not packing.is_vertex_disjoint():
                raise PackingConstructionError(
                    "internal error: random layering produced overlapping classes"
                )
            return IntegralCdsResult(
                packing=packing, t_requested=t_requested, valid_classes=len(valid)
            )
        if t == 1:
            break
        t = max(1, t // 2)
    raise PackingConstructionError(
        "integral CDS packing failed; graph connectivity too small?"
    )


def integral_spanning_packing(
    graph: nx.Graph,
    lam: Optional[int] = None,
    parts_factor: float = 0.5,
    rng: RngLike = None,
    indexed: Optional[IndexedGraph] = None,
) -> SpanningTreePacking:
    """Edge-disjoint spanning tree packing of size Ω(λ / log n).

    Splits edges into ``max(1, parts_factor·λ/ln n)`` random parts and
    takes a spanning tree of each connected part. Parts are edge-disjoint,
    hence so are the trees (all carry weight 1 — an integral packing).

    Runs on the :mod:`repro.fastgraph` kernel: the partition is drawn
    over edge indices (same draw sequence as the graph-object form),
    connectivity is one :class:`IntUnionFind` sweep per part, and the
    BFS spanning trees mirror the traversal
    :func:`~repro.core.tree_packing.spanning_tree_of` performs, so the
    resulting trees are identical to the pre-kernel construction.
    """
    if graph.number_of_nodes() < 2 or not nx.is_connected(graph):
        raise GraphValidationError("graph must be connected with >= 2 nodes")
    rand = ensure_rng(rng)
    if indexed is None:
        indexed = IndexedGraph.from_networkx(graph)
    if lam is None:
        lam = edge_connectivity(indexed)
    n = graph.number_of_nodes()
    parts = max(1, int(parts_factor * lam / math.log(max(n, 2))))
    assignment = karger_edge_index_partition(indexed.m, parts, rand)
    buckets: List[List[int]] = [[] for _ in range(parts)]
    for i, part_id in enumerate(assignment):
        buckets[part_id].append(i)
    trees = []
    uf = IntUnionFind(indexed.n)
    for index, bucket in enumerate(buckets):
        if bucket and indexed.is_connected_via(bucket, uf):
            pairs = indexed.endpoint_pairs(indexed.bfs_tree_edges(bucket))
            trees.append(
                WeightedTree.from_indices(indexed.nodes, pairs, 1.0, index)
            )
    if not trees:
        raise PackingConstructionError(
            "no connected part; λ too small for the requested split"
        )
    packing = SpanningTreePacking(graph, trees)
    packing.verify()
    if not packing.is_edge_disjoint():
        raise PackingConstructionError(
            "internal error: edge partition produced overlapping trees"
        )
    return packing
