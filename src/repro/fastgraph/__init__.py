"""Indexed edge-array graph kernel for the packing hot paths.

The paper's constructions iterate thousands of times over the *same*
graph: the MWU spanning packing (Section 5.1) recomputes an MST per
iteration, the integral packing (Section 1.2) partitions edges and
spans the parts, and the tester (Appendix E) sweeps same-class edges.
Doing that over :class:`networkx.Graph` objects keyed by
``frozenset``-of-``frozenset`` edges pays dictionary hashing and graph
reconstruction costs on every pass.

This subpackage canonicalizes a graph **once** into integer node ids
and a flat edge array, after which every hot-path operation is an array
scan:

* :class:`~repro.fastgraph.indexed.IndexedGraph` — the canonical form:
  node labels ↔ contiguous ints, edges as parallel ``u[i]``/``v[i]``
  index lists, conversion back to :mod:`networkx` only at API
  boundaries;
* :class:`~repro.fastgraph.union_find.IntUnionFind` — disjoint sets
  over ``0..n-1`` backed by flat lists (no hashing);
* :mod:`~repro.fastgraph.kruskal` — Kruskal's MST as a scan over an
  edge *order*, plus :class:`~repro.fastgraph.kruskal.NearSortedEdgeOrder`
  which keeps the MWU's cost-sorted order alive across iterations
  (costs are a monotone transform of the slowly-changing loads, so each
  re-sort is adaptive instead of from-scratch);
* :func:`~repro.fastgraph.connectivity.edge_connectivity` — exact
  ``λ`` by unit-capacity flows over the edge array, which sizes the
  spanning packings without a :mod:`networkx` flow network.

Trees and edge subsets are plain ``list``/``frozenset`` of edge
indices; :meth:`IndexedGraph.tree_graph` rebuilds a labeled
:class:`networkx.Graph` when a packing result crosses the public API.
"""

from repro.fastgraph.indexed import IndexedGraph
from repro.fastgraph.union_find import IntUnionFind
from repro.fastgraph.kruskal import NearSortedEdgeOrder, kruskal_from_order
from repro.fastgraph.connectivity import edge_connectivity

__all__ = [
    "IndexedGraph",
    "edge_connectivity",
    "IntUnionFind",
    "NearSortedEdgeOrder",
    "kruskal_from_order",
]
