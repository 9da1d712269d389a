"""Exact edge connectivity ``λ`` on the indexed kernel.

The spanning packings (Theorem 1.3 and the integral split of Section
1.2) size themselves from ``λ``. This computes it on the flat edge
array of an :class:`~repro.fastgraph.indexed.IndexedGraph` with the
same algorithm :func:`networkx.edge_connectivity` uses for undirected
graphs — Esfahanian and Hakimi's dominating-set reduction — so no
dict-of-dict flow network is ever built:

* ``λ ≤ δ`` (the minimum degree), and when ``λ < δ`` both sides of
  every minimum cut hold a vertex of any dominating set ``D``; so
  ``λ = min(δ, min_w λ(v, w))`` over ``w ∈ D − {v}`` for one fixed
  ``v ∈ D``;
* each local ``λ(v, w)`` is a unit-capacity max flow found by BFS
  augmenting paths, and stops once it reaches the best value so far
  (it can then no longer lower the minimum);
* a vertex adjacent to all others puts the diameter at most 2, where
  ``λ = δ`` (Plesník), so no flow runs at all.

``D`` is a max-coverage greedy dominating set rather than networkx's
greedy in index order: on index-local families (hypercubes, tori,
Harary graphs) it has about half the members, and each member past the
first costs one flow.

Self-loops cross no cut: they count toward neither a degree nor a flow.
(``networkx`` counts a loop twice in the degree, so
:func:`repro.graphs.connectivity.edge_connectivity` strips loops before
calling it.)
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List

from repro.fastgraph.indexed import IndexedGraph


def edge_connectivity(graph: IndexedGraph) -> int:
    """Exact edge connectivity ``λ`` of ``graph`` (0 if disconnected or
    fewer than two nodes). Each edge must appear once in the edge array,
    as :meth:`IndexedGraph.from_networkx` and its edits keep it."""
    n = graph.n
    if n < 2 or not graph.is_connected_via():
        return 0
    # Arc 2i runs u[i] → v[i] and arc 2i+1 back; each carries one unit,
    # so pushing along one arc frees two units on its twin — the
    # residual network of an undirected unit-capacity edge.
    head: List[int] = []
    out: List[List[int]] = [[] for _ in range(n)]
    for a, b in zip(graph.u, graph.v):
        if a != b:
            out[a].append(len(head))
            head.append(b)
            out[b].append(len(head))
            head.append(a)
    degree = [len(arcs) for arcs in out]
    best = min(degree)
    if max(degree) == n - 1:
        return best

    # No vertex is universal, so the dominating set has at least two
    # members; each member past the first costs one flow.
    dominating = _dominating_set(out, head)
    source = dominating[0]
    for sink in dominating[1:]:
        best = min(best, _local_flow(out, head, source, sink, best))
    return best


def _dominating_set(out: List[List[int]], head: List[int]) -> List[int]:
    """Max-coverage greedy dominating set.

    Repeatedly takes the vertex whose closed neighborhood holds the most
    undominated vertices (lowest index on ties). Gains only shrink, so a
    heap of stale gains is re-checked lazily: a popped vertex whose gain
    is still current is a true maximum.
    """
    n = len(out)
    dominated = bytearray(n)
    heap = [(-1 - len(out[x]), x) for x in range(n)]
    heapify(heap)
    dominating: List[int] = []
    left = n
    while left:
        stale, x = heappop(heap)
        gain = (not dominated[x]) + sum(
            1 for e in out[x] if not dominated[head[e]]
        )
        if gain != -stale:
            heappush(heap, (-gain, x))
            continue
        dominating.append(x)
        if not dominated[x]:
            dominated[x] = 1
            left -= 1
        for e in out[x]:
            y = head[e]
            if not dominated[y]:
                dominated[y] = 1
                left -= 1
    return dominating


def _local_flow(
    out: List[List[int]], head: List[int], s: int, t: int, cutoff: int
) -> int:
    """Max ``s``–``t`` flow over unit-capacity arcs, stopped at ``cutoff``."""
    n = len(out)
    capacity = [1] * len(head)
    flow = 0
    while flow < cutoff:
        # via[y]: the arc the BFS reached y through (-1: unreached; the
        # source holds an out-of-range arc id).
        via = [-1] * n
        via[s] = len(head)
        frontier = [s]
        while frontier and via[t] < 0:
            reached: List[int] = []
            for x in frontier:
                for e in out[x]:
                    if capacity[e]:
                        y = head[e]
                        if via[y] < 0:
                            via[y] = e
                            if y == t:
                                break
                            reached.append(y)
                if via[t] >= 0:
                    break
            frontier = reached
        if via[t] < 0:
            return flow
        y = t
        while y != s:
            e = via[y]
            capacity[e] -= 1
            capacity[e ^ 1] += 1
            y = head[e ^ 1]
        flow += 1
    return flow
