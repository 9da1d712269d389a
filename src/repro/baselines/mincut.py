"""Stoer–Wagner global minimum edge cut.

The exact oracle for edge connectivity ``λ``, implemented from scratch.
The paper's edge-connectivity results (Theorem 1.3, Section 5) are all
phrased relative to ``λ``; the benchmark harness uses this oracle to
measure the achieved spanning-tree-packing sizes against the
Tutte/Nash-Williams bound ``⌈(λ−1)/2⌉``, and the Karger-sampling
experiment (E12) uses it to check per-subgraph connectivity
concentration.

The algorithm repeats ``n − 1`` *minimum-cut-phases*. Each phase grows a
set ``A`` by most-tightly-connected insertion; the cut that separates the
last-added vertex is a candidate ("cut-of-the-phase"), and the last two
vertices are merged. The best candidate over all phases is a global
minimum cut (Stoer & Wagner, JACM 1997). ``O(n·m + n² log n)`` with a
heap; this implementation uses a simple ``O(n²)`` selection per phase,
which is plenty at reproduction scale and has no tie-breaking subtleties.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

import networkx as nx

from repro.errors import GraphValidationError


def stoer_wagner_min_cut(
    graph: nx.Graph, weight_attribute: str = "weight"
) -> Tuple[float, Set[Hashable]]:
    """Global minimum edge cut: ``(weight, one side of the partition)``.

    Edge weights default to 1 (so on unweighted graphs the value is the
    edge connectivity ``λ``); a different per-edge attribute can be named
    via ``weight_attribute``. Requires a connected graph with at least
    two nodes — a disconnected input has a trivial cut of weight 0, which
    callers should detect directly.
    """
    n = graph.number_of_nodes()
    if n < 2:
        raise GraphValidationError("min cut needs at least two nodes")
    if not nx.is_connected(graph):
        raise GraphValidationError(
            "graph is disconnected; the minimum cut is trivially 0"
        )

    # Contracted-graph adjacency: weights[u][v] = total weight between
    # super-nodes u and v. members[u] = original vertices merged into u.
    weights: Dict[Hashable, Dict[Hashable, float]] = {
        v: {} for v in graph.nodes()
    }
    for u, v, data in graph.edges(data=True):
        w = float(data.get(weight_attribute, 1.0))
        if w < 0:
            raise GraphValidationError("edge weights must be non-negative")
        if u == v:
            continue  # a self-loop crosses no cut
        weights[u][v] = weights[u].get(v, 0.0) + w
        weights[v][u] = weights[v].get(u, 0.0) + w
    members: Dict[Hashable, Set[Hashable]] = {
        v: {v} for v in graph.nodes()
    }

    best_value = float("inf")
    best_side: Set[Hashable] = set()
    while len(weights) > 1:
        value, last, second_last = _minimum_cut_phase(weights)
        if value < best_value:
            best_value = value
            best_side = set(members[last])
        _merge(weights, members, second_last, last)
    return best_value, best_side


def _minimum_cut_phase(
    weights: Dict[Hashable, Dict[Hashable, float]],
) -> Tuple[float, Hashable, Hashable]:
    """One maximum-adjacency sweep.

    Returns ``(cut_of_the_phase, last_added, second_to_last_added)``.
    """
    nodes = list(weights)
    start = nodes[0]
    in_a = {start}
    # connection[v] = total weight from v into the growing set A.
    connection: Dict[Hashable, float] = {
        v: weights[start].get(v, 0.0) for v in nodes if v != start
    }
    order: List[Hashable] = [start]
    while connection:
        tightest = max(connection, key=lambda v: connection[v])
        tight_value = connection.pop(tightest)
        in_a.add(tightest)
        order.append(tightest)
        for neighbor, w in weights[tightest].items():
            if neighbor not in in_a:
                connection[neighbor] = connection.get(neighbor, 0.0) + w
        last_connection = tight_value
    return last_connection, order[-1], order[-2]


def _merge(
    weights: Dict[Hashable, Dict[Hashable, float]],
    members: Dict[Hashable, Set[Hashable]],
    keep: Hashable,
    absorb: Hashable,
) -> None:
    """Contract super-node ``absorb`` into ``keep``."""
    for neighbor, w in weights[absorb].items():
        if neighbor == keep:
            continue
        weights[keep][neighbor] = weights[keep].get(neighbor, 0.0) + w
        weights[neighbor][keep] = weights[keep][neighbor]
        del weights[neighbor][absorb]
    weights[keep].pop(absorb, None)
    del weights[absorb]
    members[keep] |= members[absorb]
    del members[absorb]


def edge_connectivity_exact(graph: nx.Graph) -> int:
    """Edge connectivity ``λ`` of an unweighted graph via Stoer–Wagner.

    Returns 0 for disconnected or single-node graphs.
    """
    if graph.number_of_nodes() == 0:
        raise GraphValidationError("graph must be non-empty")
    if graph.number_of_nodes() == 1 or not nx.is_connected(graph):
        return 0
    value, _ = stoer_wagner_min_cut(graph)
    return int(round(value))


def crossing_edges(
    graph: nx.Graph, side: Set[Hashable]
) -> List[FrozenSet[Hashable]]:
    """The edges crossing the cut ``(side, V − side)``.

    Convenience used by tests and the oblivious-routing bench to convert
    a cut side into the actual bottleneck edge set.
    """
    inside = set(side)
    return [
        frozenset((u, v))
        for u, v in graph.edges()
        if (u in inside) != (v in inside)
    ]
