"""Distributed fractional spanning tree packing (Section 5.1 / Lemma 5.1).

The MWU loop of :mod:`repro.core.spanning_packing`, executed as an
E-CONGEST protocol:

* per iteration, every node knows the loads ``x_e`` of its incident edges
  (it stores the trees it belongs to), hence the costs ``c_e`` — the
  message-size trick of footnote 6 (send ``z_e``, not ``c_e``) is
  respected since our MST substitute compares costs locally;
* the MST under the costs is computed by the distributed Borůvka of
  :mod:`repro.simulator.algorithms.boruvka` (substituting Kutten–Peleg;
  DESIGN.md §2);
* the termination test ``Cost(MST) > (1−ε)·Σ c_e·x_e`` is decided at a
  leader: both sums are aggregated up a BFS tree by convergecast and the
  verdict broadcast back down (the paper's exact mechanism).

For general ``λ`` the edges are Karger-partitioned into ``η`` parts
(Section 5.2); parts are **edge-disjoint**, so their protocols run in
parallel without interference, and the per-iteration round cost is the
*maximum* over parts plus the pipelined ``O(D + η)`` decision upcast of
Lemma 5.1 — this is how the combined metrics are accounted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

import networkx as nx

from repro.errors import GraphValidationError, PackingConstructionError
from repro.core.spanning_packing import (
    MwuParameters,
    MwuTrace,
    SpanningPackingResult,
    _edges_to_tree,
)
from repro.core.tree_packing import SpanningTreePacking, WeightedTree
from repro.fastgraph import IndexedGraph, edge_connectivity
from repro.graphs.sampling import choose_karger_parts, karger_edge_partition
from repro.simulator.algorithms.bfs import build_bfs_tree
from repro.simulator.algorithms.boruvka import distributed_mst
from repro.simulator.algorithms.convergecast import converge_sum
from repro.simulator.metrics import (
    AnalyticRoundCost,
    RoundReport,
    SimulationMetrics,
)
from repro.simulator.network import Network
from repro.simulator.runner import Model
from repro.utils.mathutil import ceil_div
from repro.utils.rng import RngLike, ensure_rng

Edge = FrozenSet[Hashable]


@dataclass
class DistributedSpanningResult:
    """Packing plus round accounting for the distributed construction."""

    result: SpanningPackingResult
    report: RoundReport
    iterations_per_part: List[int]

    @property
    def packing(self) -> SpanningTreePacking:
        return self.result.packing


def _distributed_mwu_one_part(
    part: nx.Graph,
    lam: int,
    params: MwuParameters,
    rng,
    max_iterations: int,
) -> Tuple[List[Tuple[FrozenSet[Edge], float]], MwuTrace, SimulationMetrics]:
    """Section 5.1 on one connected part; returns normalized trees,
    the trace, and the measured metrics for this part's protocol."""
    network = Network(part, rng=rng)
    n = network.n
    target = max(1, ceil_div(max(0, lam - 1), 2))
    alpha = params.alpha(n)
    beta = params.beta(n)
    epsilon = params.epsilon
    metrics = SimulationMetrics()

    # Leader + BFS tree for the decision aggregation (O(D) preprocessing).
    root = max(network.nodes, key=network.node_id)
    bfs, bfs_result = build_bfs_tree(network, root)
    metrics.merge(bfs_result.metrics)

    edges: List[Edge] = [frozenset(e) for e in part.edges()]
    loads: Dict[Edge, float] = {e: 0.0 for e in edges}
    collection: Dict[FrozenSet[Edge], float] = {}
    # Each edge is owned by its smaller-id endpoint (static — computed
    # once from the topology core's id map instead of per iteration).
    owner_of: Dict[Edge, Hashable] = {}
    endpoints_of: Dict[Edge, Tuple[Hashable, Hashable]] = {}
    for e in edges:
        u, v = tuple(e)
        owner_of[e] = u if network.node_id(u) < network.node_id(v) else v
        endpoints_of[e] = (u, v)

    first = distributed_mst(network, lambda u, v: 1.0, model=Model.E_CONGEST)
    metrics.merge(first.metrics)
    collection[frozenset(first.edges)] = 1.0
    for e in first.edges:
        loads[e] = 1.0

    trace = MwuTrace()
    for _ in range(max_iterations):
        trace.iterations += 1
        z_max = max(loads[e] * target for e in edges)
        trace.max_relative_load.append(z_max / target)
        if trace.iterations > 1 and z_max <= 1.0 + epsilon:
            trace.stopped_early = True
            break

        def cost(u: Hashable, v: Hashable) -> float:
            return math.exp(alpha * (loads[frozenset((u, v))] * target - z_max))

        mst = distributed_mst(network, cost, model=Model.E_CONGEST)
        metrics.merge(mst.metrics)
        mst_edges = frozenset(mst.edges)

        # Convergecast the two sums to the leader. Each edge is owned by
        # its smaller-id endpoint; values scaled to ints for the payload
        # (the footnote-6 rounding to multiples of Θ(1/n)).
        scale = max(1, n) * 1000
        owner_mst: Dict[Hashable, int] = {v: 0 for v in network.nodes}
        owner_frac: Dict[Hashable, int] = {v: 0 for v in network.nodes}
        for e in edges:
            u, v = endpoints_of[e]
            owner = owner_of[e]
            c = cost(u, v)
            if e in mst_edges:
                owner_mst[owner] += int(round(c * scale))
            owner_frac[owner] += int(round(c * loads[e] * scale))
        mst_cost, res1 = converge_sum(network, bfs, owner_mst)
        metrics.merge(res1.metrics)
        frac_cost, res2 = converge_sum(network, bfs, owner_frac)
        metrics.merge(res2.metrics)
        # Leader's verdict travels back down the BFS tree: O(depth) rounds.
        metrics.record_round(0, 0, 0)
        for _ in range(bfs.depth):
            metrics.record_round(network.n, network.n, 1)

        if mst_cost > (1.0 - epsilon) * frac_cost:
            trace.stopped_early = True
            break
        for key in collection:
            collection[key] *= 1.0 - beta
        collection[mst_edges] = collection.get(mst_edges, 0.0) + beta
        for e in edges:
            loads[e] *= 1.0 - beta
        for e in mst_edges:
            loads[e] += beta

    max_load = max(loads[e] for e in edges if loads[e] > 0.0)
    normalized = [
        (key, weight / max_load)
        for key, weight in collection.items()
        if weight / max_load > 1e-12
    ]
    return normalized, trace, metrics


def distributed_spanning_packing(
    graph: nx.Graph,
    lam: Optional[int] = None,
    params: Optional[MwuParameters] = None,
    rng: RngLike = None,
    max_iterations: int = 30,
) -> DistributedSpanningResult:
    """Theorem 1.3's distributed construction with Lemma 5.1 accounting.

    ``max_iterations`` defaults well below the Θ(log³ n) cap — the
    simulation is faithful but slow, and the early-stopping rule usually
    fires long before the cap on the tested families; pass a larger value
    to run to the analytic schedule.
    """
    if graph.number_of_nodes() < 2 or not nx.is_connected(graph):
        raise GraphValidationError("graph must be connected with >= 2 nodes")
    params = params or MwuParameters()
    rand = ensure_rng(rng)
    n = graph.number_of_nodes()
    if lam is None:
        lam = edge_connectivity(IndexedGraph.from_networkx(graph))
    eta = choose_karger_parts(lam, n, params.epsilon)
    parts = (
        [graph] if eta <= 1 else karger_edge_partition(graph, eta, rand)
    )

    trees: List[WeightedTree] = []
    traces: List[MwuTrace] = []
    part_metrics: List[SimulationMetrics] = []
    iterations: List[int] = []
    class_id = 0
    for part in parts:
        if part.number_of_edges() == 0 or not nx.is_connected(part):
            continue
        # The oracle ran once on the whole graph; Karger's theorem pins
        # each part's connectivity at λ/η (1 ± ε), so parts are sized
        # from that instead of re-running the oracle per part.
        part_lam = lam if eta <= 1 else max(1, lam // eta)
        normalized, trace, metrics = _distributed_mwu_one_part(
            part, part_lam, params, rand, max_iterations
        )
        traces.append(trace)
        part_metrics.append(metrics)
        iterations.append(trace.iterations)
        for tree_edges, weight in normalized:
            trees.append(
                WeightedTree(
                    tree=_edges_to_tree(graph, tree_edges),
                    weight=min(1.0, weight),
                    class_id=class_id,
                )
            )
            class_id += 1
    if not trees:
        raise PackingConstructionError("no part produced spanning trees")

    packing = SpanningTreePacking(graph, trees)
    packing.verify()
    result = SpanningPackingResult(
        packing=packing,
        lam=lam,
        target=max(1, ceil_div(max(0, lam - 1), 2)),
        parts=len(part_metrics),
        traces=traces,
    )
    # Parallel composition over edge-disjoint parts: measured rounds =
    # max over parts, plus the pipelined decision upcast O(D + η) per
    # iteration (Lemma 5.1).
    combined = SimulationMetrics()
    if part_metrics:
        slowest = max(part_metrics, key=lambda m: m.rounds)
        combined.merge(slowest)
        pipeline_extra = (nx.diameter(graph) + eta) * max(iterations)
        for _ in range(pipeline_extra if eta > 1 else 0):
            combined.record_round(0, 0, 0)
    diameter = nx.diameter(graph)
    log_n = math.log2(max(n, 2))
    analytic = [
        AnalyticRoundCost(
            "lemma-5.1",
            (diameter + math.sqrt(n * max(1, lam)) / max(1.0, log_n))
            * log_n**3,
        )
    ]
    return DistributedSpanningResult(
        result=result,
        report=RoundReport(measured=combined, analytic=analytic),
        iterations_per_part=iterations,
    )
