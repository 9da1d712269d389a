"""Tree-routed broadcast (Appendix A; Corollaries 1.4 and 1.5).

Every message is assigned to one tree of a packing (at random, with
probability proportional to tree weight — this is what makes the routing
*oblivious*), and is then flooded within that tree. Trees share vertices
(dominating tree packings) or edges (spanning tree packings) and
time-share them; the schedulers here simulate that token flow at the
model's granularity:

* :func:`vertex_broadcast` (V-CONGEST) — per round, each node transmits
  at most one (tree, message) token as a local broadcast; neighbors in
  the same tree continue the flood, and *all* neighbors record receipt —
  so domination delivers every message to every node.
* :func:`edge_broadcast` (E-CONGEST) — per round, each directed edge
  carries at most one token; floods follow tree edges, and since trees
  are spanning, every node is reached directly.

The schedulers are deliberately *not* NodeProgram simulations: the packing
fixes the routes, so only the queueing is left, and a token-level model
measures throughput/congestion orders of magnitude faster while enforcing
the identical per-round capacity constraints.

Every entry point's ``rng`` defaults to seed 0 (not OS entropy): a
workload that omits the argument is still exactly reproducible, and
passing one seed pins the whole run — tree assignment included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Optional, Sequence, Set, Tuple

from repro.errors import GraphValidationError
from repro.core.tree_packing import (
    DominatingTreePacking,
    SpanningTreePacking,
    WeightedTree,
)
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class BroadcastOutcome:
    """What a broadcast run measured."""

    rounds: int
    n_messages: int
    tree_assignment: Dict[int, int]          # message -> tree index
    node_transmissions: Dict[Hashable, int]  # vertex congestion
    edge_transmissions: Dict[FrozenSet[Hashable], int]  # edge congestion

    @property
    def throughput(self) -> float:
        """Messages delivered to all nodes per round."""
        return self.n_messages / max(1, self.rounds)

    @property
    def max_vertex_congestion(self) -> int:
        return max(self.node_transmissions.values(), default=0)

    @property
    def max_edge_congestion(self) -> int:
        return max(self.edge_transmissions.values(), default=0)


def assign_messages_to_trees(
    trees: Sequence[WeightedTree],
    n_messages: int,
    rng: RngLike = 0,
) -> Dict[int, int]:
    """Oblivious assignment: each message picks a tree ∝ its weight."""
    if not trees:
        raise GraphValidationError("packing has no trees")
    rand = ensure_rng(rng)
    weights = [max(t.weight, 0.0) for t in trees]
    total = sum(weights)
    if total <= 0:
        weights = [1.0] * len(trees)
        total = float(len(trees))
    assignment = {}
    for msg in range(n_messages):
        draw = rand.random() * total
        acc = 0.0
        chosen = len(trees) - 1
        for index, w in enumerate(weights):
            acc += w
            if draw <= acc:
                chosen = index
                break
        assignment[msg] = chosen
    return assignment


def vertex_broadcast(
    packing: DominatingTreePacking,
    sources: Dict[int, Hashable],
    rng: RngLike = 0,
    max_rounds: int = 1_000_000,
) -> BroadcastOutcome:
    """Broadcast ``sources`` (message id → origin node) via random trees
    of a dominating tree packing, under V-CONGEST token capacities.

    Per round each node sends at most one token (fair round-robin over
    its pending (tree, message) queue); a token transmission is a local
    broadcast: same-tree neighbors extend the flood, every neighbor
    records receipt. Terminates when all nodes received all messages.
    """
    graph = packing.graph
    rand = ensure_rng(rng)
    trees = packing.trees
    assignment = assign_messages_to_trees(trees, len(sources), rand)
    # message ids are re-keyed to 0..N-1 in iteration order of `sources`.
    messages = list(sources.items())

    # Node sets and adjacency only for the trees carrying a message.
    used = set(assignment.values())
    tree_nodes: Dict[int, Set[Hashable]] = {
        i: set(trees[i].node_labels()) for i in used
    }
    tree_adj: Dict[int, Dict[Hashable, Set[Hashable]]] = {
        i: trees[i].adjacency() for i in used
    }

    received: Dict[Hashable, Set[int]] = {v: set() for v in graph.nodes()}
    queues: Dict[Hashable, deque] = {v: deque() for v in graph.nodes()}
    queued: Dict[Hashable, Set[Tuple[int, int]]] = {
        v: set() for v in graph.nodes()
    }
    node_tx: Dict[Hashable, int] = {v: 0 for v in graph.nodes()}
    edge_tx: Dict[FrozenSet[Hashable], int] = {}

    def enqueue(v: Hashable, tree_index: int, msg: int) -> None:
        token = (tree_index, msg)
        if token not in queued[v]:
            queued[v].add(token)
            queues[v].append(token)

    n_messages = len(messages)
    # Message injection: the source holds the token; if the source is not
    # in the tree, its first transmission hands the token to dominating
    # tree neighbors (a legal V-CONGEST broadcast).
    for index, (msg_id, source) in enumerate(messages):
        tree_index = assignment[index]
        received[source].add(index)
        enqueue(source, tree_index, index)

    target = n_messages
    rounds = 0
    while any(len(received[v]) < target for v in graph.nodes()):
        rounds += 1
        if rounds > max_rounds:
            raise GraphValidationError(
                "broadcast did not complete; is the packing dominating?"
            )
        transmissions = []
        for v in graph.nodes():
            if queues[v]:
                transmissions.append((v, queues[v].popleft()))
        if not transmissions:
            raise GraphValidationError(
                "broadcast stalled with undelivered messages"
            )
        for v, (tree_index, msg) in transmissions:
            node_tx[v] += 1
            in_tree = v in tree_nodes[tree_index]
            for u in graph.neighbors(v):
                edge = frozenset((v, u))
                edge_tx[edge] = edge_tx.get(edge, 0) + 1
                if msg not in received[u]:
                    received[u].add(msg)
                # Flood continuation: only along tree edges.
                if (
                    in_tree
                    and u in tree_adj[tree_index].get(v, ())
                    and (tree_index, msg) not in queued[u]
                ):
                    enqueue(u, tree_index, msg)
            if not in_tree:
                # Source outside the tree: hand the token to every
                # dominating neighbor inside the tree.
                for u in graph.neighbors(v):
                    if u in tree_nodes[tree_index]:
                        enqueue(u, tree_index, msg)

    return BroadcastOutcome(
        rounds=rounds,
        n_messages=n_messages,
        tree_assignment=assignment,
        node_transmissions=node_tx,
        edge_transmissions=edge_tx,
    )


def edge_broadcast(
    packing: SpanningTreePacking,
    sources: Dict[int, Hashable],
    rng: RngLike = 0,
    max_rounds: int = 1_000_000,
) -> BroadcastOutcome:
    """Broadcast via random trees of a spanning tree packing under
    E-CONGEST capacities (one token per directed edge per round)."""
    graph = packing.graph
    rand = ensure_rng(rng)
    trees = packing.trees
    assignment = assign_messages_to_trees(trees, len(sources), rand)
    messages = list(sources.items())
    tree_adj: Dict[int, Dict[Hashable, Set[Hashable]]] = {
        i: trees[i].adjacency() for i in set(assignment.values())
    }

    received: Dict[Hashable, Set[int]] = {v: set() for v in graph.nodes()}
    # pending[v] = deque of (tree, msg, next-neighbors-to-serve)
    queues: Dict[Hashable, deque] = {v: deque() for v in graph.nodes()}
    queued: Dict[Hashable, Set[Tuple[int, int]]] = {
        v: set() for v in graph.nodes()
    }
    node_tx: Dict[Hashable, int] = {v: 0 for v in graph.nodes()}
    edge_tx: Dict[FrozenSet[Hashable], int] = {}

    def enqueue(v: Hashable, tree_index: int, msg: int, origin) -> None:
        token = (tree_index, msg)
        if token in queued[v]:
            return
        queued[v].add(token)
        targets = [u for u in tree_adj[tree_index].get(v, ()) if u != origin]
        if targets:
            queues[v].append((tree_index, msg, deque(targets)))

    n_messages = len(messages)
    for index, (msg_id, source) in enumerate(messages):
        tree_index = assignment[index]
        received[source].add(index)
        enqueue(source, tree_index, index, origin=None)

    rounds = 0
    while any(len(received[v]) < n_messages for v in graph.nodes()):
        rounds += 1
        if rounds > max_rounds:
            raise GraphValidationError(
                "broadcast did not complete; is the packing spanning?"
            )
        progressed = False
        for v in graph.nodes():
            # E-CONGEST: each incident edge carries at most one token this
            # round; a node may serve all its edges simultaneously.
            used_edges: Set[Hashable] = set()
            pending = list(queues[v])
            queues[v].clear()
            for tree_index, msg, targets in pending:
                blocked: deque = deque()
                while targets:
                    u = targets.popleft()
                    if u in used_edges:
                        blocked.append(u)
                        continue
                    used_edges.add(u)
                    progressed = True
                    node_tx[v] += 1
                    edge = frozenset((v, u))
                    edge_tx[edge] = edge_tx.get(edge, 0) + 1
                    received[u].add(msg)
                    enqueue(u, tree_index, msg, origin=v)
                if blocked:
                    queues[v].append((tree_index, msg, blocked))
        if not progressed:
            raise GraphValidationError(
                "broadcast stalled with undelivered messages"
            )

    return BroadcastOutcome(
        rounds=rounds,
        n_messages=n_messages,
        tree_assignment=assignment,
        node_transmissions=node_tx,
        edge_transmissions=edge_tx,
    )
