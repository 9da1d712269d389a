"""The recursive class assignment of one layer (Section 3.1, steps 1–3).

Given the state after layers ``1..ℓ`` (old nodes), this module assigns
classes to the ``3n`` new virtual nodes of layer ``ℓ+1``:

1. type-1 and type-3 new nodes join uniformly random classes;
2. the *bridging graph* is formed between old components and type-2 new
   nodes — ``v`` is adjacent to component ``C`` of class ``i`` iff
   (a) ``v`` has a neighbor in ``C``, (b) ``C`` is not already bridged by
   a type-1 new node of class ``i`` ("deactivated"), and (c) some type-3
   new neighbor ``w`` of ``v`` joined class ``i`` and sees a component
   ``C'' ≠ C`` of class ``i``;
3. a maximal matching between components and type-2 new nodes is found;
   matched type-2 nodes join their component's class, unmatched ones join
   random classes.

Virtual adjacency includes *same-real* pairs (footnote 5), so every
"neighbor" test below uses the **closed** real neighborhood ``N[v]``: a
new virtual node on real ``v`` is adjacent to the old virtual nodes of
``v`` itself.

The greedy sweep in :func:`assign_layer` processes type-2 nodes in random
order and matches each to the first available bridging-adjacent component;
since a pair is skipped only when one endpoint is already matched, the
result is a maximal matching — exactly the structure Lemma 4.4 needs,
and the same matching discipline as the linked-list sweep of Appendix C.

Since the kernel port the sweep runs entirely on the
:class:`~repro.core.virtual_graph.CdsIndex` view: integer node indices,
flat adjacency in ``graph.neighbors()`` order, and
:class:`~repro.fastgraph.IntUnionFind` component representatives. A
(class, component) pair is the int ``class_id * n + rep``. Classes and
representatives are fixed for the whole sweep, so each node's component
keys are listed once up front, and a type-2 node's candidates are the
first-seen union of its closed neighborhood's lists, built by
``dict.fromkeys`` in C. Condition (c) is one dict lookup per candidate:
each type-3 node's suitable components are summarised once (none, the
one it sees, or "two or more"), and each type-2 node merges its
neighbors' summaries per class before trying candidates. The RNG
consumption sequence and every candidate-enumeration order are the
reference implementation's exactly (node-iteration order = index order,
class sets with identical insertion histories, closed neighborhoods in
adjacency order), so assignments are bit-identical to
:mod:`repro.core.cds_packing_reference` under a fixed seed — the
equivalence suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Hashable, List, Optional, Set

import networkx as nx

from repro.core.virtual_graph import VirtualGraph
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class LayerStats:
    """Instrumentation for one layer's assignment (drives experiment E8)."""

    layer: int
    excess_before: int
    excess_after: int
    deactivated_components: int
    bridging_candidates: int
    matched: int
    random_type2: int


def closed_neighborhood(graph: nx.Graph, node: Hashable) -> List[Hashable]:
    """``N[node]`` — the node itself plus its graph neighbors."""
    return [node, *graph.neighbors(node)]


def jump_start(vg: VirtualGraph, rng: RngLike = None) -> None:
    """Assign every virtual node of layers ``1..L/2`` a random class.

    Lemma 4.1 (Domination): after this step each class dominates w.h.p.
    """
    rand = ensure_rng(rng)
    t = vg.n_classes
    n = vg.index.n
    assign_at = vg.assign_at
    for layer in range(1, vg.layers // 2 + 1):
        for i in range(n):
            for vtype in (1, 2, 3):
                assign_at(i, layer, vtype, rand.randrange(t))


def _adjacent_reps(
    adj: List[List[int]], mult: Dict[int, int], rep: List[int], i: int
) -> Set[int]:
    """Old components of one class adjacent to a new node on index ``i``
    (component representative indices, via the closed neighborhood).
    ``mult``/``rep`` are the class's active-index dict and its
    representative table for this layer, unbundled by the caller to keep
    the sweep monomorphic."""
    reps: Set[int] = set()
    if i in mult:
        reps.add(rep[i])
    for j in adj[i]:
        if j in mult:
            reps.add(rep[j])
    return reps


def assign_layer(
    vg: VirtualGraph,
    new_layer: int,
    rng: RngLike = None,
    use_deactivation: bool = True,
    require_type3_witness: bool = True,
) -> LayerStats:
    """Run steps (1)–(3) for layer ``new_layer`` and apply the assignment.

    The two boolean flags exist for the ablation study (benchmarks
    ``bench_ablation.py``): ``use_deactivation=False`` drops condition (b)
    (type-2 nodes may be spent on components already bridged by a type-1
    node), ``require_type3_witness=False`` drops condition (c) (a matched
    type-2 node is no longer guaranteed to merge its component with
    another). Both default to the paper's algorithm.
    """
    rand = ensure_rng(rng)
    index = vg.index
    adj = index.adj
    n = index.n
    t = vg.n_classes
    classes = vg.classes
    real_classes_at = vg.real_classes_at
    excess_before = vg.excess_components()
    # Per-class hot-path views. No class gains members until the final
    # apply loop, so each class's component representatives are constant
    # throughout the sweep: resolve them once per (class, active node)
    # here instead of once per neighborhood visit. ``reps[c][i]`` is only
    # meaningful where ``i`` is active in class ``c``.
    mults: List[Dict[int, int]] = [s.multiplicity_by_index for s in classes]
    reps_table: List[List[int]] = []
    for s in classes:
        rep = [0] * n
        find = s._uf.find
        for i in s.multiplicity_by_index:
            rep[i] = find(i)
        reps_table.append(rep)

    # Step 1: type-1 and type-3 new nodes pick random classes (one t1/t3
    # draw pair per node, in node order — the reference's RNG sequence).
    type1_class: List[int] = [0] * n
    type3_class: List[int] = [0] * n
    for i in range(n):
        type1_class[i] = rand.randrange(t)
        type3_class[i] = rand.randrange(t)

    # A (class, component) pair is the int key ``class_id * n + rep``.
    # Deactivation (condition (b)): a component already bridged to another
    # component of its class by some type-1 new node needs no type-2 spend.
    deactivated: Set[int] = set()
    for i in range(n):
        class_id = type1_class[i]
        reps = _adjacent_reps(adj, mults[class_id], reps_table[class_id], i)
        if len(reps) >= 2:
            base = class_id * n
            deactivated.update(base + rep for rep in reps)

    # Suitable components of each type-3 new node (feeds condition (c)),
    # summarised: None if it sees none, the one component it sees, or -1
    # if it sees two or more.
    seen3: List[Optional[int]] = []
    for i in range(n):
        class_id = type3_class[i]
        reps = _adjacent_reps(adj, mults[class_id], reps_table[class_id], i)
        if not reps:
            seen3.append(None)
        elif len(reps) == 1:
            seen3.append(next(iter(reps)))
        else:
            seen3.append(-1)

    # The keys of the components each node is active in, in class-set
    # order; neither sets nor representatives change during the sweep.
    wkeys: List[List[int]] = [
        [c * n + reps_table[c][w] for c in real_classes_at[w]]
        for w in range(n)
    ]

    # Steps 2–3: bridging adjacency + greedy maximal matching over type-2
    # new nodes in random order.
    matched: Set[int] = set()
    type2_class: List[int] = [0] * n
    bridging_candidates = 0
    random_type2 = 0
    order = list(range(n))
    rand.shuffle(order)
    for i in order:
        neighborhood = [i, *adj[i]]
        # Candidate components satisfying condition (a), first-seen order
        # over the closed neighborhood.
        candidates = list(dict.fromkeys(
            chain.from_iterable(map(wkeys.__getitem__, neighborhood))
        ))
        rand.shuffle(candidates)
        # Condition (c) per class: what the type-3 new neighbors of that
        # class see together — one component, or -1 for two or more. A
        # candidate is bridged iff they see a component other than its own.
        witness: Dict[int, int] = {}
        if require_type3_witness:
            for u in neighborhood:
                seen = seen3[u]
                if seen is not None:
                    class_id = type3_class[u]
                    prior = witness.get(class_id)
                    if prior is None:
                        witness[class_id] = seen
                    elif prior != seen:
                        witness[class_id] = -1

        assigned: Optional[int] = None
        for key in candidates:
            if use_deactivation and key in deactivated:
                continue
            if key in matched:
                continue
            class_id, rep = divmod(key, n)
            if require_type3_witness:
                seen = witness.get(class_id)
                if seen is None or seen == rep:
                    continue
            bridging_candidates += 1
            matched.add(key)
            assigned = class_id
            break
        if assigned is None:
            assigned = rand.randrange(t)
            random_type2 += 1
        type2_class[i] = assigned

    # Apply all 3n assignments (projections update under the hood).
    assign_at = vg.assign_at
    for i in range(n):
        assign_at(i, new_layer, 1, type1_class[i])
        assign_at(i, new_layer, 2, type2_class[i])
        assign_at(i, new_layer, 3, type3_class[i])

    return LayerStats(
        layer=new_layer,
        excess_before=excess_before,
        excess_after=vg.excess_components(),
        deactivated_components=len(deactivated),
        bridging_candidates=bridging_candidates,
        matched=len(matched),
        random_type2=random_type2,
    )


def run_recursion(
    vg: VirtualGraph,
    rng: RngLike = None,
    use_deactivation: bool = True,
    require_type3_witness: bool = True,
) -> List[LayerStats]:
    """Jump-start layers 1..L/2, then assign layers L/2+1..L recursively."""
    rand = ensure_rng(rng)
    jump_start(vg, rand)
    history: List[LayerStats] = []
    for layer in range(vg.layers // 2 + 1, vg.layers + 1):
        history.append(
            assign_layer(
                vg,
                layer,
                rand,
                use_deactivation=use_deactivation,
                require_type3_witness=require_type3_witness,
            )
        )
    return history
