"""The virtual graph G of Section 3.1, on the fastgraph kernel.

Each real node ``v`` simulates ``3L`` virtual nodes — one per
(layer ∈ 1..L, type ∈ {1,2,3}) pair — and two virtual nodes are adjacent
iff they live on the same real node or on adjacent real nodes
(footnote 5: G is just Θ(log n) reused copies of G).

Key structural fact exploited everywhere: because same-real virtual nodes
are adjacent, the connected components of the class-``i`` virtual subgraph
``G[V_i^ℓ]`` project exactly onto the connected components of the real
induced subgraph ``G[Ψ(V_i^ℓ)]``. The per-class bookkeeping therefore
tracks, per class, the *real* projection (with per-real virtual
multiplicities) plus a union-find over real nodes — the Appendix C data
structure — while :class:`VirtualGraph` records the full per-virtual-node
assignment needed by the distributed output requirements (Section 2) and
the Lemma 4.6 measurements.

Since the kernel port, the graph is canonicalized **once** at pipeline
entry into a :class:`CdsIndex` — integer node indices, flat adjacency in
``graph.neighbors()`` order (the order that pins nx-compatible traversal
and therefore bit-identity with the preserved reference in
:mod:`repro.core.cds_packing_reference`) — and every per-class structure
is an :class:`IndexedClassState`: multiplicities keyed by node index and
an :class:`~repro.fastgraph.IntUnionFind` over indices instead of the
label-dict :class:`~repro.graphs.union_find.UnionFind`. The label-level
API (``active_reals``, ``component_of``, ``real_classes``) survives at
the boundary; hot paths (:mod:`repro.core.bridging`,
:mod:`repro.core.cds_packing`) use the index view.

The per-virtual-node assignment is one flat ``array('i')`` of ``3·L·n``
class ids (−1 while unassigned), not a dict of :class:`VirtualNode`
keys: a result cached by a long-lived session then costs the cyclic
collector nothing per virtual node. :attr:`VirtualGraph.assignment`
is a read-only ``Mapping[VirtualNode, int]`` view of it.

The pre-kernel :class:`ClassState` is kept verbatim below: it is the
building block of the preserved reference implementation and remains a
supported standalone container.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, NamedTuple, Optional, Set

import networkx as nx

from repro.errors import GraphValidationError
from repro.fastgraph import IndexedGraph, IntUnionFind
from repro.graphs.union_find import UnionFind
from repro.utils.mathutil import ceil_log2


class VirtualNode(NamedTuple):
    """A virtual node: (real node, layer in 1..L, type in {1,2,3})."""

    real: Hashable
    layer: int
    vtype: int


class CdsIndex:
    """Canonical integer view of a graph, shared by the CDS pipeline.

    Built once per construction (and reused across the Remark 3.1 guess
    loop); bundles the :class:`~repro.fastgraph.IndexedGraph`
    canonicalization with adjacency lists in ``graph.neighbors()`` order
    — the order every traversal below must follow to stay bit-identical
    to the pre-kernel implementation (nx subgraph/BFS iteration order is
    adjacency-insertion order, not edge-array order).
    """

    __slots__ = ("graph", "indexed", "nodes", "index_of", "adj", "n")

    def __init__(
        self, graph: nx.Graph, indexed: Optional[IndexedGraph] = None
    ) -> None:
        self.graph = graph
        if indexed is None:
            indexed = IndexedGraph.from_networkx(graph)
        elif indexed.n != graph.number_of_nodes() or (
            indexed.m != graph.number_of_edges()
        ):
            raise GraphValidationError(
                "prebuilt IndexedGraph does not match the graph"
            )
        self.indexed = indexed
        self.nodes: List[Hashable] = self.indexed.nodes
        self.index_of: Dict[Hashable, int] = self.indexed.index_of
        index_of = self.index_of
        self.adj: List[List[int]] = [
            [index_of[u] for u in graph.neighbors(v)] for v in self.nodes
        ]
        self.n = self.indexed.n


@dataclass
class ClassState:
    """Per-class projection bookkeeping, label-keyed (pre-kernel form).

    ``multiplicity[v]`` counts how many virtual nodes of real node ``v``
    have joined the class so far; ``components`` is a union-find over the
    active reals, mirroring the disjoint-set structures of Appendix C.
    Kept verbatim for the preserved reference pipeline
    (:mod:`repro.core.cds_packing_reference`) and standalone use; the
    kernel-backed :class:`VirtualGraph` uses :class:`IndexedClassState`.
    """

    class_id: int
    multiplicity: Dict[Hashable, int] = field(default_factory=dict)
    components: UnionFind = field(default_factory=UnionFind)

    @property
    def active_reals(self) -> Set[Hashable]:
        return set(self.multiplicity)

    def is_active(self, real: Hashable) -> bool:
        return real in self.multiplicity

    def component_of(self, real: Hashable) -> Hashable:
        """Representative of the component containing active real ``real``."""
        return self.components.find(real)

    def n_components(self) -> int:
        return self.components.n_components

    def excess_components(self) -> int:
        """``max(0, N_i − 1)`` — this class's contribution to M_ℓ."""
        return max(0, self.components.n_components - 1)

    def virtual_count(self) -> int:
        """Number of virtual nodes in the class (Lemma 4.6 measures this)."""
        return sum(self.multiplicity.values())

    def add_real(self, graph: nx.Graph, real: Hashable) -> None:
        """Account one more virtual node of ``real`` joining the class,
        merging components through every active neighbor."""
        if real in self.multiplicity:
            self.multiplicity[real] += 1
            return
        self.multiplicity[real] = 1
        self.components.add(real)
        for neighbor in graph.neighbors(real):
            if neighbor in self.multiplicity:
                self.components.union(real, neighbor)


class IndexedClassState:
    """Per-class projection bookkeeping on integer node indices.

    The union-find is an :class:`~repro.fastgraph.IntUnionFind` over all
    ``n`` indices; since inactive indices stay singletons, the class's
    component count is ``|active| − merges`` rather than the forest's
    global count. Exposes both the index-side hot-path API (``find``,
    ``is_active_index``, ``multiplicity_by_index``) and the label-level
    accessors of the pre-kernel :class:`ClassState`.
    """

    __slots__ = ("class_id", "_index", "multiplicity_by_index", "_uf",
                 "_active", "_merges")

    def __init__(self, class_id: int, index: CdsIndex) -> None:
        self.class_id = class_id
        self._index = index
        # node index -> number of virtual nodes joined (insertion order
        # = join order, matching the reference's dict bookkeeping).
        self.multiplicity_by_index: Dict[int, int] = {}
        self._uf = IntUnionFind(index.n)
        self._active = 0
        self._merges = 0

    # -- index-side hot-path API --------------------------------------

    def add_index(self, i: int) -> None:
        """One more virtual node of index ``i`` joins; merge through
        every active neighbor (in adjacency order)."""
        mult = self.multiplicity_by_index
        if i in mult:
            mult[i] += 1
            return
        mult[i] = 1
        self._active += 1
        uf = self._uf
        for j in self._index.adj[i]:
            if j in mult and uf.union(i, j):
                self._merges += 1

    def is_active_index(self, i: int) -> bool:
        return i in self.multiplicity_by_index

    def find(self, i: int) -> int:
        """Component representative (index) of active index ``i``."""
        return self._uf.find(i)

    # -- label-level API (pre-kernel compatible) -----------------------

    @property
    def multiplicity(self) -> Dict[Hashable, int]:
        """Label-keyed multiplicities (materialized view)."""
        nodes = self._index.nodes
        return {nodes[i]: c for i, c in self.multiplicity_by_index.items()}

    @property
    def active_reals(self) -> Set[Hashable]:
        nodes = self._index.nodes
        return {nodes[i] for i in self.multiplicity_by_index}

    def is_active(self, real: Hashable) -> bool:
        return self._index.index_of[real] in self.multiplicity_by_index

    def component_of(self, real: Hashable) -> Hashable:
        """Representative *label* of the component containing ``real``."""
        return self._index.nodes[self._uf.find(self._index.index_of[real])]

    def n_components(self) -> int:
        return self._active - self._merges

    def excess_components(self) -> int:
        """``max(0, N_i − 1)`` — this class's contribution to M_ℓ."""
        return max(0, self._active - self._merges - 1)

    def virtual_count(self) -> int:
        """Number of virtual nodes in the class (Lemma 4.6 measures this)."""
        return sum(self.multiplicity_by_index.values())


class VirtualAssignment(Mapping):
    """Read-only ``VirtualNode → class id`` view of a :class:`VirtualGraph`.

    Backed by the graph's flat record, so it holds no per-virtual-node
    object; keys are built on demand. Iteration visits assigned virtual
    nodes layer by layer, then node by node, then type by type — the
    order the recursion assigns them in.
    """

    __slots__ = ("_vg",)

    def __init__(self, vg: "VirtualGraph") -> None:
        self._vg = vg

    def __getitem__(self, vnode: VirtualNode) -> int:
        class_id = self._vg.class_of(vnode)
        if class_id is None:
            raise KeyError(vnode)
        return class_id

    def __contains__(self, vnode: object) -> bool:
        return self._vg.class_of(vnode) is not None

    def __len__(self) -> int:
        return self._vg._assigned

    def __iter__(self) -> Iterator[VirtualNode]:
        vg = self._vg
        record = vg._record
        nodes = vg.index.nodes
        n = vg._n
        for layer in range(1, vg.layers + 1):
            base = (layer - 1) * 3 * n
            for i in range(n):
                for vtype in (1, 2, 3):
                    if record[base + (vtype - 1) * n + i] >= 0:
                        yield VirtualNode(nodes[i], layer, vtype)


class VirtualGraph:
    """Assignment record for all virtual nodes plus per-class projections.

    The record is one flat ``array('i')`` of ``3·L·n`` class ids (−1:
    unassigned); virtual node ``(i, layer, vtype)`` lives at
    ``((layer−1)·3 + vtype−1)·n + i``. :attr:`assignment` is a read-only
    mapping view of it.

    ``index`` lets callers share one :class:`CdsIndex` canonicalization
    across repeated constructions (the Remark 3.1 guess loop builds a
    fresh ``VirtualGraph`` per attempt on the same graph).
    """

    def __init__(
        self,
        graph: nx.Graph,
        layers: int,
        n_classes: int,
        index: Optional[CdsIndex] = None,
    ) -> None:
        if layers < 2 or layers % 2 != 0:
            raise GraphValidationError("layers must be an even number >= 2")
        if n_classes < 1:
            raise GraphValidationError("n_classes must be >= 1")
        self.graph = graph
        self.index = index if index is not None else CdsIndex(graph)
        self.layers = layers
        self.n_classes = n_classes
        self._n = self.index.n
        self._record = array("i", [-1]) * (3 * layers * self._n)
        self._assigned = 0
        self.classes: List[IndexedClassState] = [
            IndexedClassState(i, self.index) for i in range(n_classes)
        ]
        # real node -> set of classes it is active in (inverse projection,
        # needed to enumerate a new node's candidate components quickly);
        # real_classes_at is the same sets by node index (shared objects).
        self.real_classes: Dict[Hashable, Set[int]] = {
            v: set() for v in self.index.nodes
        }
        self.real_classes_at: List[Set[int]] = [
            self.real_classes[v] for v in self.index.nodes
        ]

    @property
    def assignment(self) -> VirtualAssignment:
        """Read-only ``VirtualNode → class id`` view of the record."""
        return VirtualAssignment(self)

    def assign(self, vnode: VirtualNode, class_id: int) -> None:
        """Put ``vnode`` into class ``class_id`` and update the projection."""
        self.assign_at(
            self.index.index_of[vnode.real], vnode.layer, vnode.vtype, class_id
        )

    def assign_at(self, i: int, layer: int, vtype: int, class_id: int) -> None:
        """Index-side :meth:`assign` (hot path of the recursion)."""
        n = self._n
        if not (0 <= i < n and 1 <= layer <= self.layers and 1 <= vtype <= 3):
            raise GraphValidationError(
                f"virtual node (index {i}, layer {layer}, type {vtype}) "
                f"outside {n} nodes x {self.layers} layers x 3 types"
            )
        position = ((layer - 1) * 3 + vtype - 1) * n + i
        if self._record[position] >= 0:
            vnode = VirtualNode(self.index.nodes[i], layer, vtype)
            raise GraphValidationError(f"virtual node {vnode} already assigned")
        if not 0 <= class_id < self.n_classes:
            raise GraphValidationError(f"class id {class_id} out of range")
        self._record[position] = class_id
        self._assigned += 1
        self.classes[class_id].add_index(i)
        self.real_classes_at[i].add(class_id)

    def class_of(self, vnode: VirtualNode) -> Optional[int]:
        """The class of ``vnode``, or ``None`` if it is not assigned."""
        try:
            real, layer, vtype = vnode
            i = self.index.index_of[real]
            layer = operator.index(layer)
            vtype = operator.index(vtype)
        except (TypeError, ValueError, KeyError):
            return None
        if not (1 <= layer <= self.layers and 1 <= vtype <= 3):
            return None
        class_id = self._record[((layer - 1) * 3 + vtype - 1) * self._n + i]
        return class_id if class_id >= 0 else None

    def excess_components(self) -> int:
        """M_ℓ = Σ_i max(0, N_i − 1) over all classes (Section 3.1)."""
        return sum(state.excess_components() for state in self.classes)

    def projected_class_sets(self) -> List[Set[Hashable]]:
        """Ψ(V_i) for each class: real nodes with ≥ 1 virtual node in it."""
        return [state.active_reals for state in self.classes]

    def classes_per_real(self) -> Dict[Hashable, int]:
        """Number of distinct classes each real node participates in.

        Bounded by 3·layers = O(log n) by construction — this is the
        O(log n) tree-membership bound of Theorem 1.1.
        """
        return {v: len(s) for v, s in self.real_classes.items()}

    def virtual_counts_per_class(self) -> List[int]:
        """Virtual node count per class (Lemma 4.6: O(n log n / k))."""
        return [state.virtual_count() for state in self.classes]


def default_layer_count(n: int, factor: int = 2, minimum: int = 4) -> int:
    """L = Θ(log n), even, at least ``minimum``."""
    layers = max(minimum, factor * max(1, ceil_log2(max(2, n))))
    return layers + (layers % 2)
