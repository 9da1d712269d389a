"""The one front door: a per-graph session with cached canonicalization.

The paper's pipeline — estimate vertex connectivity, build a CDS or
spanning packing, run broadcast/gossip/routing on top — is one coherent
object, but the free functions each re-canonicalize their ``nx.Graph``
argument through :class:`~repro.fastgraph.IndexedGraph` /
:class:`~repro.core.virtual_graph.CdsIndex`. A :class:`GraphSession`
canonicalizes **once** (from a graph, a ``family:args`` spec string, or
an edge list) and dispatches every task against the cached view:

>>> from repro.api import GraphSession
>>> session = GraphSession("harary:6,24")
>>> estimate = session.connectivity(seed=3)      # builds the index
>>> packing = session.pack_cds(seed=3)           # reuses it (and the
...                                              # estimate's packing)
>>> outcome = session.broadcast(messages=24, seed=3)  # still one index

Every method returns a typed :class:`~repro.api.envelope.Result`
envelope (graph fingerprint, seed, parameters, timings, JSON-clean
payload, plus the rich object in ``.raw``). Under a fixed seed each
method is bit-identical to the corresponding free function — the
session only *shares* the canonical index; it never changes an RNG
stream (``tests/test_api_session.py`` pins this).
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import asdict
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple, Union

import networkx as nx

from repro.api.envelope import Result, encode_value
from repro.api.specs import parse_graph_spec
from repro.errors import GraphValidationError
from repro.utils.rng import RngLike

TopologyLike = Union[str, nx.Graph, Iterable[Tuple[Hashable, Hashable]]]

#: Tasks a batch :class:`~repro.api.batch.JobSpec` may name — exactly the
#: session methods returning envelopes.
SESSION_TASKS = (
    "connectivity",
    "pack_cds",
    "pack_spanning",
    "pack_integral",
    "broadcast",
    "gossip",
    "simulate",
)


def _coerce_topology(topology: TopologyLike) -> Tuple[nx.Graph, str]:
    """(graph, descriptor) from a spec string, graph, or edge list."""
    if isinstance(topology, str):
        return parse_graph_spec(topology), topology
    if isinstance(topology, nx.Graph):
        graph = topology
        return graph, (
            f"<graph n={graph.number_of_nodes()} m={graph.number_of_edges()}>"
        )
    if isinstance(topology, Iterable):
        graph = nx.Graph()
        graph.add_edges_from(topology)
        if graph.number_of_nodes() == 0:
            raise GraphValidationError("edge list produced an empty graph")
        return graph, (
            f"<edges n={graph.number_of_nodes()} m={graph.number_of_edges()}>"
        )
    raise GraphValidationError(
        f"cannot interpret topology {topology!r}; expected a graph spec "
        "string, an nx.Graph, or an iterable of edges"
    )


#: Default bound on a session's per-task result cache. Long-lived
#: processes (the ``repro serve`` daemon) hold sessions indefinitely, so
#: an unbounded cache is a leak; 256 envelopes comfortably covers any
#: interactive working set while keeping the worst case small.
DEFAULT_CACHE_LIMIT = 256


class GraphSession:
    """Canonicalize a graph once; run the whole pipeline against it.

    Cached across calls: the :class:`~repro.fastgraph.IndexedGraph`
    canonicalization, the CDS-pipeline :class:`CdsIndex`, the structural
    fingerprint, and every task result (keyed by task + seed + params),
    so ``connectivity → pack_cds → broadcast`` under one seed performs a
    single canonicalization and a single packing construction.
    ``session.stats`` reports the cache behavior.

    The result cache is an LRU bounded by ``cache_limit`` entries
    (``None`` for unbounded; evictions are counted in
    ``stats["evictions"]``), so a session can serve an unbounded query
    stream — the ``repro serve`` daemon holds sessions for its whole
    lifetime — without leaking.

    Sessions are also *mutable*: :meth:`add_edge` / :meth:`remove_edge`
    update the graph and the cached :class:`IndexedGraph` incrementally
    (no re-canonicalization) and bump :attr:`generation`; the dependent
    layers — ``CdsIndex``, fingerprint, result cache — carry the
    generation they were built at and lazily rebuild when stale. After
    any edit sequence the session is bit-identical to a fresh session
    built from the final graph (``tests/test_incremental_index.py``).
    """

    def __init__(
        self,
        topology: TopologyLike,
        label: Optional[str] = None,
        cache_limit: Optional[int] = DEFAULT_CACHE_LIMIT,
    ):
        graph, descriptor = _coerce_topology(topology)
        if cache_limit is not None and cache_limit < 1:
            raise GraphValidationError(
                f"cache_limit must be >= 1 or None, got {cache_limit!r}"
            )
        self._graph = graph
        self._label = label or descriptor
        self._cache_limit = cache_limit
        self._indexed = None
        self._cds_index = None
        self._fingerprint: Optional[str] = None
        self._results: "OrderedDict[Tuple, Result]" = OrderedDict()
        #: Bumped on every mutation; dependent caches stamp the
        #: generation they were built at and rebuild lazily when stale.
        self.generation = 0
        self._cds_generation = 0
        self._fingerprint_generation = 0
        self._results_generation = 0
        self.stats: Dict[str, int] = {
            "canonicalizations": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "evictions": 0,
            "mutations": 0,
            "invalidations": 0,
        }

    # -- cached canonical views ----------------------------------------

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def label(self) -> str:
        return self._label

    @property
    def n(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def m(self) -> int:
        return self._graph.number_of_edges()

    @property
    def indexed(self):
        """The session's :class:`IndexedGraph` (built on first access)."""
        if self._indexed is None:
            from repro.fastgraph import IndexedGraph

            self._indexed = IndexedGraph.from_networkx(self._graph)
            self.stats["canonicalizations"] += 1
        return self._indexed

    @property
    def cds_index(self):
        """The CDS-pipeline index, sharing :attr:`indexed`.

        Rebuilt lazily after a mutation (the generation stamp differs);
        the underlying :class:`IndexedGraph` is *not* rebuilt — it was
        maintained incrementally by the mutation itself.
        """
        if self._cds_index is None or self._cds_generation != self.generation:
            from repro.core.virtual_graph import CdsIndex

            self._cds_index = CdsIndex(self._graph, indexed=self.indexed)
            self._cds_generation = self.generation
        return self._cds_index

    @property
    def fingerprint(self) -> str:
        """Structural hash of the canonical node order + edge array.

        Stable across processes and hash seeds (node ``repr`` based), so
        batch rows from different workers agree on graph identity.
        Recomputed lazily after a mutation.
        """
        if (
            self._fingerprint is None
            or self._fingerprint_generation != self.generation
        ):
            indexed = self.indexed
            digest = hashlib.sha256()
            for node in indexed.nodes:
                digest.update(repr(node).encode("utf-8"))
                digest.update(b"\x00")
            digest.update(b"|")
            for a, b in sorted(
                (min(a, b), max(a, b)) for a, b in zip(indexed.u, indexed.v)
            ):
                digest.update(f"{a},{b};".encode("ascii"))
            self._fingerprint = digest.hexdigest()[:16]
            self._fingerprint_generation = self.generation
        return self._fingerprint

    # -- incremental mutation ------------------------------------------

    def add_edge(self, a: Hashable, b: Hashable) -> None:
        """Add edge ``{a, b}`` (new labels become new nodes).

        The cached :class:`IndexedGraph` is spliced in place — no
        re-canonicalization — and :attr:`generation` is bumped so the
        dependent layers (``CdsIndex``, fingerprint, result cache)
        rebuild lazily on next use.
        """
        if a == b:
            raise GraphValidationError(
                f"self-loop {a!r}-{b!r} is not allowed"
            )
        if self._graph.has_edge(a, b):
            raise GraphValidationError(f"edge {a!r}-{b!r} already exists")
        if self._indexed is not None:
            self._indexed.add_edge(a, b)
        self._graph.add_edge(a, b)
        self._note_mutation()

    def remove_edge(self, a: Hashable, b: Hashable) -> None:
        """Remove edge ``{a, b}`` (nodes stay, as in ``nx.Graph``)."""
        if not self._graph.has_edge(a, b):
            raise GraphValidationError(
                f"edge {a!r}-{b!r} is not in the graph"
            )
        if self._indexed is not None:
            self._indexed.remove_edge(a, b)
        self._graph.remove_edge(a, b)
        self._note_mutation()

    def _note_mutation(self) -> None:
        self.generation += 1
        self.stats["mutations"] += 1

    # -- result cache --------------------------------------------------

    def _fresh_results(self) -> "OrderedDict[Tuple, Result]":
        """The result cache, cleared first if a mutation made it stale."""
        if self._results_generation != self.generation:
            if self._results:
                self.stats["invalidations"] += len(self._results)
                self._results.clear()
            self._results_generation = self.generation
        return self._results

    def _store_result(self, key: Tuple, value) -> None:
        """Insert into the LRU; evict the least-recently-used overflow."""
        results = self._fresh_results()
        results[key] = value
        results.move_to_end(key)
        if self._cache_limit is not None:
            while len(results) > self._cache_limit:
                results.popitem(last=False)
                self.stats["evictions"] += 1

    def _memo(self, key: Tuple, compute):
        """A raw value kept in the result cache under ``key`` (computed
        on a miss), for the graph generation it was computed at."""
        results = self._fresh_results()
        if key in results:
            results.move_to_end(key)
            return results[key]
        value = compute()
        self._store_result(key, value)
        return value

    def _cached(self, key: Tuple, build) -> Result:
        # Envelopes are handed out as copies (raw shared): a caller
        # mutating payload/timings in place must not poison the cache.
        results = self._fresh_results()
        if key in results:
            self.stats["cache_hits"] += 1
            results.move_to_end(key)
            return results[key].copy()
        self.stats["cache_misses"] += 1
        start = time.perf_counter()
        result = build()
        result.timings.setdefault(
            "total_s", time.perf_counter() - start
        )
        self._store_result(key, result)
        return result.copy()

    def _envelope(
        self,
        task: str,
        seed: Optional[int],
        params: Dict[str, Any],
        payload: Dict[str, Any],
        raw: Any,
    ) -> Result:
        return Result(
            task=task,
            graph=self._label,
            fingerprint=self.fingerprint,
            n=self.n,
            m=self.m,
            seed=seed,
            params=params,
            payload=payload,
            raw=raw,
        )

    # -- pipeline tasks ------------------------------------------------

    def _cds_result(self, k, seed, params):
        """The shared fractional-CDS construction (raw result, cached).

        ``connectivity`` and ``pack_cds`` under the same (k, seed,
        params) are *one* construction: Corollary 1.7's estimate is read
        off the very packing ``pack_cds`` returns.
        """
        from repro.core.cds_packing import fractional_cds_packing

        return self._memo(
            ("_cds", k, seed, params),
            lambda: fractional_cds_packing(
                self._graph, k=k, params=params, rng=seed,
                index=self.cds_index,
            ),
        )

    def pack_cds(
        self,
        k: Optional[int] = None,
        seed: int = 0,
        params=None,
    ) -> Result:
        """Fractional dominating tree packing (Theorems 1.1/1.2).

        Bit-identical to
        :func:`repro.core.cds_packing.fractional_cds_packing` under the
        same seed.
        """
        def build():
            result = self._cds_result(k, seed, params)
            packing = result.packing
            # No max_diameter here: all-pairs BFS per tree costs more
            # than the construction itself; callers that want it read
            # ``raw.packing.max_diameter()`` (the CLI does).
            payload = {
                "size": packing.size,
                "n_trees": len(packing),
                "t_requested": result.t_requested,
                "t_used": result.t_used,
                "n_valid_classes": len(result.valid_classes),
                "k_guess": result.k_guess,
                "attempts": result.attempts,
                "max_node_load": packing.max_node_load(),
            }
            return self._envelope(
                "pack_cds", seed,
                {"k": k, "params": asdict(params) if params else None},
                payload, result,
            )

        return self._cached(("pack_cds", k, seed, params), build)

    def connectivity(
        self,
        seed: int = 0,
        params=None,
        approximation_constant: float = 6.0,
        exact: bool = False,
    ) -> Result:
        """Corollary 1.7 vertex-connectivity estimate.

        Shares the packing with :meth:`pack_cds` (same seed/params) —
        the estimate is derived, not recomputed. ``exact=True`` adds the
        exact Even–Tarjan ``k`` and Stoer–Wagner ``λ`` oracles to the
        payload (expensive; off by default).
        """
        def build():
            from repro.core.vertex_connectivity import estimate_from_packing

            packing_result = self._cds_result(None, seed, params)
            estimate = estimate_from_packing(
                self._graph, packing_result, approximation_constant
            )
            payload = {
                "lower_bound": estimate.lower_bound,
                "upper_bound": estimate.upper_bound,
                "estimate": estimate.estimate,
                "packing_size": estimate.packing_size,
                "n_trees": estimate.n_trees,
                "log_factor": estimate.log_factor,
            }
            if exact:
                payload["exact_k"] = self.exact_vertex_connectivity()
                payload["exact_lambda"] = self.exact_edge_connectivity()
            return self._envelope(
                "connectivity", seed,
                {
                    "params": asdict(params) if params else None,
                    "approximation_constant": approximation_constant,
                    "exact": exact,
                },
                payload, estimate,
            )

        return self._cached(
            ("connectivity", seed, params, approximation_constant, exact),
            build,
        )

    def exact_vertex_connectivity(self) -> int:
        """Exact ``k`` via Even–Tarjan (cached; the expensive oracle)."""
        from repro.baselines.vertex_connectivity_exact import (
            even_tarjan_vertex_connectivity,
        )

        return self._memo(
            ("_exact_k",),
            lambda: even_tarjan_vertex_connectivity(self._graph)[0],
        )

    def exact_edge_connectivity(self) -> int:
        """Exact ``λ`` via Stoer–Wagner (cached)."""
        from repro.baselines.mincut import edge_connectivity_exact

        return self._memo(
            ("_exact_lam",), lambda: edge_connectivity_exact(self._graph)
        )

    def _edge_connectivity(self) -> int:
        """``λ`` on the kernel (cached per graph generation): what the
        spanning packings are sized from when the caller gives no ``lam``."""
        from repro.fastgraph import edge_connectivity

        return self._memo(("_lam",), lambda: edge_connectivity(self.indexed))

    def pack_spanning(
        self,
        lam: Optional[int] = None,
        seed: int = 0,
        params=None,
    ) -> Result:
        """Fractional spanning tree packing (Theorem 1.3); bit-identical
        to :func:`~repro.core.spanning_packing.fractional_spanning_tree_packing`."""
        def build():
            from repro.core.spanning_packing import (
                fractional_spanning_tree_packing,
            )

            result = fractional_spanning_tree_packing(
                self._graph,
                lam=self._edge_connectivity() if lam is None else lam,
                params=params, rng=seed, indexed=self.indexed,
            )
            packing = result.packing
            payload = {
                "size": packing.size,
                "n_trees": len(packing),
                "lam": result.lam,
                "target": result.target,
                "parts": result.parts,
                "efficiency": result.efficiency,
                "max_edge_load": packing.max_edge_load(),
                "mwu_iterations": max(
                    (t.iterations for t in result.traces), default=0
                ),
            }
            return self._envelope(
                "pack_spanning", seed,
                {"lam": lam, "params": asdict(params) if params else None},
                payload, result,
            )

        return self._cached(("pack_spanning", lam, seed, params), build)

    def pack_integral(
        self,
        kind: str = "cds",
        seed: int = 0,
        k: Optional[int] = None,
        lam: Optional[int] = None,
        class_factor: float = 0.25,
        parts_factor: float = 0.5,
    ) -> Result:
        """Integral (vertex-/edge-disjoint) packings (Section 1.2)."""
        if kind not in ("cds", "spanning"):
            raise GraphValidationError(
                f"unknown integral packing kind {kind!r}; "
                "valid kinds: cds, spanning"
            )

        def build():
            if kind == "cds":
                from repro.core.integral_packing import integral_cds_packing

                result = integral_cds_packing(
                    self._graph, k=k, class_factor=class_factor, rng=seed
                )
                packing = result.packing
                payload = {
                    "kind": kind,
                    "size": len(packing),
                    "t_requested": result.t_requested,
                    "valid_classes": result.valid_classes,
                    "vertex_disjoint": packing.is_vertex_disjoint(),
                }
                raw = result
            else:
                from repro.core.integral_packing import (
                    integral_spanning_packing,
                )

                packing = integral_spanning_packing(
                    self._graph,
                    lam=self._edge_connectivity() if lam is None else lam,
                    parts_factor=parts_factor, rng=seed,
                    indexed=self.indexed,
                )
                payload = {
                    "kind": kind,
                    "size": len(packing),
                    "edge_disjoint": packing.is_edge_disjoint(),
                }
                raw = packing
            return self._envelope(
                "pack_integral", seed,
                {
                    "kind": kind, "k": k, "lam": lam,
                    "class_factor": class_factor,
                    "parts_factor": parts_factor,
                },
                payload, raw,
            )

        return self._cached(
            ("pack_integral", kind, seed, k, lam, class_factor, parts_factor),
            build,
        )

    # -- applications on top of the packings ---------------------------

    def default_sources(self, messages: int) -> Dict[int, Hashable]:
        """The CLI's historical source assignment: message ``i`` starts
        at the ``i``-th node in string order (round-robin)."""
        nodes = sorted(self._graph.nodes(), key=str)
        return {i: nodes[i % len(nodes)] for i in range(messages)}

    def broadcast(
        self,
        messages: int = 16,
        seed: int = 0,
        transport: str = "vertex",
        sources: Optional[Dict[int, Hashable]] = None,
        pack_seed: Optional[int] = None,
        k: Optional[int] = None,
        params=None,
    ) -> Result:
        """Tree-routed broadcast (Corollaries 1.4/1.5) on the session's
        cached packing.

        ``transport`` — ``"vertex"`` floods a dominating tree packing
        under V-CONGEST capacities, ``"edge"`` a spanning packing under
        E-CONGEST. ``pack_seed`` defaults to ``seed`` (the CLI's
        historical behavior: one seed pins packing and routing).
        """
        if transport not in ("vertex", "edge"):
            raise GraphValidationError(
                f"unknown broadcast transport {transport!r}; "
                "valid transports: vertex, edge"
            )
        effective_pack_seed = seed if pack_seed is None else pack_seed
        explicit_sources = sources is not None

        def build():
            from repro.apps.broadcast import edge_broadcast, vertex_broadcast

            chosen_sources = (
                sources if explicit_sources else self.default_sources(messages)
            )
            if transport == "vertex":
                packing = self._cds_result(
                    k, effective_pack_seed, params
                ).packing
                outcome = vertex_broadcast(packing, chosen_sources, rng=seed)
            else:
                packing = self.pack_spanning(
                    seed=effective_pack_seed, params=params
                ).raw.packing
                outcome = edge_broadcast(packing, chosen_sources, rng=seed)
            payload = {
                "transport": transport,
                "n_messages": outcome.n_messages,
                "rounds": outcome.rounds,
                "throughput": outcome.throughput,
                "max_vertex_congestion": outcome.max_vertex_congestion,
                "max_edge_congestion": outcome.max_edge_congestion,
                "n_trees_used": len(set(outcome.tree_assignment.values())),
            }
            return self._envelope(
                "broadcast", seed,
                {
                    "messages": len(chosen_sources),
                    "transport": transport,
                    "pack_seed": effective_pack_seed,
                    "k": k,
                    "params": asdict(params) if params else None,
                },
                payload, outcome,
            )

        if explicit_sources:
            return build()  # un-hashable argument: skip the cache
        return self._cached(
            (
                "broadcast", messages, seed, transport,
                effective_pack_seed, k, params,
            ),
            build,
        )

    def gossip(
        self,
        n_messages: Optional[int] = None,
        max_per_node: int = 1,
        seed: int = 0,
        pack_seed: Optional[int] = None,
        k: Optional[int] = None,
        params=None,
    ) -> Result:
        """Gossip / k-token dissemination (Corollary A.1) on the cached
        dominating tree packing."""
        effective_pack_seed = seed if pack_seed is None else pack_seed

        def build():
            from repro.apps.gossip import gossip as gossip_fn

            packing = self._cds_result(k, effective_pack_seed, params).packing
            outcome = gossip_fn(
                packing,
                n_messages=n_messages,
                max_per_node=max_per_node,
                rng=seed,
            )
            payload = {
                "n_messages": outcome.n_messages,
                "max_per_node": outcome.max_per_node,
                "rounds": outcome.rounds,
                "reference_rounds": outcome.reference_rounds,
                "slowdown": outcome.slowdown,
                "throughput": outcome.broadcast.throughput,
            }
            return self._envelope(
                "gossip", seed,
                {
                    "n_messages": n_messages,
                    "max_per_node": max_per_node,
                    "pack_seed": effective_pack_seed,
                    "k": k,
                    "params": asdict(params) if params else None,
                },
                payload, outcome,
            )

        return self._cached(
            (
                "gossip", n_messages, max_per_node, seed,
                effective_pack_seed, k, params,
            ),
            build,
        )

    # -- simulator-backed tasks ----------------------------------------

    def simulate(
        self,
        program: str = "flood-min",
        model: Optional[str] = None,
        seed: int = 0,
        fault_plan=None,
        adversary_plan=None,
        max_rounds: int = 100000,
        trace: bool = False,
        engine: Optional[str] = None,
        shards: Optional[int] = None,
        show_outputs: Optional[int] = None,
    ) -> Result:
        """Run a registered scenario program on the round simulator.

        The scenario's :class:`~repro.simulator.network.Network` reuses
        the session's canonicalization (``Scenario.indexed``); the run
        RNG stream is unchanged, so results match a standalone
        :class:`~repro.simulator.scenario.Scenario` bit for bit.
        ``engine`` picks a registered round loop (``"indexed"``,
        ``"reference"``, ``"sharded"``, ``"vectorized"`` — all
        bit-identical); ``shards`` sets the worker count of
        multiprocess engines (``engine="sharded"``).
        ``show_outputs`` caps how many node
        outputs enter the payload (``None``: all). The envelope's
        ``params`` carry the *full* fault/adversary configuration
        (including the plan seeds bound during the run), so a ``--json``
        row alone reproduces a hostile execution.
        """
        from repro.simulator.runner import Model
        from repro.simulator.scenario import Scenario

        scenario = Scenario(
            topology=self._graph,
            program=program,
            model=Model(model) if isinstance(model, str) else model,
            seed=seed,
            fault_plan=fault_plan,
            adversary_plan=adversary_plan,
            max_rounds=max_rounds,
            trace=trace,
            engine=engine,
            shards=shards,
            indexed=self.indexed,
        )
        resolved = scenario.resolve()
        run = scenario.run()
        summary = run.summary()
        outputs = list(run.result.outputs.items())
        if show_outputs is not None:
            outputs = outputs[:show_outputs]
        from repro.simulator.runner import default_engine

        payload = {
            "program": resolved.name,
            "description": resolved.description,
            "model": (scenario.model or resolved.model).value,
            "engine": engine or default_engine(),
            "rounds": summary["rounds"],
            "messages": summary["messages"],
            "bits": summary["bits"],
            "max_message_bits": summary["max_message_bits"],
            "halted": summary["halted"],
            "outputs": {node: _jsonable(out) for node, out in outputs},
        }
        envelope = self._envelope(
            "simulate", seed,
            {
                "program": program,
                "model": model,
                "max_rounds": max_rounds,
                "engine": engine,
                "shards": shards,
                # Full plan configs (seeds included; bound during the
                # run, so the envelope pins the exact loss/corruption
                # pattern). None = reliable / honest channels.
                "faults": _describe_plan(fault_plan),
                "adversary": _describe_plan(adversary_plan),
            },
            payload, run,
        )
        envelope.timings["total_s"] = run.wall_seconds
        envelope.timings["rounds_per_sec"] = summary["rounds_per_sec"]
        return envelope

    def pack_cds_distributed(
        self,
        k: int,
        seed: int = 0,
        params=None,
    ) -> Result:
        """Theorem B.1's distributed construction on the V-CONGEST
        simulator (round/bit accounting in the payload)."""
        def build():
            from repro.core.cds_packing_distributed import (
                distributed_cds_packing,
            )

            dist = distributed_cds_packing(self._graph, k, params, seed)
            payload = {
                "size": dist.result.packing.size,
                "n_trees": len(dist.result.packing),
                "meta_rounds": dist.meta_rounds,
                "real_round_estimate": dist.real_round_estimate,
                "analytic_round_bound": dist.report.analytic_total(),
                "messages": dist.report.measured.messages,
                "bits": dist.report.measured.bits,
            }
            return self._envelope(
                "pack_cds_distributed", seed,
                {"k": k, "params": asdict(params) if params else None},
                payload, dist,
            )

        return self._cached(("pack_cds_distributed", k, seed, params), build)


def _jsonable(value: Any) -> Any:
    """Best-effort envelope encoding for node program outputs."""
    try:
        return encode_value(value)
    except TypeError:
        return repr(value)


def _describe_plan(plan: Any) -> Optional[Dict[str, Any]]:
    """A plan's JSON-clean config for the params block (None stays None)."""
    if plan is None:
        return None
    described = plan.describe()
    try:
        return encode_value(described)
    except TypeError:
        return {key: repr(value) for key, value in described.items()}
