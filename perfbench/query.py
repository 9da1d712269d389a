"""``query``: the pipeline a user runs, one fresh session per request.

Closed loop, one client, in process. Each request is
``GraphSession(spec) → connectivity → broadcast(vertex) →
broadcast(edge)`` plus encoding the three envelopes, which covers both
decompositions (Theorems 1.1/1.3) and both broadcast corollaries
(Corollary 1.4). The graphs sit in the paper's high-connectivity regime
and vary family, diameter and λ; ``harary:12,48`` runs the MWU spanning
packing to its iteration cap.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Tuple

from harness import (
    Checks,
    HostSpeed,
    PassResult,
    cycle_sums,
    exact_connectivity,
    geomean,
    request_seeds,
    whole_cycles,
    self_peak_rss_mb,
    probe_setup,
)

#: One cycle of the fixed work list; the list repeats it in this order.
CYCLE = (
    "torus:12,12",
    "hypercube:7",
    "regular:10,160,7",
    "clique_chain:8,16",
    "harary:8,200",
    "harary:12,48",
)
#: Requests per second on a 2-core x86 host; sizes the list to --seconds.
NOMINAL_RATE = 2.0
#: Messages per broadcast (the session's default).
MESSAGES = 16
SETUP_SAMPLES = 9


def ready() -> None:
    """Process start → ready: import every module a request touches."""
    import repro.api  # noqa: F401
    import repro.apps.broadcast  # noqa: F401
    import repro.core.cds_packing  # noqa: F401
    import repro.core.spanning_packing  # noqa: F401
    import repro.core.vertex_connectivity  # noqa: F401


def _request(spec: str, seed: int):
    from repro.api import GraphSession

    session = GraphSession(spec)
    estimate = session.connectivity(seed=seed)
    vertex = session.broadcast(seed=seed, transport="vertex")
    edge = session.broadcast(seed=seed, transport="edge")
    for envelope in (estimate, vertex, edge):
        envelope.to_json()
    return session, estimate, vertex, edge


class Workload:
    name = "query"

    def __init__(self, seed: int, seconds: int) -> None:
        count = whole_cycles(seconds * NOMINAL_RATE, len(CYCLE))
        seeds = request_seeds(seed, "query", count)
        self.work: List[Tuple[str, int]] = [
            (CYCLE[i % len(CYCLE)], seeds[i]) for i in range(count)
        ]
        warm = request_seeds(seed, "query-warmup", len(CYCLE))
        self.warmup = list(zip(dict.fromkeys(CYCLE), warm))
        self.exact: Dict[str, Tuple[int, int]] = {}

    def baselines(self) -> None:
        for spec in dict.fromkeys(CYCLE):
            self.exact[spec] = exact_connectivity(spec)

    setup_count = SETUP_SAMPLES

    def setup_sample(self) -> float:
        return probe_setup(self.name)

    def run_pass(self, tracer=None) -> PassResult:
        ready()
        for spec, seed in self.warmup:
            _request(spec, seed)
        if tracer is not None:
            tracer.install()

        checks = Checks()
        speed = HostSpeed()
        latencies: List[float] = []
        kappa_err: List[float] = []
        cds_ratio: List[float] = []
        span_ratio: List[float] = []
        bcast_rounds = 0
        hits = misses = 0
        started = time.perf_counter()
        for spec, seed in self.work:
            speed.sample()
            begin = time.perf_counter()
            if tracer is None:
                session, estimate, vertex, edge = _request(spec, seed)
            else:
                session, estimate, vertex, edge = tracer.call(
                    "request", lambda: _request(spec, seed)
                )
            latencies.append(1000.0 * (time.perf_counter() - begin))
            hits += session.stats["cache_hits"]
            misses += session.stats["cache_misses"]

            # Checks and quality, outside the clock.
            kappa, lam = self.exact[spec]
            problems = _check(session, seed, estimate, vertex, edge, kappa)
            checks.op(f"{spec} seed={seed}", problems)
            payload = estimate.payload
            kappa_err.append(
                max(payload["estimate"] / kappa, kappa / payload["estimate"])
            )
            cds_size = session.pack_cds(seed=seed).payload["size"]
            cds_ratio.append(cds_size / (kappa / math.log(session.n)))
            span_size = session.pack_spanning(seed=seed).payload["size"]
            span_ratio.append(span_size / math.ceil((lam - 1) / 2))
            bcast_rounds += vertex.payload["rounds"] + edge.payload["rounds"]
        wall = time.perf_counter() - started

        exact = {
            "bcast_rounds": bcast_rounds,
            "kappa_err": geomean(kappa_err),
            "cds_size_ratio": sum(cds_ratio) / len(cds_ratio),
            "span_size_ratio": sum(span_ratio) / len(span_ratio),
        }
        result = PassResult(
            latencies_ms=latencies,
            wall_s=wall,
            cycle_s=cycle_sums(latencies, len(CYCLE)),
            cycle_len=len(CYCLE),
            peak_rss_mb=self_peak_rss_mb(),
            checks=checks,
            host_factor=speed.factor(),
            exact=exact,
        )
        result.report = {
            "bcast_rounds": (bcast_rounds, "rounds"),
            "kappa_err": (exact["kappa_err"], "x"),
            "cds_size_ratio": (exact["cds_size_ratio"], "1"),
            "span_size_ratio": (exact["span_size_ratio"], "1"),
        }
        if tracer is not None:
            from tracing import layer_metrics

            result.layers = layer_metrics(tracer, len(self.work))
            result.layers["session.cache_hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
        return result


def _check(session, seed, estimate, vertex, edge, kappa) -> List[str]:
    """Cor 1.7 interval, packing validity, complete broadcasts."""
    from repro.errors import PackingValidationError

    problems = []
    payload = estimate.payload
    if not payload["lower_bound"] <= kappa <= payload["upper_bound"]:
        problems.append(
            f"exact kappa {kappa} outside Cor 1.7 interval "
            f"[{payload['lower_bound']}, {payload['upper_bound']}]"
        )
    packings = (
        session.pack_cds(seed=seed).raw.packing,
        session.pack_spanning(seed=seed).raw.packing,
    )
    for packing in packings:
        try:
            packing.verify()
        except PackingValidationError as exc:
            problems.append(f"{type(packing).__name__}: {exc}")
    for envelope in (vertex, edge):
        outcome = envelope.raw
        if outcome.n_messages != MESSAGES or outcome.rounds < 1 or len(
            outcome.tree_assignment
        ) != MESSAGES:
            problems.append(
                f"{envelope.payload['transport']} broadcast delivered "
                f"{outcome.n_messages}/{MESSAGES} messages"
            )
    return problems

