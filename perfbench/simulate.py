"""``simulate``: the round simulator on the default engine.

Closed loop, one client, in process; the sessions are built during
set-up. Message-heavy jobs (``flood-min``, ``mis``,
``retransmit-flood`` on a dense random regular graph, ``bfs`` and
``flood-min`` on a sparse torus) separate per-message cost from the
round-heavy Theorem B.1 ``cds_packing`` driver (hundreds of rounds with
few messages each). The workload bypasses the guess ladder, the MWU
packing and the service, so changes there predict no change here.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import networkx as nx

from harness import (
    Checks,
    HostSpeed,
    PassResult,
    cycle_sums,
    request_seeds,
    whole_cycles,
    self_peak_rss_mb,
    probe_setup,
)

#: One cycle of the fixed work list: (graph, program, job kind).
CYCLE = (
    ("regular:64,800,1", "flood-min", "message"),
    ("regular:64,800,1", "mis", "message"),
    ("regular:64,800,1", "retransmit-flood", "message"),
    ("torus:30,30", "bfs", "message"),
    ("torus:30,30", "flood-min", "message"),
    ("harary:8,120", "cds_packing", "round"),
    ("hypercube:7", "cds_packing", "round"),
)
#: Programs that stop by halting every node; the rest stop when the
#: network goes quiescent.
HALTING = {"retransmit-flood", "cds_packing"}
#: Simulations per second on a 2-core x86 host; sizes the list.
NOMINAL_RATE = 3.0
SETUP_SAMPLES = 9


def ready() -> Dict[str, object]:
    """Process start → ready: imports plus one session per graph, with
    its canonical index built."""
    from repro.api import GraphSession
    import repro.simulator.scenario  # noqa: F401

    sessions = {}
    for spec, _, _ in CYCLE:
        if spec not in sessions:
            sessions[spec] = GraphSession(spec)
            sessions[spec].indexed
    return sessions


class Workload:
    name = "simulate"

    def __init__(self, seed: int, seconds: int) -> None:
        count = whole_cycles(seconds * NOMINAL_RATE, len(CYCLE))
        seeds = request_seeds(seed, "simulate", count)
        self.work: List[Tuple[Tuple[str, str, str], int]] = [
            (CYCLE[i % len(CYCLE)], seeds[i]) for i in range(count)
        ]
        self.warmup = list(
            zip(CYCLE, request_seeds(seed, "simulate-warmup", len(CYCLE)))
        )
        self.sessions: Dict[str, object] = {}

    def baselines(self) -> None:
        """No exact baseline: the checks read the outputs directly."""

    setup_count = SETUP_SAMPLES

    def setup_sample(self) -> float:
        return probe_setup(self.name)

    def _simulate(self, job, seed):
        spec, program, _ = job
        envelope = self.sessions[spec].simulate(program=program, seed=seed)
        envelope.to_json()
        return envelope

    def run_pass(self, tracer=None) -> PassResult:
        if not self.sessions:
            self.sessions = ready()
        for job, seed in self.warmup:
            self._simulate(job, seed)
        if tracer is not None:
            tracer.install()

        checks = Checks()
        speed = HostSpeed()
        latencies: List[float] = []
        #: (job kind, messages, rounds) per simulation, in order.
        done: List[Tuple[str, int, int]] = []
        totals = {"rounds": 0, "messages": 0, "bits": 0}
        message_seconds = 0.0
        started = time.perf_counter()
        for job, seed in self.work:
            speed.sample()
            begin = time.perf_counter()
            if tracer is None:
                envelope = self._simulate(job, seed)
            else:
                envelope = tracer.call(
                    "request", lambda: self._simulate(job, seed)
                )
            elapsed = time.perf_counter() - begin
            latencies.append(1000.0 * elapsed)
            payload = envelope.payload
            for key in totals:
                totals[key] += payload[key]
            done.append((job[2], payload["messages"], payload["rounds"]))
            if job[2] == "message":
                message_seconds += elapsed
            checks.op(f"{job[0]} {job[1]} seed={seed}", _check(job, envelope))
        wall = time.perf_counter() - started

        result = PassResult(
            latencies_ms=latencies,
            wall_s=wall,
            cycle_s=cycle_sums(latencies, len(CYCLE)),
            cycle_len=len(CYCLE),
            peak_rss_mb=self_peak_rss_mb(),
            checks=checks,
            host_factor=speed.factor(),
            exact={f"sim_{key}": value for key, value in totals.items()},
        )
        messages = sum(m for kind, m, _ in done if kind == "message")
        result.report = {
            "sim_msgs_per_s": (messages / message_seconds, "1/s"),
            "sim_rounds": (totals["rounds"], "rounds"),
            "sim_messages": (totals["messages"], "msgs"),
        }
        if tracer is not None:
            result.layers = _layers(tracer, done, totals)
        return result


def _layers(tracer, done, totals) -> Dict[str, float]:
    """Shared layer metrics plus the round loop's unit costs: run time
    per message on message-heavy jobs, per round on round-heavy ones."""
    from tracing import layer_metrics

    layers = layer_metrics(tracer, len(done))
    runs = tracer.outermost("simulator.run")
    seconds = {"message": 0.0, "round": 0.0}
    for span, (kind, _, _) in zip(runs, done):
        seconds[kind] += span[2] - span[1]
    messages = sum(m for kind, m, _ in done if kind == "message")
    rounds = sum(r for kind, _, r in done if kind == "round")
    layers["simulator.ns_per_message"] = 1e9 * seconds["message"] / messages
    layers["simulator.us_per_round"] = 1e6 * seconds["round"] / rounds
    layers.update({f"simulator.{key}": value for key, value in totals.items()})
    return layers


def _check(job, envelope) -> List[str]:
    """Termination, and each program's output against the graph."""
    spec, program, _ = job
    run = envelope.raw
    outputs = run.result.outputs
    graph = run.network.graph
    problems = []
    if program in HALTING and not run.result.halted:
        problems.append("did not halt")
    if program == "flood-min":
        smallest = min(run.network.node_id(v) for v in graph)
        wrong = sum(1 for value in outputs.values() if value != smallest)
        if wrong:
            problems.append(f"{wrong} nodes missed the minimum id {smallest}")
    elif program == "mis":
        members = {v for v, out in outputs.items() if out == "in-mis"}
        if any(u in members and v in members for u, v in graph.edges()):
            problems.append("MIS is not independent")
        if not nx.is_dominating_set(graph, members):
            problems.append("MIS is not maximal")
    elif program == "bfs":
        root = min(graph, key=run.network.node_id)
        depth = nx.single_source_shortest_path_length(graph, root)
        for v, (parent, distance) in outputs.items():
            if distance != depth[v] or (v != root and (
                not graph.has_edge(v, parent)
                or depth[parent] != distance - 1
            )):
                problems.append(f"bad BFS label at {v!r}")
                break
    elif program == "cds_packing":
        classes: Dict[int, set] = {}
        for v, ids in outputs.items():
            for class_id in ids:
                classes.setdefault(class_id, set()).add(v)
        if not classes:
            problems.append("no valid dominating class")
        for class_id, members in classes.items():
            if not nx.is_dominating_set(graph, members) or not nx.is_connected(
                graph.subgraph(members)
            ):
                problems.append(f"class {class_id} is not a connected "
                                "dominating set")
    return problems
