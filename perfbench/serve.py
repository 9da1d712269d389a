"""``serve``: the daemon under a heavy closed loop and a light open loop.

The daemon runs as ``python -m repro.service`` in a child process (a
traced pass runs ``traced_daemon.py`` instead, which records spans
inside the daemon). One generator thread drives two connections:

* heavy — a closed loop over a fixed list of cold ``estimate`` and
  ``pack kind=spanning`` ops, rotating over a few graphs with a new seed
  per op, so the result cache misses while the session stays warm;
* light — an open loop at a fixed rate of ``ping``, ``stats``,
  ``node_nbr``, a warm (cached) ``estimate`` and ``edge_new`` +
  ``edge_rmv``, on other graphs; each op is timed from when it was due.

The stream runs in segments of whole heavy cycles; the light stream
runs until the segment's heavy ops drain. Light ops need microseconds
of compute, so their latency is the wait behind heavy ops for the
daemon's GIL and dispatch lock plus the wire.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from harness import (
    CACHE,
    HERE,
    ROOT,
    Checks,
    HostSpeed,
    PassResult,
    child_env,
    exact_connectivity,
    geomean,
    median,
    request_seeds,
    whole_cycles,
)

#: One cycle of the heavy list: (op, graph). Two graphs only, so the
#: daemon's heap stays bounded: their sessions' result caches (256
#: results each) fill during the stream. The periodic collector stalls
#: that set the light tail grow with that heap.
HEAVY = (
    ("estimate", "hypercube:6"),
    ("spanning", "hypercube:6"),
    ("estimate", "harary:8,48"),
    ("spanning", "harary:8,48"),
)
#: Heavy ops per second on a 2-core x86 host; sizes the list.
NOMINAL_RATE = 30.0
#: Light ops: due every 1/LIGHT_RATE s, cycling through LIGHT. The rate
#: is dense enough that every daemon stall is sampled by several light
#: ops, which keeps the tail steady from run to run.
LIGHT_RATE = 24.0
LIGHT = ("ping", "stats", "node_nbr", "estimate", "edge_new", "edge_rmv")
NBR_GRAPH = "harary:6,40"
WARM_GRAPH = "harary:6,60"
WARM_SEED = 7
#: Edited and restored by edge_new/edge_rmv; 0 and 15 are not adjacent.
EDIT_GRAPH = "harary:4,30"
EDIT_EDGE = (0, 15)
SETUP_SAMPLES = 7
#: The stream runs in segments of this many heavy ops (whole cycles).
#: Between segments both loops stop, every reply is in, and HostSpeed's
#: kernel runs KERNEL_BATCH times on the daemon's CPU while the daemon
#: is idle; the pauses are not timed. The host's speed drifts within a
#: run, so the kernel has to sample the whole run, not only its ends.
#: While a segment streams, the generator runs on the other CPU.
SEGMENT = 10 * len(HEAVY)
KERNEL_BATCH = 4
DAEMON_TIMEOUT_S = 60.0

#: The vCPUs of a shared virtual machine can run at different speeds at
#: the same moment (HostSpeed's kernel took 6 ms on one and 10 ms on the
#: other). So the daemon and the kernel samples run on DAEMON_CPUS (the
#: daemon inherits the placement of the thread that starts it), and the
#: load generator streams from GENERATOR_CPUS.
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
DAEMON_CPUS = set(_CPUS[-1:])
GENERATOR_CPUS = set(_CPUS[:-1]) or DAEMON_CPUS


def pin(cpus) -> None:
    """Move the calling thread onto ``cpus`` (no-op where the platform
    has no affinity control)."""
    if cpus:
        os.sched_setaffinity(0, cpus)


class Daemon:
    """The service in a child process, answering on an ephemeral port."""

    def __init__(self, trace_path: Optional[str] = None) -> None:
        if trace_path is None:
            args = ["-m", "repro.service", "--port", "0"]
        else:
            args = [str(HERE / "traced_daemon.py"), trace_path, "--port", "0"]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + args, env=child_env(), cwd=str(ROOT),
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        try:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], DAEMON_TIMEOUT_S
            )
            line = self.proc.stdout.readline().decode() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            host, port = line.split()[3].rsplit(":", 1)
            self.address = (host, int(port))
        except BaseException:
            self.stop()
            raise

    def connect(self) -> "Connection":
        return Connection(socket.create_connection(self.address))

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Ask the daemon to shut down; kill it if it does not."""
        if self.proc.poll() is None:
            try:
                with self.connect() as conn:
                    conn.call({"op": "shutdown"})
            except OSError:
                pass
            try:
                self.proc.wait(timeout=DAEMON_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """One newline-JSON connection; frames are read from a buffer so a
    single thread can multiplex several connections with ``select``."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buffer = b""

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.sock.close()

    def send(self, body: Dict) -> None:
        self.sock.sendall(json.dumps(body).encode() + b"\n")

    def frames(self) -> List[Tuple[Dict, int]]:
        """Complete frames now readable, with their sizes in bytes."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._buffer += chunk
        *lines, self._buffer = self._buffer.split(b"\n")
        return [(json.loads(line), len(line) + 1) for line in lines]

    def call(self, body: Dict) -> Dict:
        self.send(body)
        while True:
            frames = self.frames()
            if frames:
                return frames[0][0]


class Workload:
    name = "serve"

    def __init__(self, seed: int, seconds: int) -> None:
        pin(DAEMON_CPUS)
        count = whole_cycles(seconds * NOMINAL_RATE, SEGMENT)
        seeds = request_seeds(seed, "serve", count)
        self.heavy = [
            (HEAVY[i % len(HEAVY)], seeds[i]) for i in range(count)
        ]
        warm = request_seeds(seed, "serve-warmup", len(HEAVY))
        self.warmup = list(zip(HEAVY, warm))
        self.exact: Dict[str, Tuple[int, int]] = {}

    def baselines(self) -> None:
        for _, spec in HEAVY:
            self.exact[spec] = exact_connectivity(spec)

    setup_count = SETUP_SAMPLES

    def setup_sample(self) -> float:
        """Process start → daemon answering ``ping``."""
        daemon = Daemon()
        try:
            with daemon.connect() as conn:
                conn.call({"op": "ping"})
            return time.perf_counter() - daemon.started
        finally:
            daemon.stop()

    def run_pass(self, tracer=None) -> PassResult:
        trace_path = None
        if tracer is not None:
            trace_path = str(CACHE / "traces" / f"serve-daemon-{os.getpid()}.json")
        daemon = Daemon(trace_path)
        try:
            with daemon.connect() as heavy, daemon.connect() as light:
                state = self._prepare(heavy)
                if tracer is not None:
                    heavy.call({"op": "ping", "id": "trace-on"})
                result = _Generator(self, state, heavy, light).run()
                if tracer is not None:
                    heavy.call({"op": "ping", "id": "trace-off"})
                stats = heavy.call({"op": "stats"})["payload"]["cache"]
            result.peak_rss_mb = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        if tracer is not None:
            from tracing import Tracer, layer_metrics

            tracer.spans = Tracer.load(trace_path).spans
            os.remove(trace_path)
            result.layers.update(layer_metrics(tracer, len(self.heavy)))
            lookups = stats["hits"] + stats["misses"]
            result.layers["service.cache_hit_ratio"] = stats["hits"] / lookups
            result.layers["service.evictions"] = stats["evictions"]
        return result

    def _prepare(self, conn: Connection) -> Dict:
        """Open every session, warm the heavy graphs, and record the
        cold answers the light stream must reproduce."""
        for _, spec in HEAVY:
            conn.call({"op": "open", "graph": spec})
        for (op, spec), seed in self.warmup:
            conn.call(_heavy_request(op, spec, seed))
        state = {}
        for spec in (NBR_GRAPH, WARM_GRAPH, EDIT_GRAPH):
            opened = conn.call({"op": "open", "graph": spec})["payload"]
            state[spec] = opened["fingerprint"]
            state[spec + ":m"] = opened["m"]
        state["nbr_degree"] = len(
            conn.call({"op": "node_nbr", "graph": NBR_GRAPH, "node": 0})
            ["payload"]["neighbors"]
        )
        cold = conn.call(
            {"op": "estimate", "graph": WARM_GRAPH, "seed": WARM_SEED}
        )
        state["warm_payload"] = cold["payload"]
        a, b = EDIT_EDGE
        added = conn.call({"op": "edge_new", "session": state[EDIT_GRAPH],
                           "a": a, "b": b})
        state["edited"] = added["payload"]["fingerprint"]
        conn.call({"op": "edge_rmv", "session": state["edited"], "a": a, "b": b})
        return state


def _heavy_request(op: str, spec: str, seed: int) -> Dict:
    if op == "estimate":
        return {"op": "estimate", "graph": spec, "seed": seed}
    return {"op": "pack", "kind": "spanning", "graph": spec, "seed": seed}


def _light_request(kind: str, state: Dict) -> Dict:
    if kind in ("ping", "stats"):
        return {"op": kind}
    if kind == "node_nbr":
        return {"op": "node_nbr", "session": state[NBR_GRAPH], "node": 0}
    if kind == "estimate":
        return {"op": "estimate", "graph": WARM_GRAPH, "seed": WARM_SEED}
    a, b = EDIT_EDGE
    if kind == "edge_new":
        return {"op": "edge_new", "session": state[EDIT_GRAPH], "a": a, "b": b}
    return {"op": "edge_rmv", "session": state["edited"], "a": a, "b": b}


class _Generator:
    """One thread, two connections: the heavy closed loop sends its next
    op when the previous reply arrives; the light open loop sends each
    op when it falls due, whether or not earlier ones were answered."""

    def __init__(self, workload: Workload, state: Dict,
                 heavy: Connection, light: Connection) -> None:
        self.work = workload.heavy
        self.exact = workload.exact
        self.state = state
        self.heavy = heavy
        self.light = light
        self.checks = Checks()
        self.speed = HostSpeed()
        self.heavy_ms: List[float] = []
        self.heavy_request_ms: List[float] = []
        self.light_ms: List[float] = []
        self.light_request_ms: List[float] = []
        self.wire_ms: List[float] = []
        self.late_ms: List[float] = []
        self.response_bytes: List[int] = []
        self.kappa_err: List[float] = []
        self.span_ratio: List[float] = []
        self.cycle_s: List[float] = []
        self.pending: deque = deque()  # light ops in flight: (kind, due, sent)
        self.done = 0  # heavy ops answered
        self.sent_light = 0

    def run(self) -> PassResult:
        wall = 0.0
        while self.done < len(self.work):
            self._sample_speed()
            pin(GENERATOR_CPUS)
            start = time.perf_counter()
            self._segment(start)
            wall += time.perf_counter() - start
        self._sample_speed()
        return self._result(wall)

    def _sample_speed(self) -> None:
        """Run the kernel on the daemon's CPU while the daemon is idle."""
        pin(DAEMON_CPUS)
        for _ in range(KERNEL_BATCH):
            self.speed.sample()

    def _segment(self, start: float) -> None:
        """Stream the next SEGMENT heavy ops with the light stream due
        from ``start``; return once every reply is in."""
        end = self.done + SEGMENT
        self.cycle_start = start
        self._send_heavy()
        first_light = self.sent_light
        while self.done < end or self.pending:
            now = time.perf_counter()
            due = start + (self.sent_light - first_light) / LIGHT_RATE
            streaming = self.done < end
            if streaming and due <= now:
                self._send_light(LIGHT[self.sent_light % len(LIGHT)], due)
                continue
            readable, _, _ = select.select(
                [self.heavy.sock, self.light.sock], [], [],
                max(0.0, due - now) if streaming else None,
            )
            if self.heavy.sock in readable:
                for body, size in self.heavy.frames():
                    self._on_heavy(body, size, end)
            if self.light.sock in readable:
                for body, size in self.light.frames():
                    self._on_light(body, size)

    def _send_heavy(self) -> None:
        (op, spec), seed = self.work[self.done]
        self.heavy_sent = time.perf_counter()
        self.heavy.send(_heavy_request(op, spec, seed))

    def _send_light(self, kind: str, due: float) -> None:
        self.light.send(_light_request(kind, self.state))
        self.sent_light += 1
        sent = time.perf_counter()
        self.late_ms.append(1000.0 * (sent - due))
        self.pending.append((kind, due, sent))

    def _on_heavy(self, body: Dict, size: int, end: int) -> None:
        arrived = time.perf_counter()
        latency_ms = 1000.0 * (arrived - self.heavy_sent)
        request_ms = 1000.0 * body["timings"]["request_s"]
        self.heavy_ms.append(latency_ms)
        self.heavy_request_ms.append(request_ms)
        self.wire_ms.append(latency_ms - request_ms)
        self.response_bytes.append(size)
        (op, spec), seed = self.work[self.done]
        self.checks.op(f"{op} {spec} seed={seed}",
                       self._heavy_problems(op, spec, body))
        self.done += 1
        if self.done % len(HEAVY) == 0:
            self.cycle_s.append(arrived - self.cycle_start)
            self.cycle_start = arrived
        if self.done < end:
            self._send_heavy()

    def _on_light(self, body: Dict, size: int) -> None:
        arrived = time.perf_counter()
        kind, due, sent = self.pending.popleft()
        request_ms = 1000.0 * body["timings"]["request_s"]
        self.light_ms.append(1000.0 * (arrived - due))
        self.light_request_ms.append(request_ms)
        self.wire_ms.append(1000.0 * (arrived - sent) - request_ms)
        self.response_bytes.append(size)
        self.checks.op(kind, self._light_problems(kind, body))

    def _result(self, wall: float) -> PassResult:
        exact = {
            "kappa_err": geomean(self.kappa_err),
            "span_size_ratio": sum(self.span_ratio) / len(self.span_ratio),
        }
        result = PassResult(
            latencies_ms=self.light_ms,
            wall_s=wall,
            cycle_s=self.cycle_s,
            cycle_len=len(HEAVY),
            peak_rss_mb=0.0,
            checks=self.checks,
            host_factor=self.speed.factor(),
            # A light op computes for microseconds: its latency is the
            # wait for the daemon's GIL and dispatch lock and for its
            # collector's pauses, which did not follow the kernel
            # (README, "Host speed").
            scale_latency=False,
            exact=exact,
        )
        result.report = {
            "heavy_latency_ms.p50": (median(self.heavy_ms), "ms"),
            "light_ops": (len(self.light_ms), "count"),
            "kappa_err": (exact["kappa_err"], "x"),
            "span_size_ratio": (exact["span_size_ratio"], "1"),
        }
        result.layers = {
            "service.request_ms.light": median(self.light_request_ms),
            "service.request_ms.heavy": median(self.heavy_request_ms),
            "service.wire_ms": median(self.wire_ms),
            "protocol.response_bytes": (
                sum(self.response_bytes) / len(self.response_bytes)
            ),
            "generator.late_ms": sum(self.late_ms) / len(self.late_ms),
        }
        return result

    def _heavy_problems(self, op: str, spec: str, body: Dict) -> List[str]:
        payload = body["payload"]
        if body.get("task") == "error":
            return [f"error envelope: {payload}"]
        kappa, lam = self.exact[spec]
        if op == "estimate":
            self.kappa_err.append(
                max(payload["estimate"] / kappa, kappa / payload["estimate"])
            )
            if not payload["lower_bound"] <= kappa <= payload["upper_bound"]:
                return [f"exact kappa {kappa} outside Cor 1.7 interval"]
            return []
        self.span_ratio.append(payload["size"] / -(-(lam - 1) // 2))
        if payload["max_edge_load"] > 1.0 + 1e-9 or payload["size"] <= 0:
            return [f"infeasible spanning packing: {payload}"]
        return []

    def _light_problems(self, kind: str, body: Dict) -> List[str]:
        payload = body["payload"]
        state = self.state
        if body.get("task") == "error":
            return [f"error envelope: {payload}"]
        if kind == "ping" and payload.get("pong") is not True:
            return ["no pong"]
        if kind == "node_nbr" and payload["degree"] != state["nbr_degree"]:
            return [f"degree {payload['degree']} != {state['nbr_degree']}"]
        if kind == "estimate" and payload != state["warm_payload"]:
            return ["warm estimate differs from its cold result"]
        if kind == "edge_new" and payload["fingerprint"] != state["edited"]:
            return ["edge_new produced an unexpected graph"]
        if kind == "edge_rmv" and (
            payload["fingerprint"] != state[EDIT_GRAPH]
            or payload["m"] != state[EDIT_GRAPH + ":m"]
        ):
            return ["edge_rmv did not restore the graph"]
        return []
