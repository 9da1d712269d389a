"""Shared pieces of the benchmark: paths, statistics, caches, checks.

Nothing here imports ``repro`` at import time; ``run.py`` puts ``src/`` on the path
before any workload module is loaded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Exact baselines, determinism records and span dumps (git-ignored).
CACHE = HERE / ".cache"

#: The reported tail percentile has at least this many samples beyond it.
TAIL_BEYOND = 10
#: Kernel runs timed right before each set-up sample.
SETUP_KERNEL_RUNS = 3
PROBE_TIMEOUT_S = 120.0


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src/`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def whole_cycles(units: float, cycle_len: int) -> int:
    """The work-list length closest to ``units`` that is a whole number
    (at least three) of cycles."""
    return max(3, round(units / cycle_len)) * cycle_len


def cycle_sums(latencies_ms: Sequence[float], cycle_len: int) -> List[float]:
    """Seconds of timed work in each whole cycle of a closed loop."""
    return [
        sum(latencies_ms[i:i + cycle_len]) / 1000.0
        for i in range(0, len(latencies_ms) - cycle_len + 1, cycle_len)
    ]


def request_seeds(seed: int, salt: str, count: int) -> List[int]:
    """``count`` per-request seeds drawn from the workload seed; a
    different ``salt`` gives a disjoint-purpose stream (warm-up vs
    timed), so no timed request repeats a warm-up one."""
    rand = random.Random(f"perfbench:{salt}:{seed}")
    return [rand.randrange(1, 2**31) for _ in range(count)]


# -- statistics ------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, sample count)``."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(workload: str) -> float:
    """One ``setup_s`` sample: wall seconds for a fresh interpreter to
    bring ``workload`` to ready (``probe.py``) and exit.

    The wait blocks in ``waitpid``: ``Popen.wait(timeout=...)`` polls
    with sleeps of up to 50 ms, which would round every sample up to
    that grid. A timer kills a probe that hangs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload],
        env=child_env(), cwd=str(ROOT), stdout=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        status = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    elapsed = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"set-up probe of {workload} exited with {status}")
    return elapsed


# -- host speed --------------------------------------------------------------

#: Seconds :meth:`HostSpeed.sample`'s kernel takes, run alone, at the
#: reference speed.
REFERENCE_KERNEL_S = 0.0095


class HostSpeed:
    """How fast the host runs right now, against a reference speed.

    A shared virtual machine drifts between speed regimes that last
    minutes: on a 2-vCPU x86 guest the same work list ran from 1x to
    2.5x its fastest time within half an hour, without steal time, and
    the two vCPUs could run at different speeds at the same moment. No
    work list is long enough to average that out. So between timed units (never inside one, and never while the
    program works in another process) a workload times a fixed
    pure-Python kernel that shares no code with the program, and
    :meth:`factor` scales the run's timings to the speed at which the
    kernel takes ``reference_s``. A change to the program moves the
    scaled timings exactly as much as the raw ones.
    """

    reference_s = REFERENCE_KERNEL_S

    def __init__(self) -> None:
        rand = random.Random("perfbench:kernel")
        self._adjacency = [
            [rand.randrange(4000) for _ in range(8)] for _ in range(4000)
        ]
        self.samples: List[float] = []

    def sample(self) -> None:
        """Time one run of the kernel: a BFS and a dict sort."""
        start = time.perf_counter()
        adjacency = self._adjacency
        seen = {0}
        frontier = [0]
        while frontier:
            reached = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        reached.append(v)
            frontier = reached
        table = {i: (i * 7919) % 1000 for i in range(10000)}
        sorted(table.items(), key=lambda item: item[1])
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference kernel time over the median measured one."""
        return self.reference_s / median(self.samples)


def scaled_setup(sample: Callable[[], float], count: int) -> Tuple[float, float]:
    """``setup_s``: the median of ``count`` set-up samples, each scaled
    to the reference host speed by kernel runs timed right before it.
    Returns ``(scaled, measured)`` medians."""
    speed = HostSpeed()
    scaled: List[float] = []
    measured: List[float] = []
    for _ in range(count):
        for _ in range(SETUP_KERNEL_RUNS):
            speed.sample()
        kernel = median(speed.samples[-SETUP_KERNEL_RUNS:])
        value = sample()
        measured.append(value)
        scaled.append(value * speed.reference_s / kernel)
    return median(scaled), median(measured)


# -- checks ------------------------------------------------------------------


@dataclass
class Checks:
    """Counts operations attempted and operations that failed a check."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def op(self, label: str, problems: List[str]) -> None:
        """Record one operation and whatever its checks found wrong."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")


@dataclass
class PassResult:
    """What one timed pass over the fixed work list measured."""

    latencies_ms: List[float]
    wall_s: float
    #: Seconds each whole cycle of the work list took, and its length.
    cycle_s: List[float]
    cycle_len: int
    peak_rss_mb: float
    checks: Checks
    #: Deterministic quantities: must repeat bit for bit under one seed.
    exact: Dict[str, float]
    #: Workload-specific end-to-end figures for the printed table:
    #: name → (value, unit).
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics (traced passes only): name → value.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Scales this pass's timings to the reference host speed.
    host_factor: float = 1.0
    #: Whether ``latencies_ms`` follow the host's compute speed and are
    #: scaled by ``host_factor`` (``requests_per_s`` always is).
    scale_latency: bool = True

    @property
    def requests_per_s(self) -> float:
        """Work units per second in the median cycle: a burst of load
        from outside slows a minority of cycles, not the median."""
        return self.cycle_len / median(self.cycle_s)


# -- caches kept under the benchmark's own directory -----------------------


def _write_json(path: Path, body) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(body, sort_keys=True), encoding="utf-8")
    os.replace(partial, path)


def exact_connectivity(spec: str) -> Tuple[int, int]:
    """Exact ``(κ, λ)`` of a graph spec via the repository's baselines
    (Even–Tarjan, Stoer–Wagner), computed once per spec and cached; the
    caller keeps this outside every timed region."""
    path = CACHE / "exact" / (hashlib.sha256(spec.encode()).hexdigest()[:16] + ".json")
    if path.is_file():
        body = json.loads(path.read_text(encoding="utf-8"))
        if body.get("spec") == spec:
            return body["kappa"], body["lambda"]
    from repro.api import GraphSession

    session = GraphSession(spec)
    kappa = session.exact_vertex_connectivity()
    lam = session.exact_edge_connectivity()
    _write_json(path, {"spec": spec, "kappa": kappa, "lambda": lam})
    return kappa, lam


def source_digest() -> str:
    """Hash of the program's and the benchmark's sources: determinism
    records are only comparable between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(
    workload: str, seed: int, seconds: int, section: str,
    values: Dict[str, float],
) -> Optional[str]:
    """Compare ``values`` with an earlier run of the same workload, seed,
    length and code; record them when there is none. Returns a
    description of the first mismatch, or ``None``."""
    path = CACHE / "determinism" / (
        f"{workload}-s{seed}-t{seconds}-{source_digest()}.json"
    )
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    earlier = recorded.get(section)
    if earlier is not None:
        for name in sorted(set(earlier) | set(values)):
            if earlier.get(name) != values.get(name):
                return (
                    f"{section} metric {name!r} was {earlier.get(name)!r} "
                    f"in an earlier run of this seed, now {values.get(name)!r}"
                )
        return None
    recorded[section] = values
    _write_json(path, recorded)
    return None
