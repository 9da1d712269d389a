"""Machine-readable benchmark driver for the repo's hot paths.

Three suites, each timing a rewrite against its preserved reference
implementation and writing a JSON file at the repo root (the perf
trajectory: future PRs append runs and regressions become diffable
numbers instead of anecdotes):

* ``spanning`` — the kernel-backed
  :func:`fractional_spanning_tree_packing` vs the pre-kernel
  implementation (:mod:`repro.core.spanning_packing_reference`), with
  packings asserted identical → ``BENCH_spanning_packing.json``.
  Acceptance gate: ≥ 5× at n≈500. Its ``lambda`` rows time the kernel
  ``λ`` (:func:`repro.fastgraph.edge_connectivity`) against the
  networkx oracle on the graphs of perfbench's ``query`` workload,
  values asserted equal.
* ``simulator`` — the indexed round-loop engine vs the preserved
  reference loop (:mod:`repro.simulator.runner_reference`) on flooding
  and shared-MST workloads, outputs asserted identical →
  ``BENCH_simulator.json`` (see :mod:`bench_simulator`). Acceptance
  gate: ≥ 2× rounds/sec on flooding at n = 1000.
* ``cds_packing`` — the kernel-backed CDS / dominating-tree packing vs
  the pre-kernel loop (:mod:`repro.core.cds_packing_reference`),
  packings asserted bit-identical → ``BENCH_cds_packing.json`` (see
  :mod:`bench_cds_packing`). Acceptance gate: ≥ 1.5× at n = 500.
* ``api`` — the session-cached estimate→pack→broadcast pipeline
  (:class:`repro.api.GraphSession`) vs the per-call free-function path,
  outputs asserted identical → ``BENCH_api.json`` (see
  :mod:`bench_api`). Acceptance gate: cached beats per-call on every
  full-size row.
* ``resilience`` — corruption sweep of the uncoded flood vs the coded
  defenses (:mod:`repro.apps.coded`) under the adversary layer →
  ``BENCH_resilience.json`` (see :mod:`bench_resilience`). Acceptance
  gate: at the reference corruption rate the uncoded flood measurably
  fails while both coded variants hold ≥ 0.99 coverage with zero wrong
  answers.
* ``service`` — the warm ``repro serve`` core vs cold per-call
  sessions, plus incremental vs from-scratch re-canonicalization per
  edit → ``BENCH_service.json`` (see :mod:`bench_service`). Acceptance
  gate: warm beats cold on every full-size row; both edit paths end
  bit-identical.
* ``batch`` — batch scheduler jobs/sec across backend × worker plans on
  a single-graph matrix → ``BENCH_batch.json`` (see :mod:`bench_batch`).
  Acceptance gate: every backend byte-identical to serial; the
  single-graph matrix splits into ≥ 2 chunks under the process plane.

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_benchmarks.py                 # all
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick         # CI-sized
    PYTHONPATH=src python benchmarks/run_benchmarks.py --suite cds_packing
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time
from typing import Callable, Dict, List

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _cases(quick: bool):
    # All cases must stay in the single-Karger-part regime (η = 1, i.e.
    # λ well below 60·ln n/ε²): with η > 1 the kernel intentionally
    # sizes parts from λ/η while the reference re-runs the connectivity
    # oracle per part, so the exact-size equality gate below only holds
    # for η = 1. The η > 1 path is covered by tests/test_fastgraph.py.
    from repro.graphs.generators import harary_graph, random_regular_connected

    if quick:
        return [
            ("harary(6,48)", lambda: harary_graph(6, 48), 6),
            ("regular(8,100)", lambda: random_regular_connected(8, 100, rng=3), 8),
        ]
    return [
        ("harary(6,120)", lambda: harary_graph(6, 120), 6),
        ("regular(8,250)", lambda: random_regular_connected(8, 250, rng=3), 8),
        ("regular(8,500)", lambda: random_regular_connected(8, 500, rng=3), 8),
    ]


def _best_of(fn: Callable[[], object], repeats: int) -> tuple:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


#: The graphs of perfbench's ``query`` cycle, where every spanning
#: packing a user asks for pays one λ computation.
QUERY_SPECS = (
    "torus:12,12",
    "hypercube:7",
    "regular:10,160,7",
    "clique_chain:8,16",
    "harary:8,200",
    "harary:12,48",
)


def lambda_rows(specs, repeats: int) -> List[Dict]:
    """Kernel λ vs the networkx oracle per graph spec, values asserted
    equal. The kernel runs on a prebuilt index, as its callers hold one."""
    from repro.api.specs import parse_graph_spec
    from repro.fastgraph import IndexedGraph, edge_connectivity
    from repro.graphs.connectivity import edge_connectivity as nx_oracle

    rows: List[Dict] = []
    for spec in specs:
        graph = parse_graph_spec(spec)
        indexed = IndexedGraph.from_networkx(graph)
        kernel_s, kernel_lam = _best_of(
            lambda: edge_connectivity(indexed), repeats
        )
        networkx_s, networkx_lam = _best_of(lambda: nx_oracle(graph), repeats)
        if kernel_lam != networkx_lam:
            raise AssertionError(
                f"{spec}: kernel λ {kernel_lam} != networkx λ {networkx_lam}"
            )
        rows.append(
            {
                "graph": spec,
                "n": indexed.n,
                "m": indexed.m,
                "lam": kernel_lam,
                "networkx_s": round(networkx_s, 6),
                "kernel_s": round(kernel_s, 6),
                "speedup": round(networkx_s / kernel_s, 2),
            }
        )
    return rows


def run(quick: bool = False, repeats: int = 3, seed: int = 9) -> Dict:
    from repro.core.spanning_packing import (
        MwuParameters,
        fractional_spanning_tree_packing,
    )
    from repro.core.spanning_packing_reference import (
        fractional_spanning_tree_packing_reference,
    )

    params = MwuParameters(epsilon=0.15, beta_factor=1.0)
    rows: List[Dict] = []
    for name, builder, lam in _cases(quick):
        graph = builder()
        kernel_s, kernel_result = _best_of(
            lambda: fractional_spanning_tree_packing(
                graph, lam=lam, params=params, rng=seed
            ),
            repeats,
        )
        reference_s, reference_result = _best_of(
            lambda: fractional_spanning_tree_packing_reference(
                graph, lam=lam, params=params, rng=seed
            ),
            max(1, repeats - 1),
        )
        if kernel_result.size != reference_result.size:
            raise AssertionError(
                f"{name}: kernel size {kernel_result.size} != "
                f"reference size {reference_result.size}"
            )
        rows.append(
            {
                "graph": name,
                "n": graph.number_of_nodes(),
                "m": graph.number_of_edges(),
                "lam": lam,
                "seed": seed,
                "mwu_iterations": max(
                    t.iterations for t in kernel_result.traces
                ),
                "packing_size": kernel_result.size,
                "efficiency": kernel_result.efficiency,
                "reference_s": round(reference_s, 6),
                "kernel_s": round(kernel_s, 6),
                "speedup": round(reference_s / kernel_s, 2),
            }
        )
    return {
        "benchmark": "spanning_packing",
        "unit": "seconds (best of repeats, wall clock)",
        "repeats": repeats,
        "params": {"epsilon": 0.15, "beta_factor": 1.0},
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
        "lambda": lambda_rows(QUERY_SPECS, repeats),
    }


def _run_spanning(args) -> None:
    repeats = args.repeats if args.repeats is not None else 3
    seed = args.seed if args.seed is not None else 9
    report = run(quick=args.quick, repeats=repeats, seed=seed)
    out = args.out or REPO_ROOT / "BENCH_spanning_packing.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for row in report["results"]:
        print(
            "{graph:>16}  n={n:<4} m={m:<5} ref={reference_s:.3f}s "
            "kernel={kernel_s:.3f}s speedup={speedup}x size={packing_size:.3f}".format(
                **row
            )
        )
    for row in report["lambda"]:
        print(
            "{graph:>16}  n={n:<4} m={m:<5} λ={lam:<3} "
            "networkx={networkx_s:.4f}s kernel={kernel_s:.4f}s "
            "speedup={speedup}x".format(**row)
        )
    print(f"wrote {out}")


def _forwarded_args(args, suite: str):
    """CLI flags forwarded to a sub-benchmark's own ``main``; unset ones
    fall back to that module's defaults (which differ per suite)."""
    forwarded = ["--quick"] if args.quick else []
    if args.repeats is not None:
        forwarded += ["--repeats", str(args.repeats)]
    if args.seed is not None:
        forwarded += ["--seed", str(args.seed)]
    if args.out is not None and args.suite == suite:
        forwarded += ["--out", str(args.out)]
    return forwarded


def _run_simulator(args) -> None:
    try:
        import bench_simulator
    except ImportError:  # running as a module from the repo root
        from benchmarks import bench_simulator
    forwarded = _forwarded_args(args, "simulator")
    if args.engines is not None:
        forwarded += ["--engines", args.engines]
    bench_simulator.main(forwarded)


def _run_cds(args) -> None:
    try:
        import bench_cds_packing
    except ImportError:  # running as a module from the repo root
        from benchmarks import bench_cds_packing
    bench_cds_packing.main(_forwarded_args(args, "cds_packing"))


def _run_api(args) -> None:
    try:
        import bench_api
    except ImportError:  # running as a module from the repo root
        from benchmarks import bench_api
    bench_api.main(_forwarded_args(args, "api"))


def _run_resilience(args) -> None:
    try:
        import bench_resilience
    except ImportError:  # running as a module from the repo root
        from benchmarks import bench_resilience
    # bench_resilience measures correctness fractions, not timings, so
    # it takes no --repeats flag; forward only what it understands.
    forwarded = ["--quick"] if args.quick else []
    if args.seed is not None:
        forwarded += ["--seed", str(args.seed)]
    if args.out is not None and args.suite == "resilience":
        forwarded += ["--out", str(args.out)]
    bench_resilience.main(forwarded)


def _run_service(args) -> None:
    try:
        import bench_service
    except ImportError:  # running as a module from the repo root
        from benchmarks import bench_service
    bench_service.main(_forwarded_args(args, "service"))


def _run_batch(args) -> None:
    try:
        import bench_batch
    except ImportError:  # running as a module from the repo root
        from benchmarks import bench_batch
    bench_batch.main(_forwarded_args(args, "batch"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small graphs (CI-sized run)"
    )
    parser.add_argument(
        "--suite",
        choices=[
            "all", "spanning", "simulator", "cds_packing", "api",
            "resilience", "service", "batch",
        ],
        default="all",
        help="which benchmark suite(s) to run",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats (default: 3 spanning/cds_packing / 10 simulator)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed (default: 9 spanning/cds_packing / 3 simulator)",
    )
    parser.add_argument(
        "--engines", type=str, default=None,
        help="comma-separated engine filter for the simulator suite "
        "(e.g. 'indexed,vectorized'); typos fail with the engine "
        "registry's listing",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="output JSON path for a single suite (default: repo root)",
    )
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.suite in ("all", "spanning"):
        _run_spanning(args)
    if args.suite in ("all", "simulator"):
        _run_simulator(args)
    if args.suite in ("all", "cds_packing"):
        _run_cds(args)
    if args.suite in ("all", "api"):
        _run_api(args)
    if args.suite in ("all", "resilience"):
        _run_resilience(args)
    if args.suite in ("all", "service"):
        _run_service(args)
    if args.suite in ("all", "batch"):
        _run_batch(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
