"""End-to-end benchmark of the connectivity-decomposition system.

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run builds a fixed work list from
``--seed`` (sized so it takes about ``--seconds`` on a 2-core x86
host), runs one warm-up pass that is not measured, then one timed pass,
and checks every output. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs the same pass untraced and then again with spans
recorded around each layer's public functions (see ``tracing.py``),
reports the per-layer metrics, and reports the tracing overhead as the
traced pass's end-to-end figures minus the untraced pass's. Spans are
written to ``perfbench/.cache/traces/``.

Exact quantities (rounds, messages, quality ratios, per-layer counts)
must repeat bit for bit under one seed: a traced run compares its two
passes, and every run compares with earlier runs of the same seed and
code. A mismatch means the work list is not fixed; the run then exits
with status 3 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("query", "simulate", "serve")

#: Per-layer metrics that are counts or exact ratios: bit-equal per seed.
#: (The quality ratios and exact totals of ``PassResult.exact`` are
#: checked in every run, traced or not.)
EXACT_LAYERS = (
    "cds_packing.guesses",
    "cds_packing.guess_accept_ratio",
    "cds_packing.class_valid_ratio",
    "bridging.assign_layer_calls",
    "spanning_packing.mwu_iterations",
    "spanning_packing.capped_ratio",
    "simulator.rounds",
    "simulator.messages",
    "simulator.bits",
)


class NonDeterministic(Exception):
    """An exact metric differed between two runs of one seed."""


def _metric_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _end_to_end(result, factor: float) -> dict:
    """End-to-end figures of a pass, set-up aside; timings scaled by
    ``factor`` (1.0: as measured)."""
    from harness import median, tail

    latency = factor if result.scale_latency else 1.0
    return {
        "latency_ms.p50": median(result.latencies_ms) * latency,
        "latency_ms.tail": tail(result.latencies_ms)[0] * latency,
        "requests_per_s": result.requests_per_s / factor,
        "peak_rss_mb": result.peak_rss_mb,
    }


def _print_table(workload: str, label: str, result, setup=None) -> None:
    """Human-readable lines ahead of the JSON: every end-to-end figure
    of this workload by name and unit, as measured and at the reference
    host speed, with the tail's percentile and sample count. ``setup``
    is ``(at reference speed, measured)``; a traced run measures no
    set-up."""
    from harness import tail

    _, percentile, count = tail(result.latencies_ms)
    print(f"# {workload} {label}: latency_ms.tail is p{percentile:.0f} of "
          f"{count} samples; host speed factor {result.host_factor:.4f}")
    measured = _end_to_end(result, 1.0)
    scaled = _end_to_end(result, result.host_factor)
    units = dict(_metric_table()["end_to_end"])
    rows = {name: (measured[name], scaled[name]) for name in measured}
    if setup is not None:
        rows["setup_s"] = (setup[1], setup[0])
    for name, (value, unit) in result.report.items():
        rows[name] = (value, value)
        units[name] = unit
    failed = result.checks.failed / max(1, result.checks.attempted)
    rows["error_rate"] = (failed, failed)
    units["error_rate"] = "1"
    for name in sorted(rows):
        value, at_reference = rows[name]
        line = f"# {workload} {label} {name:24s} {value:14.6g} {units[name]}"
        if at_reference != value:
            line += f"  (at reference speed: {at_reference:.6g})"
        print(line)
    for message in result.checks.messages:
        print(f"# FAILED {message}", file=sys.stderr)


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    from harness import check_determinism, scaled_setup

    table = _metric_table()
    module = importlib.import_module(workload_name)
    workload = module.Workload(seed, seconds)
    workload.baselines()

    if not trace:
        setup = scaled_setup(workload.setup_sample, workload.setup_count)
        result = workload.run_pass()
        metrics = _end_to_end(result, result.host_factor)
        metrics["setup_s"] = setup[0]
        _print_table(workload_name, "untraced", result, setup)
        units = table["end_to_end"]
    else:
        from harness import CACHE
        from tracing import Tracer

        plain = workload.run_pass()
        tracer = Tracer()
        result = workload.run_pass(tracer)
        if result.exact != plain.exact:
            raise NonDeterministic(
                f"exact metrics differ between the untraced and the traced "
                f"pass: {plain.exact} vs {result.exact}"
            )
        if tracer.spans:
            tracer.dump(str(CACHE / "traces" / f"{workload_name}-s{seed}.json"))
        before = _end_to_end(plain, plain.host_factor)
        after = _end_to_end(result, result.host_factor)
        units = table["per_layer"]
        metrics = dict(result.layers)
        # The workload's own end-to-end figures that BENCHMARK.json also
        # lists per layer (quality ratios, exact counts).
        for name, (value, _) in result.report.items():
            if f"e2e.{name}" in units:
                metrics[f"e2e.{name}"] = value
        metrics["trace.overhead_p50_ms"] = (
            after["latency_ms.p50"] - before["latency_ms.p50"]
        )
        metrics["trace.overhead_wall_pct"] = 100.0 * (
            result.wall_s * result.host_factor
            / (plain.wall_s * plain.host_factor) - 1.0
        )
        metrics["host.speed_factor"] = result.host_factor
        _print_table(workload_name, "untraced", plain)
        _print_table(workload_name, "traced", result)
        exact_layers = {
            name: metrics[name] for name in EXACT_LAYERS if name in metrics
        }
        mismatch = check_determinism(
            workload_name, seed, seconds, "layers", exact_layers
        )
        if mismatch:
            raise NonDeterministic(mismatch)

    mismatch = check_determinism(
        workload_name, seed, seconds, "exact", result.exact
    )
    if mismatch:
        raise NonDeterministic(mismatch)
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    checks = result.checks
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        body = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except NonDeterministic as exc:
        print(f"perfbench: NON-DETERMINISTIC WORK LIST: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(body, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
