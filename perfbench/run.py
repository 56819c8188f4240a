"""Repo benchmark: host-time throughput of the simulator on three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload service-stream --seed 0 --seconds 25 --trace 0

The run sets the workload up several times (reporting the median as
``setup_s``), repeats the workload's fixed unit of operations until
``--seconds`` have passed, checks every operation's simulated result
against the scalar oracle, and prints a human-readable report followed by
one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (host time, tracing
off, scaled to a reference host speed timed in the same run; the report
also prints the unscaled ``.wall`` values).  With ``--trace 1`` untraced and traced units alternate; the metrics
are the per-layer ones from the spans of the traced units, and the spans
are written to ``perfbench/out/``.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import REFERENCE_S, reference_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
ORACLE = HERE / "oracle.json"

#: The seed whose scalar-oracle digests are committed in oracle.json.
DEFAULT_SEED = 0
#: Cold set-ups before the timed phase; one more follows every unit, and
#: ``setup_s`` is the median of them all.
SETUP_REPEATS = 7
#: Reference-loop passes after every set-up (a *mark*).
REFERENCE_REPEATS = 5
WORKLOAD_NAMES = ("service-stream", "sched-overload", "campaign-sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_suite():
    """Put the checkout's ``src`` on the path and import the workloads."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import suite

    return suite


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def reference_mark() -> list[float]:
    """Host seconds of ``REFERENCE_REPEATS`` passes of the reference loop."""
    return [reference_time() for _ in range(REFERENCE_REPEATS)]


def quantiles(values):
    """(p50, p90) by ``statistics.quantiles``; one sample is both."""
    if len(values) < 2:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10)
    return statistics.median(values), cuts[8]


def reference_digests(workload, seed):
    """Committed scalar-oracle digests for the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    with open(ORACLE, "r", encoding="utf-8") as handle:
        return json.load(handle).get(workload)


def check(units, reference, prefix_pairs):
    """Count operations and failures over every unit and the oracle check.

    An operation fails when it raised, when its digest differs from the
    oracle digest (default seed) or from the first unit's digest of the
    same operation (any seed), or when a prefix replay disagrees with the
    scalar oracle (non-default seeds)."""
    first = [op.digest for op in units[0].ops + units[0].checks]
    attempted = failed = 0
    problems = []
    if reference is not None and len(reference) != len(units[0].ops):
        problems.append(f"oracle has {len(reference)} digests for {len(units[0].ops)} ops")
        reference = ["missing"]
    for number, unit in enumerate(units):
        for index, op in enumerate(unit.ops + unit.checks):
            attempted += 1
            expected = reference[index % len(reference)] if reference else first[index]
            if op.error is not None or op.digest is None or op.digest != expected:
                failed += 1
                problems.append(f"unit {number} op {index} ({op.kind}): "
                                f"{op.error or 'digest ' + str(op.digest) + ' != ' + str(expected)}")
    for label, fast, scalar in prefix_pairs:
        attempted += 1
        if fast != scalar:
            failed += 1
            problems.append(f"prefix {label}: fast {fast} != scalar {scalar}")
    return attempted, failed, problems


def timed_figures(workload, units, setups, unit_slowdown, setup_slowdown):
    """Timed end-to-end figures with every host time divided by the
    slowdown of the unit or set-up it belongs to (1.0: wall-clock)."""
    ops = [op.seconds / slow for unit, slow in zip(units, unit_slowdown) for op in unit.ops]
    p50, _ = quantiles(ops)
    # The tail is taken per unit and the median over units reported: a
    # host stall that slows a few operations of one unit does not set it.
    p90 = statistics.median(
        quantiles([op.seconds / slow for op in unit.ops])[1]
        for unit, slow in zip(units, unit_slowdown))
    figures = {
        # Median over units: a unit hit by the host descheduling the
        # process does not drag the figure down.
        "host_rps": (statistics.median(
            u.requests * slow / u.wall_s for u, slow in zip(units, unit_slowdown)), "req/s"),
        "op_s_p50": (p50, "s"),
        "op_s_p90": (p90, "s"),
        "setup_s": (statistics.median(t / slow for t, slow in zip(setups, setup_slowdown)), "s"),
    }
    # Workload-specific views, printed in the report only.
    if workload.name == "sched-overload":
        for policy in ("fcfs", "sstf", "sptf", "clook", "traxtent"):
            mine = [(op, slow) for u, slow in zip(units, unit_slowdown)
                    for op in u.ops if op.kind == policy]
            figures[f"host_rps.{policy}"] = (
                sum(op.requests for op, _ in mine) / sum(op.seconds / slow for op, slow in mine),
                "req/s")
    if workload.name == "campaign-sweep":
        figures["sweep_points_per_s"] = (
            sum(len(u.ops) for u in units)
            / sum(u.wall_s / slow for u, slow in zip(units, unit_slowdown)), "points/s")
        figures["resume_s"] = (statistics.median(
            u.info["resume_s"] / slow for u, slow in zip(units, unit_slowdown)), "s")
    return figures


def end_to_end(workload, units, setups, marks):
    """``marks[k]`` is the reference mark taken right after set-up ``k``;
    unit ``i`` runs between the marks of the set-ups before and after it,
    unless its own workers timed the loop beside its work
    (``info["reference"]``, campaign points)."""
    setup_slowdown = [statistics.median(mark) / REFERENCE_S for mark in marks]
    first = SETUP_REPEATS - 1
    unit_slowdown = [
        statistics.median(u.info.get("reference") or marks[first + i] + marks[first + i + 1])
        / REFERENCE_S
        for i, u in enumerate(units)
    ]
    scaled = timed_figures(workload, units, setups, unit_slowdown, setup_slowdown)
    wall = timed_figures(workload, units, setups, [1.0] * len(units), [1.0] * len(setups))
    gated = ("host_rps", "op_s_p50", "op_s_p90", "setup_s")
    metrics = {name: scaled[name] for name in gated}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    extras = {name: value for name, value in scaled.items() if name not in gated}
    extras["op_samples"] = (float(sum(len(u.ops) for u in units)), "count")
    extras["reference_slowdown"] = (statistics.median(unit_slowdown), "ratio")
    extras.update({f"{name}.wall": value for name, value in wall.items()})
    return metrics, extras


def per_layer(suite, workload, rec, traced, untraced, setup_spans, warm_spans):
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    metrics = {name: 0.0 for name in declared}
    metrics["factory.build_fleet_s"] = statistics.median(setup_spans)
    metrics["factory.build_fleet_warm_s"] = statistics.median(warm_spans)
    metrics.update(suite.path_counts(p for u in traced for p in u.info["paths"]))
    for key in [k for k in metrics if k.startswith("engine.path.")]:
        metrics[key] /= len(traced)
    metrics.update(workload.layer_metrics(rec, traced))
    units = rec.named("unit")
    metrics["trace.unattributed_s"] = statistics.mean(rec.self_time(s) for s in units)
    metrics["trace.overhead_ratio"] = (
        statistics.median(u.wall_s for u in traced) / statistics.median(u.wall_s for u in untraced)
    )
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics {unknown}")
    return {name: (value, declared[name]) for name, value in metrics.items()}


def measure(suite, args) -> None:
    from spans import SpanRecorder

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = suite.make(args.workload, args.seed, OUT_DIR)
    rec = SpanRecorder(run_id, enabled=bool(args.trace))
    off = SpanRecorder(run_id, enabled=False)

    setup_times, marks, build_spans, warm_spans = [], [], [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setup_times.append(workload.setup())
        marks.append(reference_mark())
    if args.trace:
        # Cold and warm fleet builds of the workload's own fleet config.
        for _ in range(SETUP_REPEATS):
            build_spans.append(suite.time_fleet_builds(rec, workload.FLEETS, cold=True))
            warm_spans.append(suite.time_fleet_builds(rec, workload.FLEETS, cold=False))
        workload.setup()

    units, traced = [], []
    start = time.perf_counter()
    while True:
        units.append(workload.unit(off))
        if args.trace:
            with rec.span("unit"):
                traced.append(workload.unit(rec))
        # One more cold set-up after every unit spreads the set-up samples
        # over the whole run, as the unit samples are.
        gc.collect()
        setup_times.append(workload.setup())
        marks.append(reference_mark())
        # Stop when one more unit would end nearer the deadline's far side.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(units) / 2 >= args.seconds:
            break

    reference = reference_digests(args.workload, args.seed)
    prefix_pairs = [] if reference else workload.prefix_pairs()
    attempted, failed, problems = check(units + traced, reference, prefix_pairs)
    suite.reap_children()

    if args.trace:
        metrics = per_layer(suite, workload, rec, traced, units, build_spans, warm_spans)
        extras = {}
        rec.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics, extras = end_to_end(workload, units, setup_times, marks)
    extras["failed_fraction"] = (failed / attempted, "ratio")

    print(f"workload {args.workload}  seed {args.seed}  units {len(units)}"
          f"{'  traced units ' + str(len(traced)) if traced else ''}"
          f"  oracle {'committed digests' if reference else 'scalar prefix replay'}")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    suite = import_suite()
    try:
        measure(suite, args)
    finally:
        # On every way out, no worker or helper process outlives the run.
        suite.stop_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())
