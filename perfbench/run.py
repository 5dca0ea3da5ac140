"""heatode benchmark: one closed-loop client running one workload for a fixed time.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

One unit of work is in flight at a time, from this single process, and
each unit starts from cold module caches.  Each unit's output is checked
after its timer stops; a unit that raises or fails its check counts as
failed and its time is never used.

--trace 0 prints the end-to-end metrics: setup_s and setup_raw_s (median
over fresh interpreters, scaled to the reference machine speed and as
measured), wall_s.p50 and wall_s.tail (unit wall time), wall_cal.p50 and
wall_cal.tail (unit wall time over the calibration kernel timed next to
it, see calibration.py), peak_rss_mb and failed_ratio.  --trace 1
first times the fixed-size scaling probes, then, for the rest of
--seconds, alternates untraced and traced runs of the same unit inputs;
it prints the per-layer metrics, the probes and the tracing overhead,
and writes every span.  The last stdout line is one JSON object with the
metrics BENCHMARK.json declares; the full report goes to
perfbench/results/.  The exit code is 1 when any output check fails and
2 when the checkout holds no heatode source.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import calibration
import checkout

SETUP_REPEATS = 3
TAIL_BEYOND = 10
# Printed and recorded, but not bounded in BENCHMARK.json: raw wall time
# moves by up to half between runs on a shared VM (see NOTES.md).
REPORT_ONLY = ("setup_raw_s", "wall_s.p50", "wall_s.tail", "cal_s.p50")


@dataclass
class UnitRecord:
    index: int
    wall_s: float
    cal_s: float          # mean calibration kernel time just before and after the unit
    ok: bool
    traced: bool
    peak_rss_mb: float


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_unit(workload, seed: int, index: int, tracer=None):
    """Run and check one unit; returns (record, inputs, output)."""
    from workloads import cold_caches
    inputs = workload.make_input(seed, index)
    cold_caches()
    gc.collect()
    output = error = None
    before = calibration.kernel_seconds()
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(inputs)
        else:
            output = tracer.run_unit(index, workload.run, inputs)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    cal = (before + calibration.kernel_seconds()) / 2
    ok = False
    if error is None:
        try:
            ok = bool(workload.check(inputs, output))
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(error, file=sys.stderr)
    if not ok:
        print(f"unit {index} of {workload.name} failed its check", file=sys.stderr)
    return UnitRecord(index, wall, cal, ok, tracer is not None, peak_rss_mb()), inputs, output


def closed_loop(workload, seed: int, seconds: float, tracer=None) -> list[tuple]:
    """Units back to back until `seconds` have passed (at least one unit).

    With a tracer, each unit index runs twice: untraced, then traced, on
    the same inputs, so the tracing overhead is a paired difference.
    """
    results = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        results.append(run_unit(workload, seed, index))
        if tracer is not None:
            results.append(run_unit(workload, seed, index, tracer))
        index += 1
    return results


def tail(walls: list[float]) -> tuple[float, float, int]:
    """The highest-ranked sample with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  The percentile of rank
    k among n sorted samples is 100 k / (n - 1).  With fewer than
    TAIL_BEYOND + 1 samples no rank qualifies and the minimum is
    returned, with the (smaller) number of samples beyond it.
    """
    ordered = sorted(walls)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    pct = 100 * k / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return ordered[k], pct, len(ordered) - k - 1


def unit_metrics(records: list[UnitRecord]) -> tuple[dict, dict]:
    """Unit-time metrics over the units that passed; failed units are never timed."""
    passed = [r for r in records if r.ok]
    if not passed:
        return {}, {}
    out = {}
    for prefix, unit, values in (("wall_s", "s", [r.wall_s for r in passed]),
                                 ("wall_cal", "cal", [r.wall_s / r.cal_s for r in passed])):
        value, pct, beyond = tail(values)
        out[f"{prefix}.p50"] = (statistics.median(values), unit)
        out[f"{prefix}.tail"] = (value, unit)
    out["cal_s.p50"] = (statistics.median(r.cal_s for r in passed), "s")
    return out, {"tail_percentile": pct, "tail_beyond": beyond}


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list[UnitRecord], dict]:
    from probes import setup_seconds
    raw, cal = [], []
    for _ in range(SETUP_REPEATS):
        before = calibration.kernel_seconds()
        raw.append(setup_seconds(workload.name, seed))
        cal.append((before + calibration.kernel_seconds()) / 2)
    scaled = [s * calibration.REFERENCE_S / c for s, c in zip(raw, cal)]
    records = [r for r, _, _ in closed_loop(workload, seed, seconds)]
    units, detail = unit_metrics(records)
    metrics = {"setup_s": (statistics.median(scaled), "s"),
               "setup_raw_s": (statistics.median(raw), "s"), **units,
               "peak_rss_mb": (max(r.peak_rss_mb for r in records), "MB")}
    return metrics, records, {"setup_raw_s_samples": raw, "setup_cal_s_samples": cal, **detail}


def traced(workload, seed: int, seconds: float) -> tuple[dict, list[UnitRecord], dict, object]:
    from probes import scaling_probes
    from tracer import Tracer, layer_metrics
    start = time.perf_counter()
    probe_metrics, probe_failures = scaling_probes()
    tracer = Tracer()
    tracer.attach()
    try:
        results = closed_loop(workload, seed, seconds - (time.perf_counter() - start), tracer)
    finally:
        tracer.detach()
    records = [r for r, _, _ in results]
    metrics = layer_metrics(tracer.units)
    errors = [workload.ref_error(i, o) for r, i, o in results
              if r.traced and r.ok and workload.ref_error is not None]
    metrics["systems.integrate_rk4.ref_error"] = (max(errors, default=0.0), "ratio")
    pairs = [(a.wall_s, b.wall_s) for a, b in zip(records[::2], records[1::2]) if a.ok and b.ok]
    metrics["trace.overhead_s"] = (statistics.median(b - a for a, b in pairs) if pairs else 0.0, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(b / a - 1 for a, b in pairs) if pairs else 0.0, "ratio")
    metrics.update(probe_metrics)
    detail = {"probe_failures": probe_failures,
              "functions": tracer.function_totals(),
              "spans": len(tracer.spans),
              "dropped_spans": tracer.dropped_spans}
    return metrics, records, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="heatode benchmark (closed loop, one client)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        checkout.use_checkout_source()
    except (checkout.MissingSource, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        metrics, records, detail, tracer = traced(workload, args.seed, args.seconds)
    else:
        metrics, records, detail = end_to_end(workload, args.seed, args.seconds)
    attempted = len(records)
    failed = sum(not r.ok for r in records)
    correct = failed == 0 and not detail.get("probe_failures")

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {attempted} units attempted, {failed} failed")
    successes = attempted - failed
    for name, (value, unit) in metrics.items():
        note = ""
        if name.endswith(".p50"):
            note = f"(n={successes})"
        elif name.endswith(".tail"):
            note = (f"(p{detail['tail_percentile']:.0f}, {detail['tail_beyond']} units beyond, "
                    f"n={successes})")
        elif name.startswith("setup_"):
            note = f"(median of {SETUP_REPEATS} fresh interpreters)"
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_ratio':<40} {failed / attempted:>14.6g} {'ratio':<6} ({failed}/{attempted})")

    checkout.RESULTS.mkdir(exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "units": [asdict(r) for r in records], **detail,
        "python": sys.version.split()[0], "machine": platform.machine(),
    }
    (checkout.RESULTS / f"{label}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(checkout.RESULTS / f"{label}-spans.jsonl")

    declared = {k: v for k, v in report["metrics"].items() if k not in REPORT_ONLY}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": declared}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
