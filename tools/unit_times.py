"""Median in-process time of one benchmark unit per workload, every cache cold.

    python3 tools/unit_times.py [--seed 1] [--units 10] [workload ...]

Runs the workloads of perfbench/workloads.py (all four by default) on
units 0..units-1 of the seed, in this process, through perfbench's own
run.run_unit, so a unit is timed and checked exactly as the harness does
it.  perfbench/ is only imported, and no bytecode is written there.
Before every run the lru cache of each function in the heatode modules is
cleared (jets.hierarchy_ode, jets._pole_det, systems._compiled,
algebra.unpack); run_unit then makes the unit's inputs, clears its own
two caches and collects garbage, so a unit pays for nearly everything a
fresh process would (making exact-series inputs decodes a few monomial
keys).  A unit's time is the fastest of REPEATS runs; per workload the
median over the units prints in ms and in cal: wall time over
perfbench's calibration kernel, timed just before and after the run, as
perfbench scales wall_cal.
"""

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True

import heatode  # noqa: E402
import run  # noqa: E402  (perfbench/, found through the path above)
from workloads import WORKLOADS  # noqa: E402

REPEATS = 3


def package_caches() -> dict:
    """Every lru-cached function of the heatode modules, by dotted name."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "heatode" or name.startswith("heatode."):
            for attr, value in vars(module).items():
                if callable(getattr(value, "cache_clear", None)) and value not in found.values():
                    found[f"{name.removeprefix('heatode.')}.{attr}"] = value
    return found


def timed_unit(workload, seed: int, index: int, caches) -> tuple[float, float]:
    """(wall seconds, cal) of one cold run of unit `index`."""
    for cached in caches:
        cached.cache_clear()
    record, _, _ = run.run_unit(workload, seed, index)
    if not record.ok:
        raise SystemExit(f"{workload.name} failed unit {index} of seed {seed}")
    return record.wall_s, record.wall_s / record.cal_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        help=f"any of {', '.join(WORKLOADS)} (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--units", type=int, default=10)
    args = parser.parse_args(argv)
    if args.units < 1:
        parser.error("--units must be at least 1")
    if unknown := [name for name in args.workloads if name not in WORKLOADS]:
        parser.error(f"unknown workload {', '.join(unknown)}")
    caches = package_caches()
    print(f"heatode from {Path(heatode.__file__).parent}; cleared before each run: "
          + ", ".join(caches))
    for name in args.workloads or WORKLOADS:
        workload = WORKLOADS[name]
        best = [min((timed_unit(workload, args.seed, index, caches.values())
                     for _ in range(REPEATS)), key=lambda unit: unit[0])
                for index in range(args.units)]
        ms = statistics.median(wall for wall, _ in best) * 1e3
        cal = statistics.median(cal for _, cal in best)
        print(f"{name:<14} {ms:9.2f} ms {cal:8.4f} cal  "
              f"(median of {args.units} units, seed {args.seed}, best of {REPEATS})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
