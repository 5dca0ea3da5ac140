"""Fixed-size probes: fresh-interpreter start-up and the scaling curves.

Each probe times one heatode call at a stated size with the tracer
detached and module caches cold, then checks the call's output outside
the timed region.  A probe returns (metrics, failures): metrics map a
name to (value, unit); failures name the probes whose check failed.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

from heatode import jets, series, systems
from heatode.algebra import Q, closing_monomials
from heatode.systems import SystemSpec, SystemState

from checkout import BENCH, ROOT, SRC
import workloads

Metrics = dict[str, tuple[float, str]]

SUBPROCESS_TIMEOUT_S = 60
MATCH_LEVELS = range(6, 17, 2)
SERIES_LEVEL = 6
SERIES_KS = range(12, 33, 4)
EXACT_STEPS = range(1, 5)
# The README's level-2 `integrate` example in exact arithmetic.
EXACT_STATE = (Q(0), Q(0), Q(1, 4), (Q(1, 5), Q(-3, 20)))
EXACT_STEP = Q(1, 10)


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter to first unit ready: import heatode, build unit 0's inputs."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import checkout\n"
        "checkout.use_checkout_source()\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{workload!r}].make_input({seed}, 0)\n"
        "print(time.monotonic())\n"
    )
    start = time.monotonic()
    ready = float(_python(code).stdout.split()[-1])
    return ready - start


def _process_seconds(code: str) -> tuple[float, str]:
    start = time.perf_counter()
    out = _python(code)
    return time.perf_counter() - start, out.stdout


def cli_probes(repeats: int = 3) -> tuple[Metrics, list[str]]:
    """Whole-process wall time of `import heatode` and `heatode ode basis --n 4`."""
    prefix = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
    imports, basis, failures = [], [], []
    for _ in range(repeats):
        imports.append(_process_seconds(prefix + "import heatode\n")[0])
        wall, text = _process_seconds(
            prefix + "from heatode.cli import main\nsys.exit(main(['ode', 'basis', '--n', '4']))\n")
        basis.append(wall)
        if "dim = 3" not in text or not all(name in text for name in ("c62", "c63", "c64")):
            failures.append("cli.ode_basis")
    return ({"cli.import_s": (statistics.median(imports), "s"),
             "cli.ode_basis_s": (statistics.median(basis), "s")}, failures)


def match_probes() -> tuple[Metrics, list[str]]:
    """match_pole_ode(n) from cold caches, with the size and solve time of its linear system."""
    metrics: Metrics = {}
    failures = []
    sizes: list[tuple[int, int, float]] = []
    solve = jets.solve_linear

    def sized_solve(rows, rhs):
        start = time.perf_counter()
        result = solve(rows, rhs)
        sizes.append((len(rows), len(rows[0]) if rows else 0, time.perf_counter() - start))
        return result

    jets.solve_linear = sized_solve
    try:
        for n in MATCH_LEVELS:
            workloads.cold_caches()
            sizes.clear()
            start = time.perf_counter()
            match = jets.match_pole_ode(n)
            metrics[f"jets.match_pole_ode.n{n:02d}_s"] = (time.perf_counter() - start, "s")
            rows, cols, solve_s = sizes[0] if sizes else (0, 0, 0.0)
            metrics[f"jets.match_pole_ode.n{n:02d}_rows"] = (rows, "count")
            metrics[f"jets.match_pole_ode.n{n:02d}_cols"] = (cols, "count")
            metrics[f"jets.match_pole_ode.n{n:02d}_solve_s"] = (solve_s, "s")
            if not match.matched or cols != len(closing_monomials(n)):
                failures.append(f"jets.match_pole_ode.n{n:02d}")
    finally:
        jets.solve_linear = solve
    return metrics, failures


def series_probes() -> tuple[Metrics, list[str]]:
    """ansatz_series and coeff_table at level 6 for growing truncation K."""
    metrics: Metrics = {}
    failures = []
    closing = workloads.closing(SERIES_LEVEL, range(1, len(closing_monomials(SERIES_LEVEL)) + 1))
    c = series.default_c(0)
    for K in SERIES_KS:
        start = time.perf_counter()
        poly_route = series.ansatz_series(SERIES_LEVEL, closing, c, 0, K)
        mid = time.perf_counter()
        table = series.coeff_table(SERIES_LEVEL, closing, c, 0, K)
        end = time.perf_counter()
        metrics[f"series.ansatz_series.K{K}_s"] = (mid - start, "s")
        metrics[f"series.coeff_table.K{K}_s"] = (end - mid, "s")
        table_route = series.series_from_table(table)
        if any(poly_route.coeff(k) != table_route.coeff(k) for k in range(2, K + 1)):
            failures.append(f"series.K{K}")
    return metrics, failures


def exact_rk4_probes() -> tuple[Metrics, list[str]]:
    """Exact RK4 at level 2 for 1..4 steps: time and peak denominator bits."""
    metrics: Metrics = {}
    failures = []
    spec = SystemSpec.reduced(2, delta=1, closing=workloads.closing(2, [24]))
    t0, r0, h0, x0 = EXACT_STATE
    s0 = SystemState(t0, r0, h0, x0)
    f0 = SystemState(float(t0), float(r0), float(h0), tuple(float(v) for v in x0))
    for steps in EXACT_STEPS:
        start = time.perf_counter()
        trajectory = systems.integrate_rk4(spec, s0, steps * EXACT_STEP, EXACT_STEP)
        metrics[f"systems.exact_rk4.steps{steps}_s"] = (time.perf_counter() - start, "s")
        bits = max(v.denominator.bit_length() for s in trajectory for v in s.row())
        metrics[f"systems.exact_rk4.steps{steps}_bits"] = (bits, "bits")
        floats = systems.integrate_rk4(spec, f0, float(steps * EXACT_STEP), float(EXACT_STEP))
        exact_ok = all(isinstance(v, Fraction) for v in trajectory[-1].row())
        gap = max(abs(float(a) - b) for a, b in zip(trajectory[-1].row(), floats[-1].row()))
        if len(trajectory) != steps + 1 or not exact_ok or gap > 1e-12:
            failures.append(f"systems.exact_rk4.steps{steps}")
    return metrics, failures


def scaling_probes() -> tuple[Metrics, list[str]]:
    metrics: Metrics = {}
    failures: list[str] = []
    for probe in (match_probes, series_probes, exact_rk4_probes, cli_probes):
        m, f = probe()
        metrics.update(m)
        failures.extend(f)
    return metrics, failures
