"""The four benchmark workloads: seeded inputs, one unit of work, output check.

A workload turns (seed, unit index) into the inputs of one unit, runs the
unit through heatode's public functions, and checks the unit's output.
Inputs depend only on the seed and the index, never on timing, so the
same seed replays the same work.  Checks run outside the timed region.
Units call heatode through module attributes (`jets.match_pole_ode`, not
a name imported here), so the tracer's rebinding reaches every call.

heatode is imported from the checkout's `src/`: call
`checkout.use_checkout_source()` before importing this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from heatode import heat, jets, series, suites, systems
from heatode.algebra import GradedPoly, Q, closing_monomials
from heatode.systems import SystemSpec

# The lru caches a fresh `heatode` process starts without.  Captured here,
# before any tracer rebinds the module names, so they can always be cleared.
_MODULE_CACHES = (jets.hierarchy_ode, jets._pole_det)

# The closings the paper prints for the determinant match at levels 2-4.
PRINTED_CLOSINGS = {2: [-3], 3: [-16], 4: [-45, -26, -31]}

DETMATCH_LEVELS = range(1, 15)
INTEGRATE_LEVELS = (2, 3, 4)
INTEGRATE_STEPS = 5000
INTEGRATE_SPAN = 0.5
INTEGRATE_TOLERANCE = 1e-9
SERIES_LEVELS = (4, 6)
SERIES_K = 24


def cold_caches() -> None:
    """Empty the module caches, as at the start of a fresh process."""
    for cached in _MODULE_CACHES:
        cached.cache_clear()


def closing(n: int, coeffs) -> GradedPoly:
    """Closing polynomial from coefficients in the basis order of level n."""
    return GradedPoly({m: Q(c) for m, c in zip(closing_monomials(n), coeffs)})


def unit_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[int, int], Any]     # (seed, unit index) -> inputs
    run: Callable[[Any], Any]                 # inputs -> output (timed)
    check: Callable[[Any, Any], bool]         # (inputs, output) -> correct
    # (inputs, output) -> error against an independent reference, if any
    ref_error: Callable[[Any, Any], float] | None = None


# -- verify-all: the command the README advertises ----------------------------

def verify_input(seed: int, index: int) -> int:
    return unit_rng(seed, index).randrange(2 ** 31)


def verify_run(unit_seed: int) -> dict:
    return suites.run_all(unit_seed)


def verify_check(unit_seed: int, report: dict) -> bool:
    return report["seed"] == unit_seed and report["passed"] is True \
        and len(report["reports"]) == len(suites.SUITES)


# -- detmatch: exact jet arithmetic and the exact linear solve ----------------

def detmatch_input(seed: int, index: int) -> list[int]:
    # The seed only orders the levels; every unit covers n = 1..14.
    levels = list(DETMATCH_LEVELS)
    unit_rng(seed, index).shuffle(levels)
    return levels


def detmatch_run(levels: list[int]) -> dict[int, jets.PoleMatch]:
    return {n: jets.match_pole_ode(n) for n in levels}


def detmatch_check(levels: list[int], matches: dict[int, jets.PoleMatch]) -> bool:
    if sorted(matches) != sorted(levels):
        return False
    for n, match in matches.items():
        if match.n != n or match.b != n + 1 or not match.matched:
            return False
        if n in PRINTED_CLOSINGS and match.closing != closing(n, PRINTED_CLOSINGS[n]):
            return False
        if jets.family_ode(n, match.closing) != jets.pole_sum_ode(n, n + 1):
            return False
    return True


# -- integrate: long float RK4 runs against the closed form -------------------

@dataclass(frozen=True)
class IntegrateCase:
    n: int
    delta: int
    poles: tuple[Fraction, ...]


def integrate_input(seed: int, index: int) -> list[IntegrateCase]:
    rng = unit_rng(seed, index)
    cases = []
    for n in INTEGRATE_LEVELS:
        poles: list[Fraction] = []
        while len(poles) < n + 1:
            # poles at least 4 time units left of t0 = 0 keep the flow smooth
            a = -Q(rng.randint(16, 64), rng.randint(1, 4))
            if a not in poles:
                poles.append(a)
        cases.append(IntegrateCase(n, rng.randint(0, 1), tuple(poles)))
    return cases


def _closed_form(case: IntegrateCase):
    return heat.pole_state_provider(case.n, case.n + 1, case.poles, case.delta)


def integrate_run(cases: list[IntegrateCase]) -> list:
    finals = []
    for case in cases:
        spec = SystemSpec.reduced(case.n, delta=case.delta,
                                  closing=closing(case.n, PRINTED_CLOSINGS[case.n]))
        s0 = _closed_form(case)(0.0)
        trajectory = systems.integrate_rk4(spec, s0, INTEGRATE_SPAN, INTEGRATE_SPAN / INTEGRATE_STEPS)
        finals.append(trajectory[-1])
    return finals


def integrate_error(case: IntegrateCase, final) -> float:
    """Max-norm error of (r, h, x) against the closed form, relative to its max norm."""
    ref = _closed_form(case)(INTEGRATE_SPAN).row()[1:]
    got = final.row()[1:]
    if len(got) != len(ref) or abs(final.t - INTEGRATE_SPAN) > 1e-12:
        return float("inf")
    return max(abs(g - r) for g, r in zip(got, ref)) / max(abs(r) for r in ref)


def integrate_max_error(cases: list[IntegrateCase], finals: list) -> float:
    if len(finals) != len(cases):
        return float("inf")
    return max(integrate_error(case, final) for case, final in zip(cases, finals))


def integrate_check(cases: list[IntegrateCase], finals: list) -> bool:
    return integrate_max_error(cases, finals) <= INTEGRATE_TOLERANCE


# -- exact-series: large exact GradedPoly multiply and partial ----------------

@dataclass(frozen=True)
class SeriesCase:
    n: int
    delta: int
    closing: GradedPoly


def series_input(seed: int, index: int) -> list[SeriesCase]:
    rng = unit_rng(seed, index)
    cases = []
    for n in SERIES_LEVELS:
        p = closing(n, [rng.randint(-5, 5) for _ in closing_monomials(n)])
        cases.extend(SeriesCase(n, delta, p) for delta in (0, 1))
    return cases


def series_run(cases: list[SeriesCase]) -> list:
    out = []
    for case in cases:
        c = series.default_c(case.delta)
        poly_route = series.ansatz_series(case.n, case.closing, c, case.delta, SERIES_K)
        table_route = series.series_from_table(
            series.coeff_table(case.n, case.closing, c, case.delta, SERIES_K))
        spec = SystemSpec.reduced(case.n, delta=case.delta, closing=case.closing)
        residual = heat.series_heat_residual(spec, poly_route)
        out.append((poly_route, table_route, residual))
    return out


def series_check(cases: list[SeriesCase], results: list) -> bool:
    if len(results) != len(cases):
        return False
    for case, (poly_route, table_route, residual) in zip(cases, results):
        if (poly_route.n, poly_route.delta, poly_route.truncation) != (case.n, case.delta, SERIES_K):
            return False
        if any(poly_route.coeff(k) != table_route.coeff(k) for k in range(2, SERIES_K + 1)):
            return False
        if not residual.all_ok:
            return False
    return True


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("verify-all", verify_input, verify_run, verify_check),
        Workload("detmatch", detmatch_input, detmatch_run, detmatch_check),
        Workload("integrate", integrate_input, integrate_run, integrate_check,
                 integrate_max_error),
        Workload("exact-series", series_input, series_run, series_check),
    )
}
