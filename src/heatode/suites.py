"""Named verification suites behind the command-line `verify` command.

Each suite returns its case records; run_suite builds the report around them,
with "passed" false when a case fails or there is none.  A suite that draws
takes rng, the random.Random(seed) that run_suite makes; one with levels takes
max_n, its highest level, and a max_n below its lowest level leaves no case to
run and raises ValueError.  Suites are deterministic: identical inputs,
identical reports.
"""

from __future__ import annotations

import inspect
import math
import random
from fractions import Fraction
from typing import Callable

from .algebra import (
    GradedPoly,
    Q,
    bare_monomials,
    check_level,
    closing_dim,
    closing_from_coeffs,
    closing_monomials,
    monomial_basis,
    partition_count,
)
from .jets import (
    JetPoly,
    chazy12_parameter,
    family_ode,
    head_tail_coefficients,
    hierarchy_ode,
    match_pole_ode,
    necessary_pole_strength,
    pole_sum_ode,
    rescale_dependent,
    total_derivative,
)
from .mobius import ExactHeatValue, Mobius, act_on_psi, act_on_state, transformed_h_jet
from .series import (
    ansatz_series,
    bare_series,
    coeff_table,
    quartic_eigenfunction_check,
    series_from_table,
    sigma_l2,
    sigma_series,
    three_pole_flows,
)
from .systems import SystemSpec, SystemState, default_c, pole_sum, sigma_reduction
from .heat import (
    AnsatzSolution,
    NumericHeatReport,
    SymbolicHeatReport,
    WideSolution,
    grid_heat_residual,
    pole_state_provider,
    polynomial_solution_check,
    predicted_failure_order,
    series_heat_residual,
    trajectory_provider,
)


class UnknownSuite(KeyError):
    """The requested verification suite does not exist."""


# The closings the paper prints for the pole family, by level (closing_from_coeffs order)
PRINTED_CLOSINGS = {2: [-3], 3: [-16], 4: [-45, -26, -31]}


def _random_closing(rng: random.Random, n: int) -> GradedPoly:
    return closing_from_coeffs(n, [rng.randint(-5, 5) for _ in closing_monomials(n)])


def _random_poles(rng: random.Random, count: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        v = Q(rng.randint(-24, 24), rng.randint(1, 8))
        if v not in out:
            out.append(v)
    return out


def _random_mobius(rng: random.Random) -> Mobius:
    """Three alternating upper and lower shears, each applied as a column operation."""
    m = Mobius.identity()
    for _ in range(3):
        s = Q(rng.randint(-3, 3), rng.randint(1, 4))  # m @ (1 s; 0 1)
        m = Mobius(m.a, m.a * s + m.b, m.c, m.c * s + m.d)
        s = Q(rng.randint(-3, 3), rng.randint(1, 4))  # m @ (1 0; s 1)
        m = Mobius(m.a + m.b * s, m.b, m.c + m.d * s, m.d)
    return m


def _case(name: str, ok: bool, mode: str = "exact", **fields) -> dict:
    """The record of one case: its name, its mode, the suite's fields, then its verdict."""
    return {"case": name, "mode": mode, **fields, "pass": ok}


def _symbolic_case(name: str, report: SymbolicHeatReport) -> dict:
    return _case(name, report.all_ok, "symbolic", orders_checked=report.orders,
                 first_failure=report.first_failure,
                 max_residual="0" if report.all_ok else "nonzero", error_budget=None)


def _numeric_case(name: str, report: NumericHeatReport, ok: bool, **fields) -> dict:
    return _case(name, ok, "numeric", grid=report.grid, first_failure=None,
                 max_residual=report.max_residual,
                 error_budget={"fd": report.fd_component,
                               "truncation": report.truncation_component},
                 **fields)


def _levels(lowest: int, max_n: int) -> range:
    """The levels lowest..max_n of a suite; none, or a max_n past MAX_LEVEL, raises ValueError."""
    if max_n < lowest:
        raise ValueError(f"max_n {max_n} is below the suite's lowest level {lowest}: "
                         "there is no case to run")
    return range(lowest, check_level(max_n) + 1)


# -- suites --------------------------------------------------------------------

def suite_rational(rng: random.Random, max_n: int = 6) -> list[dict]:
    """Pole sums annihilate the determinant family exactly; wrong b does not.

    Every zero test runs on the integral jet lam^(q+1) h^(q) of
    PoleSum.integral_jet: each pole_sum_ode(n, b) is homogeneous of weight W,
    so P(integral jet) = lam^(W/2) P(h-jet) with lam != 0, and the verdicts
    (and counts) are those of the Fraction jet.
    """
    trials = 20
    cases = []
    for n in _levels(0, max_n):
        ode = pole_sum_ode(n, n + 1)
        off_odes = [pole_sum_ode(n, b) for b in (n, n + 2) if b]
        zeros = 0
        perturbed_nonzero = 0
        perturbed_total = 0
        for _ in range(trials):
            ps = pole_sum(n + 1, _random_poles(rng, n + 1))
            t = Q(rng.randint(97, 300), rng.randint(1, 4))
            _, jet = ps.integral_jet(t, n + 1)
            if ode.eval(jet) == 0:
                zeros += 1
            for off in off_odes:
                perturbed_total += 1
                if off.eval(jet) != 0:
                    perturbed_nonzero += 1
        cases.append(_case(f"pole-sum-n{n}",
                           zeros == trials and perturbed_nonzero >= perturbed_total - 1,
                           zero_residuals=f"{zeros}/{trials}",
                           perturbed_nonzero=f"{perturbed_nonzero}/{perturbed_total}"))
    return cases


def suite_chazy() -> list[dict]:
    """Rescaling identities, the Chazy-12 parameter and head/tail coefficients."""
    cases = []
    ode24 = family_ode(2, closing_from_coeffs(2, [24]))
    chazy3 = rescale_dependent(ode24, -6)
    expect3 = JetPoly.from_exponents([({0: 1, 2: 1}, -2), ({1: 2}, 3), ({3: 1}, 1)])
    cases.append(_case("chazy3-form", chazy3 == expect3))
    ode6 = family_ode(2, closing_from_coeffs(2, [6]))
    linear = rescale_dependent(ode6, -6)
    expect6 = JetPoly.from_exponents([({3: 1}, 1), ({0: 1, 2: 1}, -2),
                                      ({0: 2, 1: 1}, 1), ({0: 4}, Q(-1, 12))])
    cases.append(_case("derivative-linear-form", linear == expect6))
    chazy4 = rescale_dependent(total_derivative(hierarchy_ode(2)), 2)
    expect4 = JetPoly.from_exponents([({3: 1}, 1), ({0: 1, 2: 1}, 3),
                                      ({1: 2}, 3), ({0: 2, 1: 1}, 3)])
    cases.append(_case("chazy4-form", chazy4 == expect4))
    cases.append(_case("chazy12-parameter", chazy12_parameter(Q(-3)) == 4))
    ok = all(head_tail_coefficients(n) == (1, n * (n + 1), 2 ** (n - 1) * math.factorial(n))
             for n in range(2, 9))
    cases.append(_case("head-tail-closed-form", ok))
    return cases


def suite_phi_equiv(rng: random.Random, max_n: int = 4) -> list[dict]:
    """The polynomial and discrete series routes agree exactly; corollaries hold."""
    K = 12
    cases = []
    for n in _levels(1, max_n):
        for delta in (0, 1):
            agree = True
            seen = set()          # closings already compared at this (n, delta)
            for _ in range(5):
                closing = _random_closing(rng, n)
                key = frozenset(closing.terms.items())
                if key in seen:
                    continue
                seen.add(key)
                for c in (default_c(delta), Q(3)):
                    a = ansatz_series(n, closing, c, delta, K)
                    b = series_from_table(coeff_table(n, closing, c, delta, K))
                    if any(a.coeff(k) != b.coeff(k) for k in range(2, K + 1)):
                        agree = False
            cases.append(_case(f"cross-oracle-n{n}-delta{delta}", agree, K=K))
    nonneg = True
    integral = True
    for n in (2, 3):
        closing = closing_from_coeffs(n, [rng.randint(0, 4) for _ in closing_monomials(n)])
        table = coeff_table(n, closing, Q(3), 0, 8)
        nonneg &= all(a >= 0 for a in table.entries.values())
        for delta in (0, 1):
            closing2 = _random_closing(rng, n)
            table2 = coeff_table(n, closing2, Q(2 * (1 + 2 * delta)), delta, 8)
            integral &= all(a.denominator == 1 for a in table2.entries.values())
    cases.append(_case("nonnegativity", nonneg))
    cases.append(_case("integrality", integral))
    eigen = all(quartic_eigenfunction_check(8, delta) is None for delta in (0, 1))
    cases.append(_case("quartic-eigenfunction", eigen))
    return cases


def suite_sl2(rng: random.Random) -> list[dict]:
    """Group law, preserved residuals and the state-versus-solution square."""
    cases = []

    def sampler(z, t):
        return ExactHeatValue.plain(Q(1) / (1 + t * t) + z * z * t - z ** 4)

    checked = 0
    law_ok = True
    while checked < 20:
        m1, m2 = _random_mobius(rng), _random_mobius(rng)
        z = Q(rng.randint(-3, 3), rng.randint(1, 5))
        t = Q(rng.randint(-9, 9), rng.randint(1, 5))
        # (m1 @ m2).denom(t) = m1.denom(m2.apply(t)) * m2.denom(t): skip a draw on a pole
        if m2.denom(t) == 0 or m1.denom(m2.apply(t)) == 0:
            continue
        lhs = act_on_psi(m2, lambda zz, tt: act_on_psi(m1, sampler, zz, tt), z, t)
        rhs = act_on_psi(m1 @ m2, sampler, z, t)
        law_ok &= lhs == rhs
        checked += 1
    cases.append(_case("group-law", law_ok, pairs=checked))

    preserved = True
    for n in range(4):  # levels 0 and 1 have no closing: their member is the bare hierarchy's
        ode = family_ode(n, closing_from_coeffs(n, PRINTED_CLOSINGS.get(n, [])))
        done = 0
        while done < 5:
            ps = pole_sum(n + 1, _random_poles(rng, n + 1))
            m = _random_mobius(rng)
            t = Q(rng.randint(97, 240), rng.randint(1, 4))
            if m.denom(t) == 0 or m.apply(t) in ps.poles:
                continue
            preserved &= ode.eval(transformed_h_jet(m, ps.jet, t, n + 1)) == 0
            done += 1
    cases.append(_case("transformed-residuals", preserved))

    worst = _consistency_square_error()
    cases.append(_case("state-vs-solution", worst <= 1e-10, "float", max_gap=worst))
    return cases


def _consistency_square_error() -> float:
    closing = closing_from_coeffs(2, [24])
    spec = SystemSpec.reduced(2, delta=1, closing=closing)
    series = ansatz_series(2, closing, default_c(1), 1, 10)
    provider = pole_state_provider(2, 3, [Q(-1), Q(-2), Q(-3)], 1)
    sol = AnsatzSolution(spec, series, provider)
    matrices = [Mobius(1.0, 1 / 3, 0.0, 1.0), Mobius(1.0, 0.0, 0.25, 1.0),
                Mobius(1.0, 0.5, 0.2, 1.1)]
    worst = 0.0
    for m in matrices:
        m.require_unimodular()
        # the transformed state, assembled like any other solution
        moved = AnsatzSolution(spec, series, act_on_state(m, provider, 1))
        for t in (1.0, 1.4):
            for z in (0.1, 0.4):
                state_side = moved.psi(z, t)
                psi_side = act_on_psi(m, sol.psi, z, t)
                gap = abs(state_side - psi_side) / max(1.0, abs(psi_side))
                worst = gap if math.isnan(gap) else max(worst, gap)  # NaN sticks
    return worst


def suite_heat(rng: random.Random) -> list[dict]:
    """Symbolic all-zero residuals, fault detection and the numeric grid case."""
    cases = []
    symbolic = [(1, 0, None), (1, 1, None), (2, 1, [24]), (3, 0, [48]), (3, 1, [48])]
    for n, delta, coeffs in symbolic:
        closing = closing_from_coeffs(n, coeffs) if coeffs else None
        spec = SystemSpec.reduced(n, delta=delta, closing=closing)
        series = ansatz_series(n, closing, default_c(delta), delta, 8)
        cases.append(_symbolic_case(f"n={n},delta={delta}", series_heat_residual(spec, series)))
        if (n, delta) == (2, 1):  # c4 = 24: the fault-detection case and the grid reuse it
            level2 = spec, series

    spec, series = level2
    fault_ok = True
    for k in (3, 4, 5):
        bump = GradedPoly({monomial_basis(k, 2, 3)[0]: Q(1)})
        bad = series.with_coeff(k, series.coeff(k) + bump)
        got = series_heat_residual(spec, bad).first_failure
        fault_ok &= got == predicted_failure_order(k, 1)
    cases.append(_case("fault-detection", fault_ok, "symbolic"))

    s0 = SystemState(0.0, rng.uniform(-0.1, 0.1), rng.uniform(-0.3, 0.3),
                     (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))
    sol = AnsatzSolution(spec, series, trajectory_provider(spec, s0, 2.5e-4))
    zg = [-0.5 + i / 10 for i in range(11)]
    tg = [0.05 + 0.0375 * i for i in range(5)]
    numeric = grid_heat_residual(sol, zg, tg, 1e-3)
    half = grid_heat_residual(sol, zg, tg, 5e-4)
    ratio = numeric.max_residual / half.max_residual if half.max_residual else float("inf")
    cases.append(_numeric_case("n=2,c4=24 trajectory", numeric,
                               numeric.max_residual <= 1e-6 and 2.5 < ratio < 6,
                               fd_halving_ratio=ratio))
    return cases


def suite_sigma() -> list[dict]:
    """Sigma expansion: operator annihilation, scaling weights, the bridge."""
    cases = []
    S = sigma_series(8)
    g2 = GradedPoly.variable(2)
    annihilated = True
    for m in range(7):
        prev = S[m - 1] if m >= 1 else GradedPoly.zero()
        residual = S[m + 1].scale(Q(1, 2)) \
            + (g2 * prev).scale(Q((2 * m + 1) * (2 * m), 24)) - sigma_l2(S[m])
        annihilated &= not residual
    cases.append(_case("second-operator", annihilated))
    weights = all((not s) or s.weight == 2 * k for k, s in enumerate(S))
    cases.append(_case("scaling-operator", weights))

    phi = ansatz_series(2, closing_from_coeffs(2, [24]), Q(-6), 1, 6)
    sub = {2: GradedPoly.variable(2, Q(1, 12)), 3: GradedPoly.variable(3, Q(1, 2))}
    bridge = all(phi.coeff(k).subst(sub) == S[k] for k in range(2, 7))
    cases.append(_case("bridge-to-level-two", bridge, K=6))

    reductions = all(sigma_reduction(n) == SystemSpec.reduced(n, 1, closing_from_coeffs(n, [c]))
                     for n, c in ((2, 24), (3, 48)))
    cases.append(_case("system-reductions", reductions))
    return cases


def suite_hermite() -> list[dict]:
    """Gaussian-times-Hermite solutions, exactly, plus fault rejection."""
    cases = [_case(f"hermite-k{k}", polynomial_solution_check(k)) for k in range(11)]
    faults = all(not polynomial_solution_check(k, [Q(0)] * k + [Q(1)]) for k in (2, 3, 4))
    cases.append(_case("monomial-fault-rejected", faults))
    return cases


def suite_dims(max_n: int = 12) -> list[dict]:
    """The closing-space dimension formula against direct enumeration."""
    cases = []
    expected_small = {0: 0, 1: 0, 2: 1, 3: 1, 4: 3}
    for n in _levels(0, max_n):
        dim = closing_dim(n)
        count = len(closing_monomials(n))
        ok = dim == count
        if n in expected_small:
            ok &= dim == expected_small[n]
        cases.append(_case(f"n={n}", ok, dim=dim))
    return cases


def suite_detmatch(max_n: int = 6) -> list[dict]:
    """Match the determinant family against the closing space, level by level."""
    cases = []
    for n in _levels(1, max_n):
        match = match_pole_ode(n)
        necessary_b = necessary_pole_strength(n)
        ok = match.matched and family_ode(n, match.closing) == pole_sum_ode(n, n + 1)
        if n in PRINTED_CLOSINGS:
            ok &= match.closing == closing_from_coeffs(n, PRINTED_CLOSINGS[n])
        ok &= necessary_b == n + 1
        shown = {"closing": match.closing.text()} if match.matched \
            else {"residual": match.residual.text()}
        cases.append(_case(f"detmatch-n{n}", ok, b=str(match.b), necessary_b=str(necessary_b),
                           matched=match.matched, **shown))
    return cases


def suite_addendum(rng: random.Random) -> list[dict]:
    """The wide-ansatz example: exact flow, numeric solution, dimension count."""
    cases = []
    flows = three_pole_flows()
    flow_ok = True
    for _ in range(5):
        ps = pole_sum(3, _random_poles(rng, 3))
        t = Q(rng.randint(97, 200), rng.randint(1, 3))
        x1, x2, x3, x3dot = ps.jet(t, 3)
        flow_ok &= x3dot == flows[2].eval({1: x1, 2: x2, 3: x3})
    cases.append(_case("three-pole-flow", flow_ok))

    series = bare_series(flows, GradedPoly.variable(1, Q(-1, 2)), 12)
    poles = [Q(-1), Q(-2), Q(-3)]
    ps = pole_sum(3, poles)

    def state(t):
        jet = ps.jet(t, 2)
        r = -sum(math.log(float(t - a)) for a in poles) / 12.0
        return r, {1: float(jet[0]), 2: float(jet[1]), 3: float(jet[2])}

    sol = WideSolution(series, state)
    zg = [-0.5 + i / 10 for i in range(11)]
    tg = [1.0 + 0.04 * i for i in range(6)]
    numeric = grid_heat_residual(sol, zg, tg, 1e-3)
    cases.append(_numeric_case("three-pole solution", numeric, numeric.max_residual <= 1e-6))

    counts = all(len(bare_monomials(n)) == partition_count(n + 2) - 1 for n in range(9))
    cases.append(_case("wide-closing-count", counts))
    return cases


SUITES: dict[str, Callable[..., list[dict]]] = {
    "rational": suite_rational,
    "chazy": suite_chazy,
    "phi-equiv": suite_phi_equiv,
    "sl2": suite_sl2,
    "heat": suite_heat,
    "sigma": suite_sigma,
    "hermite": suite_hermite,
    "dims": suite_dims,
    "detmatch": suite_detmatch,
    "addendum": suite_addendum,
}


def run_suite(name: str, seed: int = 0, max_n: int | None = None) -> dict:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    suite = SUITES[name]  # looked up per call: a tracer may have wrapped it
    params = inspect.signature(suite).parameters
    if max_n is not None and "max_n" not in params:
        raise ValueError(f"suite {name!r} has no levels, so it takes no max_n")
    kwargs = {"rng": random.Random(seed)} if "rng" in params else {}
    cases = suite(**kwargs) if max_n is None else suite(**kwargs, max_n=max_n)
    passed = bool(cases) and all(c["pass"] for c in cases)
    return {"suite": name, "seed": seed, "passed": passed, "cases": cases}


def run_all(seed: int = 0) -> dict:
    reports = [run_suite(name, seed=seed) for name in SUITES]
    return {
        "suite": "all",
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "reports": reports,
    }
