"""Package acceptance: one test per criterion, tolerances pinned in place.

Every test prints one `[criterion NN] ... PASS` line on success (visible
with `pytest -s` or in the captured output summary); a failed assertion
fails the test before the line is printed.
"""

import math
import random
import time
from fractions import Fraction as Q

from heatode.algebra import (
    GradedPoly,
    bare_monomials,
    closing_dim,
    closing_from_coeffs as closing,
    closing_monomials,
    monomial_basis,
    partition_count,
)
from heatode.jets import (
    JetPoly,
    chazy12_parameter,
    family_ode,
    head_tail_coefficients,
    match_pole_ode,
    necessary_pole_strength,
    pole_sum_ode,
    rescale_dependent,
    shifted_derivative,
)
from heatode.series import ansatz_series, coeff_table, default_c, series_from_table, sigma_series
from heatode.systems import SystemSpec, SystemState, integrate_rk4, pole_sum
from heatode.heat import (
    AnsatzSolution,
    conserved_integral,
    fundamental_psi,
    gaussian_halfwidth,
    grid_heat_residual,
    polynomial_solution_check,
    predicted_failure_order,
    series_heat_residual,
    trajectory_provider,
)
from heatode.suites import run_suite


def ok(num, text):
    print(f"[criterion {num:02d}] {text}: PASS")


def jp(entries):
    return JetPoly.from_exponents(entries)


def rand_poles(rng, count):
    out = []
    while len(out) < count:
        v = Q(rng.randint(-24, 24), rng.randint(1, 8))
        if v not in out:
            out.append(v)
    return out


def test_criterion_01_head_tail_closed_form():
    t0 = time.monotonic()
    for n in range(2, 9):
        assert head_tail_coefficients(n) == \
            (1, n * (n + 1), 2 ** (n - 1) * math.factorial(n))
    assert time.monotonic() - t0 < 1.0
    ok(1, "hierarchy head/tail coefficients (1, n(n+1), 2^(n-1) n!) for n <= 8")


def test_criterion_02_dimension_formula():
    t0 = time.monotonic()
    for n in range(13):
        dim = closing_dim(n)
        assert dim == len(closing_monomials(n))
        assert dim == partition_count(n + 2) - partition_count(n + 1) - 1
    assert [closing_dim(n) for n in range(5)] == [0, 0, 1, 1, 3]
    assert time.monotonic() - t0 < 1.0
    ok(2, "closing-space dimension p(n+2) - p(n+1) - 1 for n <= 12")


def test_criterion_03_determinant_displays():
    t0 = time.monotonic()
    b = JetPoly.param()

    def bp(k):
        out = JetPoly.one()
        for _ in range(k):
            out = out * b
        return out

    assert pole_sum_ode(0) == jp([({1: 1}, 1)]) + bp(1) * jp([({0: 2}, 1)])
    assert pole_sum_ode(2) == jp([({3: 1}, 1)]) \
        + bp(1) * jp([({0: 1, 2: 1}, 4), ({1: 2}, 3)]) \
        + bp(2) * jp([({0: 2, 1: 1}, 6)]) + bp(3) * jp([({0: 4}, 1)])
    assert pole_sum_ode(3) == jp([({4: 1}, 1)]) \
        + bp(1) * jp([({0: 1, 3: 1}, 5), ({1: 1, 2: 1}, 10)]) \
        + bp(2) * jp([({0: 2, 2: 1}, 10), ({0: 1, 1: 2}, 15)]) \
        + bp(3) * jp([({0: 3, 1: 1}, 10)]) + bp(4) * jp([({0: 5}, 1)])
    assert pole_sum_ode(4) == jp([({5: 1}, 1)]) \
        + bp(1) * jp([({0: 1, 4: 1}, 6), ({1: 1, 3: 1}, 15), ({2: 2}, 10)]) \
        + bp(2) * jp([({0: 2, 3: 1}, 15), ({0: 1, 1: 1, 2: 1}, 60), ({1: 3}, 15)]) \
        + bp(3) * jp([({0: 3, 2: 1}, 20), ({0: 2, 1: 2}, 45)]) \
        + bp(4) * jp([({0: 4, 1: 1}, 15)]) + bp(5) * jp([({0: 6}, 1)])
    assert time.monotonic() - t0 < 1.0
    ok(3, "four printed pole-determinant expansions, b symbolic")


def test_criterion_04_determinant_match_constants():
    t0 = time.monotonic()
    expected = {2: (Q(3), [-3]), 3: (Q(4), [-16]), 4: (Q(5), [-45, -26, -31])}
    for n, (b, coeffs) in expected.items():
        m = match_pole_ode(n)
        assert m.matched and m.b == b and m.closing == closing(n, coeffs)
        assert necessary_pole_strength(n) == n + 1
    for n in (5, 6):
        m = match_pole_ode(n)
        if m.matched:
            assert family_ode(n, m.closing) == pole_sum_ode(n, n + 1)
        else:
            assert m.residual
    assert time.monotonic() - t0 < 10.0
    ok(4, "determinant-family match constants and levels 5, 6 evidence")


def test_criterion_05_rational_solutions():
    t0 = time.monotonic()
    rng = random.Random(101)
    for n in range(7):
        ode = pole_sum_ode(n, n + 1)
        below = pole_sum_ode(n, n) if n >= 1 else None
        above = pole_sum_ode(n, n + 2)
        nonzero = 0
        total = 0
        for _ in range(20):
            ps = pole_sum(n + 1, rand_poles(rng, n + 1))
            t = Q(rng.randint(97, 400), rng.randint(1, 4))
            jet = ps.jet(t, n + 1)
            assert ode.eval(jet) == 0
            for off in (below, above):
                if off is None:
                    continue
                total += 1
                if off.eval(jet) != 0:
                    nonzero += 1
        assert nonzero >= total - 1
    assert time.monotonic() - t0 < 10.0
    ok(5, "pole sums are exact zeros at b = n+1 and not at b = n+1 +/- 1")


def test_criterion_06_chazy_identifications():
    res = rescale_dependent(family_ode(2, closing(2, [24])), -6)
    assert res == jp([({3: 1}, 1), ({0: 1, 2: 1}, -2), ({1: 2}, 3)])
    assert chazy12_parameter(Q(-3)) == 4
    res6 = rescale_dependent(family_ode(2, closing(2, [6])), -6)
    assert res6 == jp([({3: 1}, 1), ({0: 1, 2: 1}, -2),
                        ({0: 2, 1: 1}, 1), ({0: 4}, Q(-1, 12))])
    ok(6, "Chazy-3 form at c4 = 24, k^2(-3) = 4, derivative-linear form at c4 = 6")


def test_criterion_07_ladder_and_factorization():
    rng = random.Random(103)
    for n in range(1, 7):
        for _ in range(5):
            p = closing(n, [rng.randint(-6, 6) for _ in closing_monomials(n)])
            lhs = shifted_derivative(family_ode(n, p), 2 * (n + 2))
            # the ladder field sum_k x_{k+1} d/dx_k on x_2..x_{n+1}
            raised = p.derive({k: GradedPoly.variable(k + 1) for k in range(2, n + 2)})
            assert lhs == family_ode(n + 1, raised)
    for c4 in (Q(24), Q(-3), Q(9)):
        assert family_ode(3, closing(3, [2 * c4])) == \
            shifted_derivative(family_ode(2, closing(2, [c4])), 8)
    for c5 in (Q(48), Q(-16), Q(5)):
        assert family_ode(4, closing(4, [0, c5, c5])) == \
            shifted_derivative(family_ode(3, closing(3, [c5])), 10)
    ok(7, "ladder identity for n <= 6 and both factorization lemmas")


def test_criterion_08_series_cross_oracle():
    t0 = time.monotonic()
    rng = random.Random(107)
    for n in range(1, 5):
        for delta in (0, 1):
            for _ in range(5):
                p = closing(n, [rng.randint(-5, 5) for _ in closing_monomials(n)])
                for c in (default_c(delta), Q(3)):
                    a = ansatz_series(n, p, c, delta, 12)
                    b = series_from_table(coeff_table(n, p, c, delta, 12))
                    assert all(a.coeff(k) == b.coeff(k) for k in range(2, 13))
    # corollaries on sampled instances
    for n in (2, 3, 4):
        nn = closing(n, [rng.randint(0, 4) for _ in closing_monomials(n)])
        table = coeff_table(n, nn, Q(3), 0, 8)
        assert all(a >= 0 for a in table.entries.values())
        for delta in (0, 1):
            zz = closing(n, [rng.randint(-4, 4) for _ in closing_monomials(n)])
            table = coeff_table(n, zz, Q(2 * (1 + 2 * delta)), delta, 8)
            assert all(a.denominator == 1 for a in table.entries.values())
    assert time.monotonic() - t0 < 30.0
    ok(8, "polynomial and discrete series routes agree through K = 12")


def test_criterion_09_sigma_bridge():
    S = sigma_series(6)
    phi = ansatz_series(2, closing(2, [24]), Q(-6), 1, 6)
    sub = {2: GradedPoly.variable(2, Q(1, 12)), 3: GradedPoly.variable(3, Q(1, 2))}
    for k in range(2, 7):
        assert phi.coeff(k).subst(sub) == S[k]
    ok(9, "sigma bridge exact through z^13")


def test_criterion_10_symbolic_heat_residual():
    t0 = time.monotonic()
    cases = [(1, 0, None), (1, 1, None), (2, 1, [24]), (3, 0, [48]), (3, 1, [48])]
    for n, delta, coeffs in cases:
        cl = closing(n, coeffs) if coeffs else None
        spec = SystemSpec.reduced(n, delta=delta, closing=cl)
        series = ansatz_series(n, cl, default_c(delta), delta, 8)
        report = series_heat_residual(spec, series)
        assert report.all_ok
        assert report.orders == list(range(delta, 2 * 8 + delta - 1, 2))
    cl = closing(2, [24])
    spec = SystemSpec.reduced(2, delta=1, closing=cl)
    series = ansatz_series(2, cl, Q(-6), 1, 8)
    for k in (3, 4, 5, 6):
        bump = GradedPoly({monomial_basis(k, 2, 3)[0]: Q(1)})
        bad = series.with_coeff(k, series.coeff(k) + bump)
        assert series_heat_residual(spec, bad).first_failure == \
            predicted_failure_order(k, 1)
    assert time.monotonic() - t0 < 60.0
    ok(10, "symbolic heat residual all-zero at K = 8, faults at predicted orders")


def test_criterion_11_numeric_heat_residual():
    t0 = time.monotonic()
    rng = random.Random(109)
    cl = closing(2, [24])
    spec = SystemSpec.reduced(2, delta=1, closing=cl)
    series = ansatz_series(2, cl, Q(-6), 1, 8)
    s0 = SystemState(0.0, rng.uniform(-0.1, 0.1), rng.uniform(-0.3, 0.3),
                     (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))
    sol = AnsatzSolution(spec, series, trajectory_provider(spec, s0, 2.5e-4))
    zg = [-0.5 + i / 10 for i in range(11)]
    tg = [0.05 + 0.0375 * i for i in range(5)]  # spans 0.05..0.2
    full = grid_heat_residual(sol, zg, tg, 1e-3)
    assert full.max_residual <= 1e-6
    half = grid_heat_residual(sol, zg, tg, 5e-4)
    assert 2.5 < full.max_residual / half.max_residual < 6
    assert time.monotonic() - t0 < 10.0
    ok(11, "numeric heat residual <= 1e-6; FD component scales ~4x")


def test_criterion_12_sl2_suite():
    report = run_suite("sl2", seed=113)
    assert report["passed"]
    cases = {c["case"]: c for c in report["cases"]}
    assert cases["state-vs-solution"]["max_gap"] <= 1e-10
    ok(12, "group law exact, residuals preserved, action square <= 1e-10")


def test_criterion_13_hermite_solutions():
    for k in range(11):
        assert polynomial_solution_check(k)
    ok(13, "Gaussian-times-Hermite heat solutions exact for k <= 10")


def test_criterion_14_conservation():
    psi = fundamental_psi(0.0)
    Z = gaussian_halfwidth(4.0)
    values = [conserved_integral(psi, t, Z) for t in (1.0, 2.0, 4.0)]
    assert max(values) - min(values) < 1e-10

    def odd_psi(z, t):
        return z * math.exp(-z * z / (2 * t)) / t ** 1.5

    for t in (1.0, 2.0):
        assert abs(conserved_integral(odd_psi, t, Z)) < 1e-10
    for k in (1, 2, 3):
        deriv = fundamental_psi(0.0, k)
        assert abs(conserved_integral(deriv, 2.0, Z)) < 1e-10
    ok(14, "Gaussian integral constant to 1e-10; odd and derivative cases vanish")


def test_criterion_15_addendum():
    report = run_suite("addendum", seed=127)
    assert report["passed"]
    numeric = next(c for c in report["cases"] if c.get("mode") == "numeric")
    assert numeric["max_residual"] <= 1e-6
    for n in range(9):
        assert len(bare_monomials(n)) == partition_count(n + 2) - 1
    ok(15, "three-pole flow exact, assembled solution <= 1e-6, wide counts match")


def test_criterion_16_rk4_order():
    spec = SystemSpec.reduced(0, delta=0)
    s0 = SystemState(0.0, 0.0, 1.0, ())
    errors = []
    for step in (0.1, 0.05, 0.025):
        traj = integrate_rk4(spec, s0, 1.0, step)
        errors.append(abs(traj[-1].h - 0.5))
    for coarse, fine in zip(errors, errors[1:]):
        assert abs(math.log2(coarse / fine) - 4.0) < 0.2
    ok(16, "RK4 convergence order 4.0 +/- 0.2 on the closed-form case")
