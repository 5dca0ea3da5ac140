"""Heat-equation verification: symbolic residuals, grids, conservation."""

import gc
import math
import random
import weakref
from fractions import Fraction as Q

import pytest

from heatode.algebra import GradedPoly, WeightMismatch, closing_from_coeffs as closing
from heatode.series import ansatz_series, bare_series, default_c, hermite, hermite_eval
from heatode import heat
from heatode.suites import _symbolic_case, run_suite
from heatode.systems import BlowUp, SystemSpec, SystemState, integrate_rk4, pole_sum
from heatode.heat import (
    AnsatzSolution,
    OutOfRange,
    Unsettled,
    WideSolution,
    conserved_integral,
    fundamental_psi,
    gaussian_halfwidth,
    grid_heat_residual,
    pole_state_provider,
    polynomial_solution_check,
    predicted_failure_order,
    series_heat_residual,
    trajectory_provider,
)

x1 = GradedPoly.variable(1)
x2 = GradedPoly.variable(2)
x3 = GradedPoly.variable(3)


def reduced_case(n, delta, coeffs=None, K=8):
    cl = closing(n, coeffs) if coeffs else None
    spec = SystemSpec.reduced(n, delta=delta, closing=cl)
    series = ansatz_series(n, cl, default_c(delta), delta, K)
    return spec, series


# -- symbolic residual -----------------------------------------------------------

def test_symbolic_residual_general_c():
    # the identity holds at any c, not only the default normalisation
    cl = closing(2, [5])
    spec = SystemSpec.reduced(2, delta=0, closing=cl, c=Q(3))
    series = ansatz_series(2, cl, Q(3), 0, 7)
    assert series_heat_residual(spec, series).all_ok


def test_symbolic_residual_holds_at_level_zero():
    # P_0 = 1 is the only nonzero coefficient, and h' = -h^2 has no x2 term:
    # an x2 * P_0 term at z^(delta+2) would fail every level-0 case
    for delta in (0, 1):
        for c in (default_c(delta), Q(3), Q(-7, 2)):
            spec = SystemSpec.reduced(0, delta=delta, c=c)
            report = series_heat_residual(spec, ansatz_series(0, None, c, delta, 6))
            assert report.all_ok and report.orders == list(range(delta, 12 + delta - 1, 2))


def test_symbolic_residual_detects_series_fault():
    from heatode.algebra import monomial_basis
    for delta in (0, 1):
        for k in (3, 4, 5):
            spec, series = reduced_case(2, delta, [24])
            bump = GradedPoly({monomial_basis(k, 2, 3)[0]: Q(k)})
            bad = series.with_coeff(k, series.coeff(k) + bump)
            report = series_heat_residual(spec, bad)
            assert report.first_failure == predicted_failure_order(k, delta)


def test_symbolic_residual_detects_flow_fault():
    # series built for one closing, flow running another
    spec, _ = reduced_case(2, 1, [25])
    _, series = reduced_case(2, 1, [24])
    assert not series_heat_residual(spec, series).all_ok


def test_symbolic_residual_rejects_mismatched_parameters():
    spec, _ = reduced_case(2, 0, [24])
    _, series = reduced_case(2, 1, [24])
    with pytest.raises(ValueError):
        series_heat_residual(spec, series)


# A P_k of the right weight outside x_2..x_{n+1}: x1 would be read as the flow's h,
# and neither x1 nor x4 has a value at level 2
FOREIGN_COEFFS = {"P3-x1": (3, x1 * x2), "P4-x4": (4, GradedPoly.variable(4))}
SERIES_ENTRIES = {
    "series_heat_residual": series_heat_residual,
    "AnsatzSolution": lambda spec, series: AnsatzSolution(
        spec, series, trajectory_provider(spec, SystemState(0.0, 0.0, 0.1, (0.1, 0.0)), 1e-3)
    ).psi(0.5, 0.01),
}


@pytest.mark.parametrize("entry", sorted(SERIES_ENTRIES))
@pytest.mark.parametrize("label", sorted(FOREIGN_COEFFS))
def test_a_coefficient_outside_the_system_variables_is_refused(label, entry):
    k, extra = FOREIGN_COEFFS[label]
    spec, series = reduced_case(2, 1, [1])  # closing x2^2
    bad = series.with_coeff(k, series.coeff(k) + extra)
    with pytest.raises(WeightMismatch, match=f"series coefficient P_{k} must use x_2..x_3 only"):
        SERIES_ENTRIES[entry](spec, bad)


def test_symbolic_report_json():
    spec, series = reduced_case(1, 0)
    data = _symbolic_case("demo", series_heat_residual(spec, series))
    assert data["mode"] == "symbolic"
    assert data["first_failure"] is None
    assert data["max_residual"] == "0"
    # a bump in P_k fails the case at the z-order where the fault first shows
    from heatode.algebra import monomial_basis
    for delta in (0, 1):
        spec, series = reduced_case(2, delta, [24])
        for k in (3, 4, 5):
            bump = GradedPoly({monomial_basis(k, 2, 3)[0]: Q(1)})
            bad = series.with_coeff(k, series.coeff(k) + bump)
            data = _symbolic_case("bumped", series_heat_residual(spec, bad))
            assert data["max_residual"] == "nonzero" and data["pass"] is False
            assert data["first_failure"] == predicted_failure_order(k, delta)


# -- assembled solutions and numeric residual ---------------------------------------

def test_level_zero_solution_matches_fundamental():
    spec = SystemSpec.reduced(0, delta=0)
    series = ansatz_series(0, None, default_c(0), 0, 6)
    sol = AnsatzSolution(spec, series, pole_state_provider(0, 1, [0], 0))
    ref = fundamental_psi(0.0)
    for z, t in ((0.0, 1.0), (0.4, 2.5), (-0.3, 1.7)):
        assert abs(sol.psi(z, t) - ref(z, t)) < 1e-14


@pytest.mark.parametrize("n, delta, c", [(1, 0, None), (0, 1, None), (0, 0, Q(3))],
                         ids=["level", "delta", "c"])
def test_solution_rejects_a_series_of_another_system(n, delta, c):
    series = ansatz_series(n, None, default_c(delta) if c is None else c, delta, 4)
    with pytest.raises(ValueError, match="series parameters do not match the system"):
        AnsatzSolution(SystemSpec.reduced(0), series, pole_state_provider(0, 1, [0], 0))


def test_level_zero_grid_residual_is_fd_only():
    spec = SystemSpec.reduced(0, delta=0)
    series = ansatz_series(0, None, default_c(0), 0, 6)
    sol = AnsatzSolution(spec, series, pole_state_provider(0, 1, [0], 0))
    zg = [i / 10 - 0.5 for i in range(11)]
    tg = [1.0 + 0.05 * i for i in range(5)]
    report = grid_heat_residual(sol, zg, tg, 1e-3)
    assert report.truncation_component == 0.0
    assert report.max_residual <= 2 * report.fd_component


def test_trajectory_grid_residual_level_two():
    cl = closing(2, [24])
    spec = SystemSpec.reduced(2, delta=1, closing=cl)
    series = ansatz_series(2, cl, Q(-6), 1, 8)
    s0 = SystemState(0.0, 0.1, 0.25, (0.2, -0.15))
    sol = AnsatzSolution(spec, series, trajectory_provider(spec, s0, 2.5e-4))
    zg = [-0.5 + i / 10 for i in range(11)]
    tg = [0.05 + 0.04 * i for i in range(5)]
    report = grid_heat_residual(sol, zg, tg, 1e-3)
    assert report.max_residual <= 1e-6
    half = grid_heat_residual(sol, zg, tg, 5e-4)
    assert 2.5 < report.max_residual / half.max_residual < 6


def test_truncation_dominated_regime_improves_with_order():
    # at tiny fd steps and low truncation the series term dominates;
    # two more orders must push the residual down
    cl = closing(2, [24])
    spec = SystemSpec.reduced(2, delta=1, closing=cl)
    s0 = SystemState(0.0, 0.0, 0.3, (0.5, -0.4))

    def run(K):
        series = ansatz_series(2, cl, Q(-6), 1, K)
        sol = AnsatzSolution(spec, series, trajectory_provider(spec, s0, 1e-4))
        return grid_heat_residual(sol, [1.4, 1.6], [0.05, 0.1], 1e-5).max_residual

    assert run(5) > 3 * run(7)


class GaussianStub:
    """exp(-z^2/(2t))/sqrt(t) with its exact dzz, replaced by NaN where `bad(z, t)`."""

    def __init__(self, bad):
        self.bad = bad

    def psi(self, z, t):
        return math.exp(-z * z / (2 * t)) / math.sqrt(t)

    def parts(self, z, t):
        dzz = math.nan if self.bad(z, t) else (z * z / t - 1) / t * self.psi(z, t)
        return self.psi(z, t), dzz, 0.0


def test_grid_residual_reports_a_nan_point():
    zg, tg = [0.0, 0.2, 0.4], [1.0]
    finite = grid_heat_residual(GaussianStub(lambda z, t: False), zg, tg, 1e-3)
    assert 0 < finite.max_residual <= 1e-6
    for bad in (lambda z, t: z == 0.2, lambda z, t: z == 0.0, lambda z, t: True):
        report = grid_heat_residual(GaussianStub(bad), zg, tg, 1e-3)
        assert math.isnan(report.max_residual)
        assert not report.max_residual <= 1e-6  # the numeric cases' gate fails


def test_grid_residual_rejects_an_empty_axis():
    stub = GaussianStub(lambda z, t: False)
    for zg, tg, axis in (([], [1.0], "z"), ([0.0], [], "t")):
        with pytest.raises(ValueError, match=f"the {axis} grid is empty"):
            grid_heat_residual(stub, zg, tg, 1e-3)


def test_psi_parts_tail():
    cl = closing(2, [24])
    spec = SystemSpec.reduced(2, delta=1, closing=cl)
    series = ansatz_series(2, cl, Q(-6), 1, 8)
    sol = AnsatzSolution(spec, series, trajectory_provider(spec, SystemState(0.0, 0.0, 0.2, (0.1, 0.1)), 1e-3))
    value, _, tail = sol.parts(0.5, 0.1)
    assert tail < 2 ** -40 * abs(value)


def test_odd_solution_vanishes_at_origin():
    cl = closing(2, [24])
    spec = SystemSpec.reduced(2, delta=1, closing=cl)
    series = ansatz_series(2, cl, Q(-6), 1, 6)
    sol = AnsatzSolution(spec, series, trajectory_provider(spec, SystemState(0.0, 0.0, 0.1, (0.1, 0.0)), 1e-3))
    assert sol.psi(0.0, 0.05) == 0.0


def test_trajectory_provider_out_of_range():
    spec = SystemSpec.reduced(0, delta=0)
    provider = trajectory_provider(spec, SystemState(0.0, 0.0, 1.0, ()))
    with pytest.raises(OutOfRange):
        provider(-0.5)


def test_trajectory_provider_rejects_non_finite_times():
    spec, s0 = SystemSpec.reduced(0, delta=0), SystemState(0.0, 0.0, 1.0, ())
    provider = trajectory_provider(spec, s0)
    for bad in (math.inf, math.nan):
        with pytest.raises(OutOfRange, match=f"t = {bad} is not a finite time"):
            provider(bad)
    for step_hint in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="step_hint must be positive and finite"):
            trajectory_provider(spec, s0, step_hint)


def test_trajectory_provider_ignores_query_order():
    # the heat suite's grid-case system
    spec = SystemSpec.reduced(2, delta=1, closing=closing(2, [24]))
    s0 = SystemState(0.0, 0.05, 0.2, (0.25, -0.1))
    times = [0.003 + 0.0071 * i for i in range(30)]
    shuffled = list(times)
    random.Random(5).shuffle(shuffled)
    in_order, out_of_order = trajectory_provider(spec, s0, 2.5e-4), trajectory_provider(spec, s0, 2.5e-4)
    first = {t: in_order(t).row() for t in times}
    second = {t: out_of_order(t).row() for t in shuffled}
    assert first == second
    # a time equal to a node returns that node: 400 steps of step_hint from s0
    provider = trajectory_provider(spec, s0, 2.5e-4)
    provider(400.5 * 2.5e-4)  # grows the list past node 400 first
    node = provider(400 * 2.5e-4)
    want = integrate_rk4(spec, s0, 400 * 2.5e-4, 2.5e-4)[-1]
    assert node.row() == [400 * 2.5e-4, want.r, want.h, *want.x]


def test_trajectory_provider_repeats_a_query_bit_for_bit():
    # the provider keeps no answers: a repeat at t, after queries past and before
    # it, recomputes the state from the same node with the same short step
    spec = SystemSpec.reduced(2, delta=1, closing=closing(2, [24]))
    provider = trajectory_provider(spec, SystemState(0.0, 0.05, 0.2, (0.25, -0.1)), 2.5e-4)
    t = 0.0301  # between two nodes
    first = provider(t)
    for other in (0.05, 0.1, 0.0302, 0.01, 0.03):
        provider(other)
    again = provider(t)
    assert [v.hex() for v in (again.r, again.h, *again.x)] == \
        [v.hex() for v in (first.r, first.h, *first.x)]


def test_trajectory_provider_grows_no_further_than_the_query():
    # h' = -h^2 from h(0) = -1 is h = 1/(t - 1): a pole at t = 1
    provider = trajectory_provider(SystemSpec.reduced(0), SystemState(0.0, 0.0, -1.0, ()))
    before = provider(0.9).row()
    assert before[2] == pytest.approx(-10.0, rel=1e-9)
    with pytest.raises(BlowUp):
        provider(1.5)
    assert provider(0.9).row() == before


def test_heat_suite_step_budget(monkeypatch):
    # one growing trajectory: each RK4 node is computed once (the suite's
    # grid reaches t = 0.201 at step 2.5e-4, 804 nodes)
    steps = []

    def counted(*args, **kwargs):
        trajectory = integrate_rk4(*args, **kwargs)
        steps.append(len(trajectory) - 1)
        return trajectory

    monkeypatch.setattr(heat, "integrate_rk4", counted)
    assert run_suite("heat", 7)["passed"]
    assert 0 < sum(steps) <= 1000


def test_pole_state_provider_range_guard():
    provider = pole_state_provider(1, 2, [Q(0), Q(1)], 0)
    with pytest.raises(OutOfRange):
        provider(0.5)
    # a time that is not finite is refused before any jet, at every level
    for n in (1, 2):
        provider = pole_state_provider(n, n + 1, [Q(-1), Q(-2), Q(-3)][:n + 1], 1)
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfRange, match="is not a finite time"):
                provider(t)


# -- the wide (Gaussian-free) assembled solution -------------------------------------

def addendum_solution(K=12):
    flows = (x2, x3,
             (x1 * x3).scale(-12) + (x2 * x2).scale(-9)
             + (x2 * x1 * x1).scale(-54) + (x1 * x1 * x1 * x1).scale(-27))
    series = bare_series(flows, x1.scale(Q(-1, 2)), K)
    poles = [Q(-1), Q(-2), Q(-3)]
    ps = pole_sum(3, poles)

    def state(t):
        jet = ps.jet(t, 2)
        r = -sum(math.log(float(t - a)) for a in poles) / 12.0
        return r, {1: float(jet[0]), 2: float(jet[1]), 3: float(jet[2])}

    return WideSolution(series, state)


def test_addendum_pointwise_form():
    sol = addendum_solution()
    t = 1.5
    prefactor = ((t + 1) * (t + 2) * (t + 3)) ** (-1 / 12)
    assert abs(sol.psi(0.0, t) - prefactor) < 1e-12


def test_addendum_numeric_residual():
    sol = addendum_solution()
    zg = [-0.5 + i / 10 for i in range(11)]
    tg = [1.0 + 0.04 * i for i in range(6)]
    report = grid_heat_residual(sol, zg, tg, 1e-3)
    assert report.max_residual <= 1e-6


def test_addendum_side_condition():
    # r'(t) equals half the seed coefficient along the pole data
    poles = [Q(-1), Q(-2), Q(-3)]
    ps = pole_sum(3, poles)
    for t in (Q(1), Q(3, 2)):
        jet = ps.jet(t, 0)
        r_rate = -Q(1, 12) * sum(1 / (t - a) for a in poles)
        assert r_rate == Q(-1, 4) * jet[0]


# -- the per-time cache of the assembled solutions ---------------------------------------

THREE_POLES = [Q(-1), Q(-2), Q(-3)]


def level_two_spec_series():
    cl = closing(2, [24])
    return SystemSpec.reduced(2, delta=1, closing=cl), ansatz_series(2, cl, default_c(1), 1, 10)


def trajectory_solution():
    spec, series = level_two_spec_series()
    s0 = SystemState(0.0, 0.05, 0.2, (0.25, -0.1))
    return AnsatzSolution(spec, series, trajectory_provider(spec, s0, 2.5e-4))


def pole_solution():
    spec, series = level_two_spec_series()
    return AnsatzSolution(spec, series, pole_state_provider(2, 3, THREE_POLES, 1))


def part_hexes(sol, z, t):
    value, dzz, tail = sol.parts(z, t)
    assert sol.psi(z, t) == value
    return [v.hex() for v in (value, dzz, tail)]


@pytest.mark.parametrize("make, times", [
    (trajectory_solution, [0.003 + 0.0071 * i for i in range(3 * heat.TIME_CACHE)]),
    (pole_solution, [1.0 + 0.0371 * i for i in range(3 * heat.TIME_CACHE)]),
    (addendum_solution, [1.0 + 0.0371 * i for i in range(3 * heat.TIME_CACHE)]),
], ids=["trajectory", "poles", "wide"])
def test_cached_parts_match_a_fresh_solution_in_any_query_order(make, times):
    # more distinct times than the cache keeps, each asked at several z and
    # again later, so answers come both from the cache and after eviction
    assert len(times) > heat.TIME_CACHE
    queries = [(z, t) for t in times for z in (-0.4, 0.1, 0.35)] * 2
    for seed in range(3):
        random.Random(seed).shuffle(queries)
        sol = make()
        for z, t in queries:
            assert part_hexes(sol, z, t) == part_hexes(make(), z, t)


def test_an_exact_time_and_the_equal_float_are_cached_apart():
    # the pole provider answers a Fraction time in exact arithmetic and a
    # float time in floats, and the two give different bits
    differ = 0
    for num in range(8, 15):
        exact = Q(num, 7)
        sol = pole_solution()
        at_exact = part_hexes(sol, 0.3, exact)
        at_float = part_hexes(sol, 0.3, float(exact))
        assert at_exact == part_hexes(pole_solution(), 0.3, exact)
        assert at_float == part_hexes(pole_solution(), 0.3, float(exact))
        differ += at_exact != at_float
    assert differ > 0


@pytest.mark.parametrize("make, t", [(trajectory_solution, 0.003), (pole_solution, 1.0),
                                     (addendum_solution, 1.0)], ids=["trajectory", "poles", "wide"])
def test_a_solution_is_freed_with_its_last_reference(make, t):
    # the per-time cache must not point back at its solution: no reference
    # cycle, so the solution goes without the cycle collector
    sol = make()
    sol.psi(0.1, t)
    gone = weakref.ref(sol)
    gc.disable()
    try:
        del sol
        assert gone() is None
    finally:
        gc.enable()


def test_grid_residual_reads_each_state_once_per_time():
    spec, series = level_two_spec_series()
    provider = pole_state_provider(2, 3, THREE_POLES, 1)
    asked = []

    def counted(t):
        asked.append(t)
        return provider(t)

    zg = [-0.5 + i / 10 for i in range(11)]
    tg = [1.0 + 0.04 * i for i in range(3)]
    grid_heat_residual(AnsatzSolution(spec, series, counted), zg, tg, 1e-3)
    # t - fd, t + fd and t per grid time, then t -/+ fd/2 at the worst point
    assert len(asked) == len(set(asked)) == 3 * len(tg) + 2


# -- conservation ----------------------------------------------------------------------

def test_gaussian_integral_constant():
    psi = fundamental_psi(0.0)
    Z = gaussian_halfwidth(4.0)
    values = [conserved_integral(psi, t, Z) for t in (1.0, 2.0, 4.0)]
    for v in values:
        assert abs(v - math.sqrt(2 * math.pi)) < 1e-10
    assert max(values) - min(values) < 1e-10


def test_odd_solution_integrates_to_zero():
    # the odd level-0 solution z * exp(-z^2/(2t))/t^(3/2)
    def psi(z, t):
        return z * math.exp(-z * z / (2 * t)) / t ** 1.5

    Z = gaussian_halfwidth(4.0)
    for t in (1.0, 3.0):
        assert abs(conserved_integral(psi, t, Z)) < 1e-10


def test_derivative_solutions_integrate_to_zero():
    Z = gaussian_halfwidth(4.0)
    for k in (1, 2, 3):
        psi = fundamental_psi(0.0, k)
        for t in (1.0, 2.0):
            assert abs(conserved_integral(psi, t, Z)) < 1e-10


@pytest.mark.parametrize("psi", [
    lambda z, t: math.nan,
    lambda z, t: 1.0 if z > 0.1 else 0.0,  # the difference of successive sums stays h/4
], ids=["nan", "step"])
def test_unsettled_integral_raises(psi):
    with pytest.raises(Unsettled) as info:
        conserved_integral(psi, 2.0, gaussian_halfwidth(4.0))
    assert info.value.t == 2.0
    assert "t = 2.0" in str(info.value)
    assert not info.value.difference <= 1e-13


def test_gaussian_halfwidth_bound():
    # the quoted tail bound really is below tolerance at the returned width
    for s in (0.5, 1.0, 4.0):
        tol = 1e-13
        Z = gaussian_halfwidth(s, tol)
        assert (2 * s / Z) * math.exp(-Z * Z / (2 * s)) <= tol
        assert gaussian_halfwidth(s, tol, k=0) == Z
        for k in (1, 2, 3, 4):
            # the exact tail 2 sqrt(s) He_{k-1}(X) exp(-X^2/2), X past the zeros of He_k
            X = gaussian_halfwidth(s, tol, k) / math.sqrt(s)
            assert X * X >= 4 * k + 2
            he = [float(v) for v in hermite(k - 1)]
            assert 2 * math.sqrt(s) * abs(hermite_eval(he, X)) * math.exp(-X * X / 2) <= tol


def test_hermite_width_integrates_a_derivative_solution_to_zero():
    # the plain Gaussian width leaves about 3.9e-13 of this integrand outside [-Z, Z]
    Z = gaussian_halfwidth(4.0, k=2)
    assert abs(conserved_integral(fundamental_psi(0.0, 2), 4.0, Z)) <= 1e-13


# -- exact polynomial solutions -----------------------------------------------------

def test_polynomial_solution_fault_detection():
    for k in (2, 3, 5):
        monomial = [Q(0)] * k + [Q(1)]
        assert not polynomial_solution_check(k, monomial)


def test_polynomial_solution_rejects_every_single_coefficient_change():
    for k in range(11):
        he = hermite(k)
        for i in range(k + 3):  # two slots past the top coefficient too
            if i == k <= 1:
                continue  # He_0 = 1 and He_1 = x change into multiples of themselves
            for bump in (Q(1), Q(-1, 3)):
                changed = he + [Q(0)] * (i + 1 - len(he))
                changed[i] += bump
                assert not polynomial_solution_check(k, changed), (k, i, bump)


def test_polynomial_solution_accepts_multiples():
    for k in range(11):
        for c in (Q(0), Q(1), Q(-2), Q(7, 3)):
            assert polynomial_solution_check(k, [c * v for v in hermite(k)])


def test_fundamental_psi_solves_the_heat_equation():
    # central differences: the reduced Hermite equation really is the PDE
    eps = 1e-4
    for k in range(6):
        psi = fundamental_psi(0.25, k)
        for z, t in ((0.3, 1.1), (-0.8, 1.7), (1.2, 2.5)):
            u_t = (psi(z, t + eps) - psi(z, t - eps)) / (2 * eps)
            u_zz = (psi(z + eps, t) - 2 * psi(z, t) + psi(z - eps, t)) / eps ** 2
            scale = max(abs(u_t), abs(u_zz), 1e-3)
            assert abs(u_t - u_zz / 2) <= 1e-6 * scale, (k, z, t)


def test_fundamental_derivative_matches_finite_difference():
    psi0 = fundamental_psi(0.0)
    psi1 = fundamental_psi(0.0, 1)
    z, t, eps = 0.4, 1.7, 1e-6
    fd = (psi0(z + eps, t) - psi0(z - eps, t)) / (2 * eps)
    assert abs(psi1(z, t) - fd) < 1e-8
