"""Dynamical systems: flows, RK4, pole-sum solutions, changes of variables."""

import math
import random
from fractions import Fraction as Q

import pytest

from heatode import suites, systems
from heatode.algebra import GradedPoly, closing_from_coeffs as closing
from heatode.jets import JetTooShort, family_ode, hierarchy_ode, pole_sum_ode
from heatode.series import default_c
from heatode.systems import (
    EXACT_BITS,
    BlowUp,
    ExactTooLarge,
    PoleHit,
    SingularTransform,
    SystemSpec,
    SystemState,
    integrate_rk4,
    lift_jet,
    pole_sum,
    sigma_reduction,
    transform_system,
    vector_field,
    weierstrass_system,
)


def rand_rationals(rng, count, distinct=True):
    out = []
    while len(out) < count:
        v = Q(rng.randint(-24, 24), rng.randint(1, 9))
        if not distinct or v not in out:
            out.append(v)
    return out


# -- the vector field ----------------------------------------------------------

def test_vector_field_level_zero():
    spec = SystemSpec.reduced(0, delta=1)
    d = vector_field(spec, SystemState(Q(0), Q(0), Q(2), ()))
    assert d == (Q(-3), Q(-4))


def test_vector_field_level_two():
    c4 = Q(7)
    spec = SystemSpec.reduced(2, delta=0, closing=closing(2, [c4]))
    state = SystemState(Q(0), Q(0), Q(2), (Q(3), Q(5)))
    dr, dh, dx2, dx3 = vector_field(spec, state)
    assert dr == Q(-1)
    assert dh == -4 + 3          # -h^2 + x2 at the default c
    assert dx2 == 5 - 4 * 2 * 3  # x3 - 4 h x2
    assert dx3 == c4 * 9 - 6 * 2 * 5


def test_vector_field_zero_state():
    spec = SystemSpec.reduced(3, delta=0, closing=closing(3, [2]))
    z = SystemState(Q(0), Q(0), Q(0), (Q(0),) * 3)
    assert all(v == 0 for v in vector_field(spec, z))


def test_vector_field_general_c_matches_default():
    # dh/dt = -h^2 + x2 is the explicit-c formula at c = -2(1+2*delta)
    for delta in (0, 1):
        spec = SystemSpec.reduced(2, delta=delta, closing=closing(2, [3]))
        assert spec.c == default_c(delta)
        state = SystemState(Q(0), Q(1), Q(5), (Q(2), Q(11)))
        dh = vector_field(spec, state)[1]
        assert dh == -25 + 2


# -- integration ----------------------------------------------------------------

def test_rk4_against_closed_form():
    # level 0: h' = -h^2 from h(0) = 1 has h(t) = 1/(t+1)
    spec = SystemSpec.reduced(0, delta=0)
    s0 = SystemState(0.0, 0.0, 1.0, ())
    for step, bound in ((0.1, 1e-6), (0.05, 1e-7)):
        traj = integrate_rk4(spec, s0, 1.0, step)
        err = max(abs(s.h - 1 / (s.t + 1)) for s in traj)
        assert err < bound


def test_rk4_r_equation_tracks_h_integral():
    # r(t) - r(0) = -(delta + 1/2) * integral of h, both through the same flow
    spec = SystemSpec.reduced(0, delta=0)
    traj = integrate_rk4(spec, SystemState(0.0, 0.0, 1.0, ()), 1.0, 0.01)
    expect = -0.5 * math.log(2.0)  # integral of 1/(t+1) over [0,1]
    assert abs(traj[-1].r - expect) < 1e-8


def test_rk4_exact_mode():
    spec = SystemSpec.reduced(1, delta=0)
    s0 = SystemState(Q(0), Q(0), Q(1), (Q(1, 2),))
    traj = integrate_rk4(spec, s0, Q(1, 2), Q(1, 4))
    assert all(isinstance(s.h, Q) for s in traj)
    assert traj[-1].t == Q(1, 2)
    # one hand-checked step: k1 = f(s0) has dh = -1 + 1/2 = -1/2
    assert vector_field(spec, s0)[1] == Q(-1, 2)


def test_rk4_exact_refuses_a_state_over_the_bit_bound():
    spec = SystemSpec.reduced(0, delta=0)
    s0 = SystemState(Q(0), Q(0), Q(1, 2 ** EXACT_BITS), ())  # EXACT_BITS + 1 bits
    with pytest.raises(ExactTooLarge) as err:
        integrate_rk4(spec, s0, Q(1), Q(1))
    assert isinstance(err.value, ValueError)
    assert "float mode" in str(err.value)


def test_rk4_exact_three_steps_stay_under_the_bit_bound():
    # from this state the third step ends near 30000 bits, the fourth near 485000
    spec = SystemSpec.reduced(2, delta=1, closing=closing(2, [24]))
    s0 = SystemState(Q(0), Q(0), Q(1, 4), (Q(1, 5), Q(-3, 20)))
    traj = integrate_rk4(spec, s0, Q(3, 10), Q(1, 10))
    assert len(traj) == 4
    assert all(isinstance(v, Q) for v in traj[-1].row())


def test_rk4_blowup_guard():
    # h(0) = -1 gives h = 1/(t-1), blowing up at t = 1
    spec = SystemSpec.reduced(0, delta=0)
    with pytest.raises(BlowUp) as err:
        integrate_rk4(spec, SystemState(0.0, 0.0, -1.0, ()), 2.0, 0.001, h_bound=1e6)
    assert 0.9 < err.value.t_star < 1.1
    assert err.value.trajectory


def test_rk4_non_finite_state_trips_an_infinite_guard():
    # with no bound on |h|, h overflows to -inf past t = 1 and r to inf: the run stops there
    spec = SystemSpec.reduced(0, delta=0)
    with pytest.raises(BlowUp) as err:
        integrate_rk4(spec, SystemState(0.0, 0.0, -1.0, ()), 2.0, 0.01, h_bound=math.inf)
    assert 1.0 < err.value.t_star < 1.1
    assert all(math.isfinite(v) for s in err.value.trajectory for v in s.row())


def test_rk4_finite_state_near_the_float_limit_is_not_flagged():
    spec = SystemSpec.reduced(0, delta=0)
    for r in (1.7e308, -1.7e308):
        trajectory = integrate_rk4(spec, SystemState(0.0, r, 1e-3, ()), 1.0, 0.1, h_bound=math.inf)
        assert len(trajectory) == 11
        assert all(math.isfinite(v) for s in trajectory for v in s.row())
        assert abs(trajectory[-1].r) > 1e308


def test_rk4_step_validation():
    spec = SystemSpec.reduced(0, delta=0)
    s0 = SystemState(Q(0), Q(0), Q(1), ())
    with pytest.raises(ValueError):
        integrate_rk4(spec, s0, Q(1), Q(0))
    with pytest.raises(ValueError):
        integrate_rk4(spec, s0, Q(1), Q(3, 7))  # span not a multiple of step


def test_rk4_refuses_a_step_count_past_the_bound_before_any_step(monkeypatch):
    spec = SystemSpec.reduced(2, delta=0, closing=closing(2, [24]))
    monkeypatch.setattr(systems, "_compiled", None)  # a run that starts stepping fails on this
    for s0, t_end, step in ((SystemState(Q(0), Q(0), Q(1), (Q(1), Q(2))), Q(1),
                             Q(1, systems.MAX_STEPS + 1)),
                            (SystemState(0.0, 0.0, 1.0, (1.0, 2.0)), 1.0, 1e-9)):
        with pytest.raises(ValueError, match=f"past the bound of {systems.MAX_STEPS} steps"):
            integrate_rk4(spec, s0, t_end, step)


def test_lift_flow_consistency_along_trajectory():
    # the finite-difference slope of x_k matches x_{k+1} - 2k h x_k to O(step^2)
    spec = SystemSpec.reduced(2, delta=0, closing=closing(2, [24]))
    s0 = SystemState(0.0, 0.0, 0.3, (0.4, -0.2))

    def worst_gap(step):
        traj = integrate_rk4(spec, s0, 0.2, step)
        worst = 0.0
        for before, middle, after in zip(traj, traj[1:], traj[2:]):
            slopes = [(a - b) / (2 * step) for a, b in zip(after.x, before.x)]
            field = vector_field(spec, middle)[2:]
            worst = max(worst, max(abs(s - f) for s, f in zip(slopes, field)))
        return worst

    coarse, fine = worst_gap(1e-3), worst_gap(5e-4)
    assert coarse < 100 * 1e-3 ** 2
    assert 2.5 < coarse / fine < 6  # second-order central-difference scaling


# -- pole sums -------------------------------------------------------------------

def test_pole_sum_jet_values():
    ps = pole_sum(1, [0])
    assert ps.jet(Q(1), 2) == [Q(1), Q(-1), Q(2)]  # h = 1/t at t = 1
    ps2 = pole_sum(2, [0, 2])
    jet = ps2.jet(Q(1), 1)
    assert jet[0] == 0 and jet[1] == -1


def test_pole_sum_pole_hit():
    with pytest.raises(PoleHit):
        pole_sum(1, [0, 2]).jet(Q(2), 1)


def test_pole_sum_newton_power_sums():
    # cross-check identity: -b/q! h^(q)(t) equals the power sum of 1/(a_k - t)
    rng = random.Random(71)
    ps = pole_sum(Q(5, 2), rand_rationals(rng, 4))
    t = Q(101, 3)
    jet = ps.jet(t, 5)
    fact = 1
    for q in range(6):
        power_sum = sum((1 / (a - t)) ** (q + 1) for a in ps.poles)
        assert -ps.b / fact * jet[q] == power_sum
        fact *= q + 1


def test_integral_jet_values():
    # h = 1/t at t = 3/2: t - 0 = 3/2, lam = 1*3, jet[q] = 3^(q+1) h^(q)(3/2)
    lam, jet = pole_sum(1, [0]).integral_jet(Q(3, 2), 2)
    assert lam == 3 and jet == [2, -4, 16]
    assert all(type(v) is int for v in jet)


def test_integral_jet_pole_hit():
    with pytest.raises(PoleHit):
        pole_sum(1, [0, 2]).integral_jet(Q(2), 1)
    with pytest.raises(PoleHit):
        pole_sum(1, [0, 2]).integral_jet(2, 1)


@pytest.mark.parametrize("t", [2.5, 2.0, float("nan"), 1e300])
def test_integral_jet_rejects_float_t(t):
    with pytest.raises(TypeError, match="exact-only"):
        pole_sum(1, [0, 2]).integral_jet(t, 1)


def test_integral_jet_with_non_integral_b():
    # b = 1/2: lam uses numerator(b) = 1 and every entry carries den(b) = 2
    ps = pole_sum(Q(1, 2), [Q(1, 3), Q(-2, 5)])
    t = Q(7, 4)
    lam, jet = ps.integral_jet(t, 4)
    assert lam == math.lcm(17, 43)     # t - a_k = 17/12, 43/20
    assert all(type(v) is int and v % 2 == 0 for v in jet)
    assert jet == [lam ** (q + 1) * v for q, v in enumerate(ps.jet(t, 4))]
    ps3 = pole_sum(Q(-3, 2), [Q(1, 3), Q(-2, 5)])
    lam3, jet3 = ps3.integral_jet(t, 3)
    assert lam3 == -3 * lam
    assert jet3 == [lam3 ** (q + 1) * v for q, v in enumerate(ps3.jet(t, 3))]


JET_FAULTS = {
    "power": lambda lam, jet: (lam, [Q(v, lam) for v in jet]),   # lam^q h^(q): not homogeneous
    "sign": lambda lam, jet: (lam, [jet[0], -jet[1], *jet[2:]]),
}


@pytest.mark.parametrize("fault", ["power", "sign", "strength"])
def test_rational_suite_fails_on_a_planted_fault(monkeypatch, fault):
    assert suites.run_suite("rational", seed=3, max_n=4)["passed"]
    if fault in JET_FAULTS:
        exact_jet = systems.PoleSum.integral_jet
        monkeypatch.setattr(systems.PoleSum, "integral_jet",
                            lambda ps, t, m: JET_FAULTS[fault](*exact_jet(ps, t, m)))
    else:  # b = n + 1 swapped for b = n (b = 0 is no ODE, so level 0 keeps its b)
        exact_ode = suites.pole_sum_ode
        monkeypatch.setattr(suites, "pole_sum_ode",
                            lambda n, b=None: exact_ode(n, n if n and b == n + 1 else b))
    report = suites.run_suite("rational", seed=3, max_n=4)
    assert report["passed"] is False
    failed = [c["case"] for c in report["cases"] if not c["pass"]]
    assert failed == [f"pole-sum-n{n}" for n in range(0 if fault in JET_FAULTS else 1, 5)]


def test_pole_sum_requires_distinct_poles():
    with pytest.raises(ValueError):
        pole_sum(2, [1, 1])


def test_pole_sums_solve_determinant_family():
    rng = random.Random(41)
    for n in range(7):
        ode = pole_sum_ode(n, n + 1)
        for _ in range(5):
            ps = pole_sum(n + 1, rand_rationals(rng, n + 1))
            t = Q(rng.randint(25, 60), rng.randint(1, 4))
            assert ode.eval(ps.jet(t, n + 1)) == 0


def test_wrong_pole_strength_breaks_residual():
    rng = random.Random(43)
    hits = 0
    for _ in range(20):
        ps = pole_sum(3, rand_rationals(rng, 3))
        t = Q(rng.randint(25, 60), 3)
        jet = ps.jet(t, 3)
        if pole_sum_ode(2, 2).eval(jet) != 0:
            hits += 1
    assert hits >= 19


def test_matched_families_vanish_on_pole_sums():
    rng = random.Random(47)
    constants = {2: [-3], 3: [-16], 4: [-45, -26, -31]}
    for n, coeffs in constants.items():
        ode = family_ode(n, closing(n, coeffs))
        for _ in range(5):
            ps = pole_sum(n + 1, rand_rationals(rng, n + 1))
            t = Q(rng.randint(25, 80), rng.randint(1, 5))
            assert ode.eval(ps.jet(t, n + 1)) == 0


def test_level_one_general_solution():
    rng = random.Random(53)
    d2 = hierarchy_ode(2)
    for _ in range(5):
        a, b = rand_rationals(rng, 2)
        ps = pole_sum(2, [a, b])
        t = Q(rng.randint(30, 90), 7)
        assert d2.eval(ps.jet(t, 2)) == 0
        # the lift reproduces x2 = -(1/4)(1/(t-a) - 1/(t-b))^2
        x2 = lift_jet(ps.jet(t, 1), 1)[0]
        assert x2 == -Q(1, 4) * (1 / (t - a) - 1 / (t - b)) ** 2


def test_level_one_degenerate_collapse():
    # coinciding poles collapse to the level-0 solution h = 1/(t-a)
    d1 = hierarchy_ode(1)
    ps = pole_sum(1, [Q(3)])
    assert d1.eval(ps.jet(Q(5), 1)) == 0


def test_lift_jet_values():
    assert lift_jet([Q(1), Q(-1)], 1) == (Q(0),)
    with pytest.raises(JetTooShort):
        lift_jet([Q(1)], 1)


def test_lift_matches_symbolic_substitution():
    # x3 = x2' + 4 h x2 expanded symbolically equals the third hierarchy slot
    rng = random.Random(59)
    ps = pole_sum(3, rand_rationals(rng, 3))
    t = Q(17, 3)
    jet = ps.jet(t, 3)
    x2, x3, x4 = lift_jet(jet, 3)
    # slope of x2 via the jet chain rule: d/dt F_1 = F_1' evaluated directly
    from heatode.jets import total_derivative
    d1 = hierarchy_ode(1)
    assert x3 == total_derivative(d1).eval(jet) + 4 * jet[0] * x2
    assert x4 == total_derivative(hierarchy_ode(2)).eval(jet) + 6 * jet[0] * x3


def test_addendum_three_pole_flow():
    # x1 = (1/3) sum 1/(t - a_k) satisfies the displayed third-order flow
    rng = random.Random(61)
    for _ in range(5):
        poles = rand_rationals(rng, 3)
        ps = pole_sum(3, poles)
        t = Q(rng.randint(30, 70), rng.randint(1, 3))
        x1, x2, x3, x3dot = ps.jet(t, 3)
        assert x3dot == -3 * (4 * x1 * x3 + 3 * x2 ** 2 + 18 * x2 * x1 ** 2 + 9 * x1 ** 4)


# -- changes of variables ----------------------------------------------------------

def test_transform_identity():
    spec = SystemSpec.reduced(2, delta=1, closing=closing(2, [24]))
    same = transform_system(spec, [(Q(1), None), (Q(1), None)])
    assert same == spec
    level_zero = SystemSpec.reduced(0, delta=1)
    assert transform_system(level_zero, []) == level_zero  # no coordinate, so c is kept


def test_transform_rejects_singular():
    spec = SystemSpec.reduced(2, delta=0, closing=closing(2, [1]))
    with pytest.raises(SingularTransform):
        transform_system(spec, [(Q(0), None), (Q(1), None)])


def test_transform_round_trip():
    spec = SystemSpec.reduced(3, delta=0, closing=closing(3, [5]))
    c2, c3, c4 = Q(3), Q(-2), Q(1, 5)
    shear = (GradedPoly.variable(2) * GradedPoly.variable(2)).scale(Q(7, 2))
    fwd = transform_system(spec, [(c2, None), (c3, None), (c4, shear)])
    # undo: x_4 = (X_4 - q(x_2))/c_4 with x_2 rewritten in the new variables
    back_shear = shear.subst({2: GradedPoly.variable(2, 1 / c2)}).scale(-1 / c4)
    back = transform_system(
        fwd, [(1 / c2, None), (1 / c3, None), (1 / c4, back_shear)])
    assert back == spec


def test_transformed_flows_keep_the_term_order_of_the_scale_plus_derive_chain():
    # each sigma reduction against X_k' = c_k p_{k+1} + (derivative of q_k along
    # the old flows), then back to X, built as a chain of polynomials
    g2 = GradedPoly.variable(2)
    cases = ((2, weierstrass_system(), [(Q(1, 12), None), (Q(1, 2), None)]),
             (3, systems.weierstrass_deformed_system(),
              [(Q(1, 12), None), (Q(1, 2), None), (Q(1), (g2 * g2).scale(Q(1, 6)))]))
    for case, spec, rows in cases:
        inverse = {}
        for k, (ck, q) in enumerate(rows, start=2):
            inverse[k] = (GradedPoly.variable(k) - (q or GradedPoly.zero()).subst(inverse)).scale(1 / ck)
        old_flows = dict(enumerate(spec.flows, start=2))
        expect = [(p.scale(ck) + (q or GradedPoly.zero()).derive(old_flows)).subst(inverse)
                  for p, (ck, q) in zip(spec.flows, rows)]
        got = sigma_reduction(case).flows
        assert [list(f.terms.items()) for f in got] == [list(f.terms.items()) for f in expect]


def test_sigma_reduction_level_two():
    red = sigma_reduction(2)
    assert red == SystemSpec.reduced(2, 1, closing(2, [24]))
    assert red.c == Q(-6)


def test_sigma_reduction_level_three():
    red = sigma_reduction(3)
    assert red == SystemSpec.reduced(3, 1, closing(3, [48]))
    assert red.c == Q(-6)


def test_weierstrass_flow_values():
    # g2' = 6 g3 - 4 h g2 and g3' = g2^2/3 - 6 h g3 on the (ds) system
    spec = weierstrass_system()
    state = SystemState(Q(0), Q(0), Q(2), (Q(3), Q(5)))
    dr, dh, dg2, dg3 = vector_field(spec, state)
    assert dr == Q(-3)
    assert dh == -4 + Q(3, 12)
    assert dg2 == 6 * 5 - 4 * 2 * 3
    assert dg3 == Q(9, 3) - 6 * 2 * 5
