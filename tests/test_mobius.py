"""The unimodular action: displays, group law, jet transport, consistency."""

import math
import random
from fractions import Fraction as Q

import pytest

from heatode.algebra import GradedPoly, closing_monomials
from heatode.jets import family_ode, hierarchy_ode
from heatode.mobius import (
    BranchCut,
    ExactHeatValue,
    Mobius,
    PoleOfAction,
    act_on_h,
    act_on_psi,
    act_on_r,
    act_on_x,
    transformed_h_jet,
)
from heatode.series import ansatz_series, default_c
from heatode.systems import pole_sum


def closing(n, coeffs):
    return GradedPoly({m: Q(c) for m, c in zip(closing_monomials(n), coeffs)})


def rand_mobius(rng, steps=3):
    """Random unimodular rational matrix as a product of shear generators."""
    m = Mobius.identity()
    for _ in range(steps):
        up = Mobius(Q(1), Q(rng.randint(-3, 3), rng.randint(1, 4)), Q(0), Q(1))
        low = Mobius(Q(1), Q(0), Q(rng.randint(-3, 3), rng.randint(1, 4)), Q(1))
        m = m @ up @ low
    return m


INVERSION = Mobius(Q(0), Q(-1), Q(1), Q(0))


# -- matrices -------------------------------------------------------------------

def test_mobius_compose_and_inverse():
    rng = random.Random(2)
    for _ in range(10):
        m = rand_mobius(rng)
        assert m.det() == 1
        both = m @ m.inverse()
        assert (both.a, both.b, both.c, both.d) == (1, 0, 0, 1)


def test_mobius_unimodular_guard():
    bad = Mobius(Q(2), Q(0), Q(0), Q(1))
    assert not bad.is_unimodular()
    with pytest.raises(ValueError):
        bad.require_unimodular()


# -- scalar actions ---------------------------------------------------------------

def test_act_on_h_identity():
    h = lambda t: 1 / (1 + t * t)
    assert act_on_h(Mobius.identity(), h, Q(3)) == h(Q(3))


def test_act_on_h_inversion_of_zero():
    # the zero solution maps to the fundamental pole 1/t
    zero = lambda t: Q(0)
    for t in (Q(1), Q(5), Q(-2, 3)):
        assert act_on_h(INVERSION, zero, t) == 1 / t


def test_act_on_h_composition():
    rng = random.Random(13)
    h = lambda t: Q(3) / (t - 7) + t
    for _ in range(10):
        m1, m2 = rand_mobius(rng), rand_mobius(rng)
        t = Q(rng.randint(20, 40), rng.randint(1, 3))
        try:
            lhs = act_on_h(m2, lambda s: act_on_h(m1, h, s), t)
            rhs = act_on_h(m1 @ m2, h, t)
        except (PoleOfAction, ZeroDivisionError):
            continue
        assert lhs == rhs


def test_act_on_h_pole_of_action():
    m = Mobius(Q(1), Q(0), Q(1), Q(-2))
    with pytest.raises(PoleOfAction):
        act_on_h(m, lambda t: Q(0), Q(2))


def test_act_on_r_inversion():
    r = lambda t: 0.0
    for t in (1.0, 2.0, 7.5):
        assert abs(act_on_r(INVERSION, r, 0, t) - (-0.5 * math.log(t))) < 1e-14


def test_act_on_r_delta_shift():
    # the odd sector adds one more power of (ct+d), i.e. -log(ct+d) in r
    m = Mobius(Q(1), Q(0), Q(1), Q(1))
    r = lambda t: 0.3 * t
    for t in (0.5, 2.0):
        gap = act_on_r(m, r, 1, t) - act_on_r(m, r, 0, t)
        assert abs(gap + math.log(float(m.denom(t)))) < 1e-14


def test_act_on_r_branch_cut():
    m = Mobius(Q(1), Q(0), Q(1), Q(-3))
    with pytest.raises(BranchCut):
        act_on_r(m, lambda t: 0.0, 0, 1.0)  # ct+d = -2


def test_act_on_x_identity_and_scaling():
    x = lambda t: t * t
    assert act_on_x(Mobius.identity(), x, 2, Q(5)) == 25
    s = Q(3)
    scaling = Mobius(s, Q(0), Q(0), 1 / s)
    for k in (2, 3):
        for t in (Q(2), Q(1, 2)):
            assert act_on_x(scaling, x, k, t) == s ** (2 * k) * x(s * s * t)


def test_act_on_x_exponent_law():
    m = Mobius(Q(1), Q(0), Q(1), Q(1))
    one = lambda t: Q(1)
    t = Q(3)
    w = m.denom(t)
    assert act_on_x(m, one, 2, t) * w ** 4 == 1
    assert act_on_x(m, one, 3, t) * w ** 6 == 1


# -- the full action ---------------------------------------------------------------

def test_act_on_psi_of_one_is_fundamental():
    # the constant solution maps to the Gaussian kernel
    one = lambda z, t: 1.0
    for z, t in ((0.2, 1.5), (0.5, 3.0)):
        got = act_on_psi(INVERSION, one, z, t)
        expect = t ** -0.5 * math.exp(-z * z / (2 * t))
        assert abs(got - expect) < 1e-14


def test_act_on_psi_identity():
    psi = lambda z, t: math.sin(z) + t
    assert act_on_psi(Mobius.identity(), psi, 0.7, 2.0) == psi(0.7, 2.0)


def test_group_law_exact_on_rational_samplers():
    rng = random.Random(37)

    def psi(z, t):
        return ExactHeatValue.plain(Q(1) / (1 + t * t) + z * z * t - z ** 4)

    checked = 0
    while checked < 20:
        m1, m2 = rand_mobius(rng), rand_mobius(rng)
        z = Q(rng.randint(-3, 3), rng.randint(1, 5))
        t = Q(rng.randint(-9, 9), rng.randint(1, 5))
        try:
            lhs = act_on_psi(m2, lambda zz, tt: act_on_psi(m1, psi, zz, tt), z, t)
            rhs = act_on_psi(m1 @ m2, psi, z, t)
        except (PoleOfAction, ZeroDivisionError):
            continue
        assert lhs == rhs
        checked += 1


def test_exact_heat_value_float():
    v = ExactHeatValue(Q(4), Q(0), Q(6))
    assert abs(v.as_float() - 3.0) < 1e-15
    with pytest.raises(BranchCut):
        ExactHeatValue(Q(-1), Q(0), Q(1)).as_float()


# -- jets of the transformed solution -----------------------------------------------

def test_transformed_jet_matches_transformed_pole_sum():
    # with b = n+1 the transformed pole sum is again a pole sum with
    # poles a~ = (a d - b)/(a_mat - a c); compare jets exactly
    rng = random.Random(41)
    for n in (0, 1, 2, 3):
        b = Q(n + 1)
        checked = 0
        while checked < 4:
            poles = []
            while len(poles) < n + 1:
                v = Q(rng.randint(-12, 12), rng.randint(1, 4))
                if v not in poles:
                    poles.append(v)
            ps = pole_sum(b, poles)
            m = rand_mobius(rng)
            t = Q(rng.randint(30, 60), rng.randint(1, 3))
            if any(m.a - a * m.c == 0 for a in poles) or m.denom(t) == 0:
                continue
            new_poles = [(a * m.d - m.b) / (m.a - a * m.c) for a in poles]
            if len(set(new_poles)) < len(new_poles) or any(t == a for a in new_poles):
                continue
            expected = pole_sum(b, new_poles).jet(t, n + 2)
            got = transformed_h_jet(m, ps.jet, t, n + 2)
            assert got == expected
            checked += 1


def test_transformed_solutions_keep_zero_residual():
    # the action preserves each matched family, seen exactly on jets
    rng = random.Random(43)
    families = {
        0: hierarchy_ode(1),
        1: hierarchy_ode(2),
        2: family_ode(2, closing(2, [-3])),
        3: family_ode(3, closing(3, [-16])),
    }
    for n, ode in families.items():
        checked = 0
        while checked < 5:
            poles = []
            while len(poles) < n + 1:
                v = Q(rng.randint(-10, 10), rng.randint(1, 3))
                if v not in poles:
                    poles.append(v)
            ps = pole_sum(n + 1, poles)
            m = rand_mobius(rng)
            t = Q(rng.randint(25, 55), rng.randint(1, 4))
            if m.denom(t) == 0:
                continue
            try:
                jet = transformed_h_jet(m, ps.jet, t, n + 1)
            except (PoleOfAction, ZeroDivisionError):
                continue
            assert ode.eval(jet) == 0
            checked += 1


def test_consistency_square_state_vs_psi():
    # closed-form level-2 data: transform the state then assemble, or
    # assemble then transform; both must agree on a float grid
    from heatode.heat import AnsatzSolution, pole_state_provider
    from heatode.systems import SystemSpec

    cl = closing(2, [24])
    spec = SystemSpec.reduced(2, delta=1, closing=cl)
    series = ansatz_series(2, cl, default_c(1), 1, 10)
    poles = [Q(-1), Q(-2), Q(-3)]
    provider = pole_state_provider(2, 3, poles, 1)
    sol = AnsatzSolution(spec, series, provider)

    def h(t):
        return float(provider(t).h)

    def r(t):
        return float(provider(t).r)

    def xk(k):
        return lambda t: float(provider(t).x[k - 2])

    matrices = [
        Mobius(Q(1), Q(1, 3), Q(0), Q(1)),
        Mobius(Q(1), Q(0), Q(1, 4), Q(1)),
        Mobius(Q(1), Q(1, 2), Q(1, 5), Q(11, 10)),
    ]
    for m in matrices:
        m_float = Mobius(float(m.a), float(m.b), float(m.c), float(m.d))
        for t in (1.0, 1.4):
            for z in (0.1, 0.4):
                h_hat = act_on_h(m_float, h, t)
                r_hat = act_on_r(m_float, r, 1, t)
                x_hat = {k: act_on_x(m_float, xk(k), k, t) for k in (2, 3)}
                series_sum = z
                for k in range(2, 11):
                    pk = series.coeff(k)
                    if pk:
                        series_sum += float(pk.eval(x_hat)) * z ** (2 * k + 1) \
                            / math.factorial(2 * k + 1)
                state_side = math.exp(-0.5 * h_hat * z * z + r_hat) * series_sum
                psi_side = act_on_psi(m_float, sol.psi, z, t)
                assert abs(state_side - psi_side) <= 1e-10 * max(1.0, abs(psi_side))
