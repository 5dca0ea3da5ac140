"""The unimodular action: displays, group law, jet transport, consistency."""

import math
import random
from fractions import Fraction as Q

import pytest

from heatode import suites
from heatode.algebra import closing_from_coeffs as closing
from heatode.jets import family_ode, hierarchy_ode
from heatode.mobius import (
    BranchCut,
    ExactHeatValue,
    Mobius,
    PoleOfAction,
    act_on_psi,
    act_on_state,
    transformed_h_jet,
)
from heatode.series import ansatz_series, default_c
from heatode.systems import SystemState, pole_sum


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


# -- the action on states ---------------------------------------------------------

def state_of(r=lambda t: 0.0, h=lambda t: Q(0), x=()):
    """A state provider from field functions: r, h and each x_k of the time."""
    return lambda t: SystemState(t, r(t), h(t), tuple(xk(t) for xk in x))


def test_every_action_raises_at_its_pole():
    m = Mobius(Q(1), Q(0), Q(1), Q(-2))  # ct + d vanishes at t = 2
    calls = [lambda: m.apply(Q(2)),
             lambda: act_on_state(m, state_of(x=[lambda t: Q(1)]), 0)(Q(2)),
             lambda: act_on_psi(m, lambda z, t: ExactHeatValue.plain(Q(1)), Q(0), Q(2)),
             lambda: transformed_h_jet(m, lambda s, q: [Q(0)] * (q + 1), Q(2), 2)]
    for call in calls:
        with pytest.raises(PoleOfAction):
            call()
    assert m.denom(Q(2)) == 0


def test_act_on_r_inversion():
    moved = act_on_state(INVERSION, state_of(), 0)
    for t in (1.0, 2.0, 7.5):
        assert abs(moved(t).r - (-0.5 * math.log(t))) < 1e-14


def test_act_on_r_delta_shift():
    # the odd sector adds one more power of (ct+d), i.e. -log(ct+d) in r
    m = Mobius(Q(1), Q(0), Q(1), Q(1))
    provider = state_of(r=lambda t: 0.3 * t)
    for t in (0.5, 2.0):
        gap = act_on_state(m, provider, 1)(t).r - act_on_state(m, provider, 0)(t).r
        assert abs(gap + math.log(float(m.denom(t)))) < 1e-14


def test_act_on_r_branch_cut():
    m = Mobius(Q(1), Q(0), Q(1), Q(-3))
    with pytest.raises(BranchCut):
        act_on_state(m, state_of(), 0)(1.0)  # ct+d = -2


def test_act_on_x_identity_and_scaling():
    x = lambda t: t * t
    provider = state_of(x=[x, x])
    assert act_on_state(Mobius.identity(), provider, 0)(Q(5)).x == (25, 25)
    s = Q(3)
    scaling = Mobius(s, Q(0), Q(0), 1 / s)
    for t in (Q(2), Q(1, 2)):
        moved = act_on_state(scaling, provider, 0)(t)
        for k, xk in enumerate(moved.x, start=2):
            assert xk == s ** (2 * k) * x(s * s * t)


def test_act_on_x_exponent_law():
    m = Mobius(Q(1), Q(0), Q(1), Q(1))
    one = lambda t: Q(1)
    t = Q(3)
    w = m.denom(t)
    x2, x3 = act_on_state(m, state_of(x=[one, one]), 0)(t).x
    assert x2 * w ** 4 == 1
    assert x3 * w ** 6 == 1


def test_act_on_state_moves_h_as_transformed_h_jet_at_order_0():
    # the h field of the moved state is the order-0 jet of the transformed h
    rng = random.Random(13)
    h = lambda t: Q(3) / (t - 7) + t
    checked = 0
    while checked < 10:
        m = rand_mobius(rng)
        t = Q(rng.randint(20, 40), rng.randint(1, 3))
        if m.denom(t) <= 0 or m.apply(t) == 7:
            continue
        moved = act_on_state(m, state_of(h=h), 0)(t)
        assert moved.t == t and [moved.h] == transformed_h_jet(m, lambda s, q: [h(s)], t, 0)
        checked += 1


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


def test_float_act_on_psi_raises_branch_cut_left_of_the_pole():
    m = Mobius(1.0, 0.0, 1.0, 1.0)
    assert act_on_psi(m, lambda z, t: 1.0, 0.0, 0.0) == 1.0  # ct + d = 1
    with pytest.raises(BranchCut):
        act_on_psi(m, lambda z, t: 1.0, 0.5, -2.0)  # ct + d = -1


def test_int_matrix_entries_act_exactly():
    m = Mobius(1, 0, 1, 1)
    assert all(isinstance(v, Q) for v in (m.a, m.b, m.c, m.d))
    assert m.apply(2) == Q(2, 3) and isinstance(m.apply(2), Q)
    jet = transformed_h_jet(m, pole_sum(2, [0, 1]).jet, 2, 2)
    assert jet == [Q(1, 4), Q(-1, 8), Q(1, 8)]
    assert all(isinstance(v, Q) for v in jet)
    # float entries stay floats
    assert isinstance(Mobius(1.0, 0.0, 0.5, 1.0).c, float)


def test_sl2_suite_samples_inside_the_domain(monkeypatch):
    escaped = []

    def watch(fn):
        def wrapped(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                escaped.append(err)
                raise
        return wrapped

    monkeypatch.setattr(suites, "act_on_psi", watch(suites.act_on_psi))
    monkeypatch.setattr(suites, "transformed_h_jet", watch(suites.transformed_h_jet))
    report = suites.run_suite("sl2", 1374965217)
    assert report["passed"]
    assert escaped == []


def test_sl2_suite_redraws_a_matrix_whose_pole_is_the_sampled_time(monkeypatch):
    # the first matrix drawn for the transformed residuals claims ct + d = 0 at every t;
    # the suite must draw again instead of moving a jet through that pole
    class AtAPole(Mobius):
        def denom(self, t):
            return 0

    armed, planted = [], []
    real_draw, real_family = suites._random_mobius, suites.family_ode

    def family(n, closing):  # called only to build the residual families
        armed.append(n)
        return real_family(n, closing)

    def draw(rng):
        m = real_draw(rng)
        if armed and not planted:
            m = AtAPole(m.a, m.b, m.c, m.d)
            planted.append(m)
        return m

    moved = []
    real_move = suites.transformed_h_jet
    monkeypatch.setattr(suites, "_random_mobius", draw)
    monkeypatch.setattr(suites, "family_ode", family)
    monkeypatch.setattr(suites, "transformed_h_jet",
                        lambda m, *args: moved.append(m) or real_move(m, *args))
    report = suites.run_suite("sl2", 5)
    assert report["passed"]
    assert planted and not any(isinstance(m, AtAPole) for m in moved)
    assert len(moved) == 20  # five residuals at each of four levels


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


def polynomial_jet(coeffs):
    """h_jet_at for h(s) = sum coeffs[i] s^i: exact derivatives from the coefficients."""
    def jet_at(s, order):
        out, poly = [], list(coeffs)
        for _ in range(order + 1):
            out.append(sum((c * s ** i for i, c in enumerate(poly)), Q(0)))
            poly = [i * c for i, c in enumerate(poly)][1:]
        return out
    return jet_at


def test_transformed_jet_group_law_on_polynomials():
    # transporting by m1 and then by m2 equals transporting by m1 @ m2, as the
    # action on solutions composes; h is a polynomial, not a pole sum
    rng = random.Random(47)
    checked = 0
    while checked < 60:
        hj = polynomial_jet([Q(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(rng.randint(1, 7))])
        m1, m2 = rand_mobius(rng, 2), rand_mobius(rng, 2)
        t = Q(rng.randint(-9, 9), rng.randint(1, 4))
        order = checked % 9
        try:
            lhs = transformed_h_jet(m2, lambda s, q: transformed_h_jet(m1, hj, s, q), t, order)
            rhs = transformed_h_jet(m1 @ m2, hj, t, order)
        except PoleOfAction:
            continue
        assert lhs == rhs
        assert transformed_h_jet(Mobius.identity(), hj, t, order) == hj(t, order)
        checked += 1


# -- the action on h: the transformed jet at order 0, h(t~)/w^2 + c/w ------------

def at_order_0(h):
    """h_jet_at of order 0 for a function h: the value alone."""
    return lambda s, q: [h(s)]


def test_act_on_h_identity():
    h = lambda t: 1 / (1 + t * t)
    assert transformed_h_jet(Mobius.identity(), at_order_0(h), Q(3), 0) == [h(Q(3))]


def test_act_on_h_inversion_of_zero():
    # the zero solution has its one pole at infinity, and the inversion moves it to 0
    zero = lambda s, q: [Q(0)] * (q + 1)
    for t in (Q(1), Q(5), Q(-2, 3)):
        assert transformed_h_jet(INVERSION, zero, t, 0) == [1 / t]
        assert transformed_h_jet(INVERSION, zero, t, 2) == pole_sum(1, [Q(0)]).jet(t, 2)


def test_act_on_h_composition():
    rng = random.Random(13)
    h = lambda t: Q(3) / (t - 7) + t
    for _ in range(10):
        m1, m2 = rand_mobius(rng), rand_mobius(rng)
        t = Q(rng.randint(20, 40), rng.randint(1, 3))
        try:
            lhs = transformed_h_jet(m2, lambda s, q: transformed_h_jet(m1, at_order_0(h), s, q), t, 0)
            rhs = transformed_h_jet(m1 @ m2, at_order_0(h), t, 0)
        except (PoleOfAction, ZeroDivisionError):
            continue
        assert lhs == rhs


def test_act_on_h_pole_of_action():
    m = Mobius(Q(1), Q(0), Q(1), Q(-2))
    with pytest.raises(PoleOfAction):
        transformed_h_jet(m, at_order_0(lambda t: Q(0)), Q(2), 0)


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

    matrices = [
        Mobius(Q(1), Q(1, 3), Q(0), Q(1)),
        Mobius(Q(1), Q(0), Q(1, 4), Q(1)),
        Mobius(Q(1), Q(1, 2), Q(1, 5), Q(11, 10)),
    ]
    for m in matrices:
        m_float = Mobius(float(m.a), float(m.b), float(m.c), float(m.d))
        for t in (1.0, 1.4):
            for z in (0.1, 0.4):
                moved = act_on_state(m_float, provider, 1)(t)
                h_hat, r_hat = moved.h, moved.r
                x_hat = dict(enumerate(moved.x, start=2))
                series_sum = z
                for k in range(2, 11):
                    pk = series.coeff(k)
                    if pk:
                        series_sum += float(pk.eval(x_hat)) * z ** (2 * k + 1) \
                            / math.factorial(2 * k + 1)
                state_side = math.exp(-0.5 * h_hat * z * z + r_hat) * series_sum
                psi_side = act_on_psi(m_float, sol.psi, z, t)
                assert abs(state_side - psi_side) <= 1e-10 * max(1.0, abs(psi_side))
