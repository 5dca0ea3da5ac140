"""Float lowering: the float path gives the bits of the term-by-term Fraction formulas.

The oracles below are the right-hand side, the RK4 step and the series
sums written out with Fraction constants, as they were before the
constants were converted once (GradedPoly.lower, systems.build_field,
heat.lower_series).  Fraction * float computes float(Fraction) * float,
so converting early must not change a single bit.
"""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from heatode.algebra import GradedPoly, closing_monomials, eval_lowered, monomial_basis, unpack
from heatode.heat import lower_series, series_sums
from heatode.series import ansatz_series, default_c
from heatode.systems import SystemSpec, SystemState, integrate_rk4, vector_field

SETTINGS = settings(max_examples=25, deadline=None)

coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)
float_values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
exact_values = st.fractions(min_value=-20, max_value=20, max_denominator=30)


def oracle_eval(p, values):
    """The evaluation loop over the Fraction coefficients."""
    total = None
    for m, c in p.terms.items():
        term = c
        for k, j in unpack(m):
            term = term * values[k] ** j
        total = term if total is None else total + term
    return Q(0) if total is None else total


def oracle_field(spec, state):
    """The right-hand side with its Fraction constants applied term by term."""
    values = {k: v for k, v in enumerate(state.x, start=2)}
    h = state.h
    dr = -(Q(spec.delta) + Q(1, 2)) * h
    dh = -h * h
    if spec.n >= 1:
        dh = dh - spec.c / Q(2 * (1 + 2 * spec.delta)) * state.x[0]
    dx = tuple(oracle_eval(spec.flows[i], values) - 2 * (i + 2) * h * state.x[i]
               for i in range(spec.n))
    return (dr, dh) + dx


def oracle_rk4(spec, s0, steps, step):
    """Final (r, h, x) of RK4 with Q(1, 2) and Q(1, 6) multiplied in at every use."""
    half, sixth = Q(1, 2), Q(1, 6)

    def rhs(vec):
        return oracle_field(spec, SystemState(s0.t, vec[0], vec[1], tuple(vec[2:])))

    vec = [s0.r, s0.h, *s0.x]
    for _ in range(steps):
        k1 = rhs(vec)
        k2 = rhs([v + half * step * d for v, d in zip(vec, k1)])
        k3 = rhs([v + half * step * d for v, d in zip(vec, k2)])
        k4 = rhs([v + step * d for v, d in zip(vec, k3)])
        vec = [v + sixth * step * (a + 2 * b + 2 * c + d)
               for v, a, b, c, d in zip(vec, k1, k2, k3, k4)]
    return vec


def hexes(values):
    return [v.hex() for v in values]


@st.composite
def specs(draw):
    """A reduced system at level 0..4 with a random closing and a non-default c."""
    n = draw(st.integers(0, 4))
    delta = draw(st.sampled_from((0, 1)))
    monos = closing_monomials(n)
    cs = draw(st.lists(coefficients, min_size=len(monos), max_size=len(monos)))
    c = draw(coefficients.filter(lambda v: v not in (0, default_c(delta))))
    return SystemSpec.reduced(n, delta, GradedPoly(dict(zip(monos, cs))), c)


def states(n, values):
    return st.builds(lambda t, r, h, x: SystemState(t, r, h, tuple(x)), values, values, values,
                     st.lists(values, min_size=n, max_size=n))


@SETTINGS
@given(data=st.data(), spec=specs())
def test_float_field_matches_oracle_bit_for_bit(data, spec):
    state = data.draw(states(spec.n, float_values))
    assert hexes(vector_field(spec, state)) == hexes(oracle_field(spec, state))


@SETTINGS
@given(data=st.data(), spec=specs())
def test_exact_field_matches_oracle(data, spec):
    state = data.draw(states(spec.n, exact_values))
    got = vector_field(spec, state)
    assert all(type(v) is Q for v in got)
    assert got == oracle_field(spec, state)


@SETTINGS
@given(data=st.data(), spec=specs(), step=st.sampled_from((1e-3, 0.01)))
def test_float_rk4_matches_oracle_bit_for_bit(data, spec, step):
    s0 = data.draw(states(spec.n, st.floats(min_value=-1, max_value=1)))
    got = integrate_rk4(spec, s0, s0.t + 8 * step, step, h_bound=math.inf)
    assert len(got) == 9
    assert hexes(got[-1].row()[1:]) == hexes(oracle_rk4(spec, s0, 8, step))


@SETTINGS
@given(data=st.data(), weight=st.sampled_from((2, 4, 6, 8, 10)))
def test_lowered_eval_matches_fraction_eval(data, weight):
    monos = monomial_basis(weight // 2, 1, 5)
    p = GradedPoly(dict(zip(monos, data.draw(st.lists(coefficients, min_size=len(monos),
                                                      max_size=len(monos))))))
    values = {k: data.draw(float_values) for k in range(1, 6)}
    got = eval_lowered(p.lower(float), values, 0.0)
    assert got.hex() == float(p.eval(values)).hex()
    assert got.hex() == float(oracle_eval(p, values)).hex()


@SETTINGS
@given(data=st.data(), delta=st.sampled_from((0, 1)),
       z=st.floats(min_value=-2, max_value=2))
def test_series_sums_match_fraction_coefficients(data, delta, z):
    monos = closing_monomials(3)
    closing = GradedPoly(dict(zip(monos, data.draw(st.lists(coefficients, min_size=len(monos),
                                                            max_size=len(monos))))))
    series = ansatz_series(3, closing, default_c(delta), delta, 8)
    x = {k: data.draw(st.floats(min_value=-1, max_value=1)) for k in (2, 3, 4)}
    # the sums with the Fraction coefficients evaluated term by term
    s, sz, szz, tail = float(z) ** delta, 1.0 if delta else 0.0, 0.0, 0.0
    for k in range(1, 9):
        pk = series.coeff(k)
        if not pk:
            continue
        v = float(oracle_eval(pk, x))
        e = 2 * k + delta
        s += v * z ** e / math.factorial(e)
        sz += v * z ** (e - 1) / math.factorial(e - 1)
        szz += v * z ** (e - 2) / math.factorial(e - 2)
        if k == 8:
            tail = abs(v) * abs(z) ** e / math.factorial(e)
    assert hexes(series_sums(lower_series(series), z, x)) == hexes((s, sz, szz, tail))


def test_golden_level_three_run():
    # final state of a fixed 5,000-step run, recorded before the float lowering
    closing = GradedPoly({closing_monomials(3)[0]: Q(-16)})
    spec = SystemSpec.reduced(3, delta=1, closing=closing, c=Q(3, 7))
    s0 = SystemState(0.0, 0.125, 0.3, (0.2, -0.1, 0.05))
    trajectory = integrate_rk4(spec, s0, 0.5, 0.5 / 5000)
    assert len(trajectory) == 5001
    assert hexes(trajectory[-1].row()) == [
        "0x1.0000000000000p-1", "-0x1.52f192cc6e652p-4", "0x1.06c5898a4d012p-2",
        "0x1.8481ecb5f327cp-4", "-0x1.7b71e763d4c6ep-6", "0x1.9b4e03d1c0711p-5"]


# -- the number-mode rule ---------------------------------------------------------

def level_two():
    return SystemSpec.reduced(2, delta=1, closing=GradedPoly({closing_monomials(2)[0]: Q(24)}))


def test_all_int_state_gives_fraction_trajectory():
    trajectory = integrate_rk4(level_two(), SystemState(0, 0, 1, (1, -1)), 1, Q(1, 2))
    assert len(trajectory) == 3
    assert all(type(v) is Q for s in trajectory for v in s.row())
    assert all(type(v) is Q for v in vector_field(level_two(), SystemState(0, 0, 1, (1, -1))))


def test_mixed_state_runs_as_its_float_twin():
    mixed = SystemState(Q(0), 0.125, Q(1, 3), (Q(2, 7), -0.15))
    twin = SystemState(0.0, 0.125, float(Q(1, 3)), (float(Q(2, 7)), -0.15))
    spec = level_two()
    got = integrate_rk4(spec, mixed, Q(1, 2), 0.01)
    want = integrate_rk4(spec, twin, 0.5, 0.01)
    assert [hexes(s.row()) for s in got] == [hexes(s.row()) for s in want]
    assert hexes(vector_field(spec, mixed)) == hexes(vector_field(spec, twin))


def test_float_mode_rows_hold_no_fraction():
    spec = level_two()
    for s0, t_end, step in ((SystemState(Q(0), Q(0), Q(1, 4), (Q(1, 5), Q(-3, 20))), 0.5, 0.1),
                            (SystemState(0, 0, 0.25, (0.2, -0.15)), Q(1, 2), Q(1, 10)),
                            (SystemState(0.0, 0.0, 0.25, (0.2, -0.15)), 0.5, 0.1)):
        trajectory = integrate_rk4(spec, s0, t_end, step)
        assert all(type(v) is float for s in trajectory for v in s.row())


def test_float_mode_rejects_a_rational_beyond_float_range():
    huge = Q(10 ** 400)
    spec = SystemSpec.reduced(0)
    with pytest.raises(ValueError):
        integrate_rk4(spec, SystemState(0.0, huge, 1.0, ()), 1.0, 0.5)
    with pytest.raises(ValueError):
        vector_field(spec, SystemState(0.0, 0.0, huge, ()))
    assert integrate_rk4(spec, SystemState(0, huge, 1, ()), 1, Q(1, 2))[-1].r < huge  # exact mode
