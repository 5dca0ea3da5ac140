"""Float lowering: the float path gives the bits of the term-by-term Fraction formulas.

The oracles below are the right-hand side, the RK4 step and a series
solution's value, z-derivative and tail written out with Fraction
constants, as they were before the constants were converted once
(systems.vector_field, GradedPoly.lower, and PerTimeSolution, which lowers
each series coefficient once and keeps its factorials as ints) and before
the RK4 loop became generated code (systems.integrate_rk4).
Fraction * float computes float(Fraction) * float, and float / int divides
by the int's nearest float whether the int is made at the call or kept, so
converting early must not change a single bit, and the generated loop
performs the oracles' operations in their order.
"""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from heatode import systems
from heatode.algebra import (SUM_CHUNK, GradedPoly, closing_monomials, eval_lowered, lowered_source,
                             monomial_basis, unpack)
from heatode.heat import AnsatzSolution, WideSolution
from heatode.series import BareSeries, ansatz_series, bare_series, default_c, three_pole_flows
from heatode.systems import (EXACT_BITS, BlowUp, ExactTooLarge, PoleHit, SystemSpec, SystemState,
                             integrate_rk4, pole_sum, transform_system, vector_field,
                             weierstrass_deformed_system)

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
def reduced_specs(draw):
    """A reduced system at level 0..4 with a random closing and a non-default c."""
    n = draw(st.integers(0, 4))
    delta = draw(st.sampled_from((0, 1)))
    monos = closing_monomials(n)
    cs = draw(st.lists(coefficients, min_size=len(monos), max_size=len(monos)))
    c = draw(coefficients.filter(lambda v: v not in (0, default_c(delta))))
    return SystemSpec.reduced(n, delta, GradedPoly(dict(zip(monos, cs))), c)


@st.composite
def random_polys(draw, total, kmin, kmax):
    """A random polynomial on some of the monomials with sum k*j_k = total, often zero."""
    monos = monomial_basis(total, kmin, kmax)
    chosen = draw(st.lists(st.sampled_from(monos), unique=True)) if monos else []
    cs = draw(st.lists(coefficients, min_size=len(chosen), max_size=len(chosen)))
    return GradedPoly(dict(zip(chosen, cs)))


@st.composite
def flow_specs(draw):
    """A system at level 0..4 with a random homogeneous flow at every slot, zero ones included."""
    n = draw(st.integers(0, 4))
    flows = tuple(draw(random_polys(k + 1, 2, n + 1)) for k in range(2, n + 2))
    return SystemSpec(n, draw(st.sampled_from((0, 1))), draw(coefficients), flows)


@st.composite
def transformed_specs(draw):
    """A random triangular change of variables applied to a flow spec."""
    spec = draw(flow_specs())
    scale = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    rows = [(draw(scale), draw(random_polys(k, 2, k - 1)) or None) for k in range(2, spec.n + 2)]
    return transform_system(spec, rows)


def specs():
    """Any SystemSpec: reduced, random flows, a transform, or the deformed Weierstrass system."""
    return st.one_of(reduced_specs(), flow_specs(), transformed_specs(),
                     st.just(weierstrass_deformed_system()))


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
@given(data=st.data(), spec=specs())
def test_exact_rk4_matches_oracle(data, spec):
    s0 = data.draw(states(spec.n, exact_values))
    # the oracle has no blow-up guard, so none here either (as in the float test)
    final = integrate_rk4(spec, s0, s0.t + Q(2, 100), Q(1, 100), h_bound=math.inf)[-1]
    assert all(type(v) is Q for v in final.row())
    assert final.row()[1:] == oracle_rk4(spec, s0, 2, Q(1, 100))


@SETTINGS
@given(data=st.data(), spec=specs(), step=st.sampled_from((1e-3, 0.01)))
def test_float_rk4_matches_oracle_bit_for_bit(data, spec, step):
    s0 = data.draw(states(spec.n, st.floats(min_value=-1, max_value=1)))
    try:
        want = oracle_rk4(spec, s0, 8, step)
    except OverflowError:
        want = [math.inf]
    if not all(map(math.isfinite, want)):  # a non-finite component stays non-finite in its row
        with pytest.raises(BlowUp):
            integrate_rk4(spec, s0, s0.t + 8 * step, step, h_bound=math.inf)
        return
    got = integrate_rk4(spec, s0, s0.t + 8 * step, step, h_bound=math.inf)
    assert len(got) == 9
    assert hexes(got[-1].row()[1:]) == hexes(want)


def test_power_overflow_trips_the_guard_at_the_step_start():
    # g2 ** 2 raises OverflowError inside the first step, where g2 * g2 would give inf
    s0 = SystemState(0.0, 0.0, 0.0, (1e200, 0.0, 0.0))
    with pytest.raises(BlowUp) as err:
        integrate_rk4(weierstrass_deformed_system(), s0, 0.01, 0.001, h_bound=math.inf)
    assert err.value.t_star == 0.0
    assert err.value.trajectory == [s0]


def test_zero_flow_row_is_positive_zero():
    # the zero flow's row is 0 - rate*h*x: +0.0 where h*x = +0.0, never -(rate*h*x) = -0.0
    spec = weierstrass_deformed_system()
    state = SystemState(0.0, 0.0, 0.5, (0.25, -0.5, 0.0))
    assert vector_field(spec, state)[-1].hex() == "0x0.0p+0"
    assert oracle_field(spec, state)[-1].hex() == "0x0.0p+0"
    final = integrate_rk4(spec, state, 0.5, 0.01)[-1]
    assert final.x[-1].hex() == "0x0.0p+0"
    assert hexes(final.row()[1:]) == hexes(oracle_rk4(spec, state, 50, 0.01))


@SETTINGS
@given(data=st.data(), weight=st.sampled_from((2, 4, 6, 8, 10)))
def test_lowered_eval_matches_fraction_eval(data, weight):
    monos = monomial_basis(weight // 2, 1, 5)
    p = GradedPoly(dict(zip(monos, data.draw(st.lists(coefficients, min_size=len(monos),
                                                      max_size=len(monos))))))
    values = {k: data.draw(float_values) for k in range(1, 6)}
    got = eval_lowered(p.lower(), values, 0.0)
    assert got.hex() == float(p.eval(values)).hex()
    assert got.hex() == float(oracle_eval(p, values)).hex()


@SETTINGS
@given(seed=st.integers(0, 2 ** 32))
def test_lowered_source_splits_a_long_sum_in_order(seed):
    # closing_monomials(22) has more than SUM_CHUNK monomials
    rng = random.Random(seed)
    monos = closing_monomials(22)
    assert len(monos) > SUM_CHUNK
    p = GradedPoly({m: Q(rng.randint(-50, 50), rng.randint(1, 12)) for m in monos})
    lines = lowered_source(p.terms, "total", lambda k: f"v[{k}]", "c", "zero")
    assert len(lines) == -(-len(p.terms) // SUM_CHUNK)
    values = [rng.uniform(-2, 2) for _ in range(24)]
    scope = {"v": values, "zero": 0.0, **{f"c{i}": float(c) for i, c in enumerate(p.terms.values())}}
    exec("\n".join(lines), scope)
    assert scope["total"].hex() == eval_lowered(p.lower(), values, 0.0).hex()


def test_level_22_field_and_step_match_the_oracles():
    # the closing's sum spans two statements of the generated code
    rng = random.Random(22)
    closing = GradedPoly({m: Q(rng.randint(-5, 5), rng.randint(1, 4)) for m in closing_monomials(22)})
    spec = SystemSpec.reduced(22, 0, closing)
    s0 = SystemState(0.0, 0.0, 0.1, tuple(rng.uniform(-1, 1) for _ in range(22)))
    assert hexes(vector_field(spec, s0)) == hexes(oracle_field(spec, s0))
    final = integrate_rk4(spec, s0, 0.01, 0.001)[-1]
    assert hexes(final.row()[1:]) == hexes(oracle_rk4(spec, s0, 10, 0.001))


def oracle_parts(series, x, h, r, z):
    """exp(-h z^2/2 + r) times the series sums at z, each P_k(x) from its Fraction coefficients."""
    delta, K = series.delta, series.truncation
    s, sz, szz, tail = float(z) ** delta, 1.0 if delta else 0.0, 0.0, 0.0
    for k in range(1, K + 1):
        if pk := series.coeff(k):
            v = float(oracle_eval(pk, x))
            e = 2 * k + delta
            s += v * z ** e / math.factorial(e)
            sz += v * z ** (e - 1) / math.factorial(e - 1)
            szz += v * z ** (e - 2) / math.factorial(e - 2)
            if k == K:
                tail = abs(v) * abs(z) ** e / math.factorial(e)
    envelope = math.exp(-0.5 * h * z * z + r)
    return envelope * s, envelope * (h * h * z * z * s - 2 * h * z * sz - h * s + szz), envelope * tail


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(("ansatz", "wide")), delta=st.sampled_from((0, 1)),
       zs=st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=3))
def test_parts_match_fraction_coefficients(data, kind, delta, zs):
    unit = st.floats(min_value=-1, max_value=1)
    r = data.draw(unit.filter(bool))
    if kind == "ansatz":
        monos = closing_monomials(3)
        closing = GradedPoly(dict(zip(monos, data.draw(st.lists(coefficients, min_size=len(monos),
                                                                max_size=len(monos))))))
        series = ansatz_series(3, closing, default_c(delta), delta, 8)
        x = {k: data.draw(unit) for k in (2, 3, 4)}
        h = data.draw(unit.filter(bool))
        sol = AnsatzSolution(SystemSpec.reduced(3, delta, closing), series,
                             lambda t: SystemState(t, r, h, (x[2], x[3], x[4])))
    else:  # the Gaussian-free shape: h = 0, and any delta on the three-pole series
        bare = bare_series(three_pole_flows(), GradedPoly.variable(1, data.draw(coefficients)), 8)
        series = BareSeries(bare.n, delta, bare.truncation, bare.coeffs)
        x = {k: data.draw(unit) for k in (1, 2, 3)}
        h = 0.0
        sol = WideSolution(series, lambda t: (r, x))
    # the lowered terms and their values once per time, then the sums at each z from them
    coeffs = [(k, pk) for k in range(1, 9) if (pk := series.coeff(k))]
    assert [e for e, *_ in sol._terms] == [2 * k + delta for k, _ in coeffs]
    assert hexes(sol._at(0.5)[2]) == hexes(float(oracle_eval(pk, x)) for _, pk in coeffs)
    for z in zs:
        assert hexes(sol.parts(z, 0.5)) == hexes(oracle_parts(series, x, h, r, z))


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


def test_golden_deformed_weierstrass_run():
    # final state of a fixed 400-step run of a non-reduced system (a zero flow on top),
    # recorded before the RK4 step became generated code
    s0 = SystemState(0.0, 0.125, 0.3, (0.2, -0.1, 0.05))
    trajectory = integrate_rk4(weierstrass_deformed_system(), s0, 0.4, 0.4 / 400)
    assert len(trajectory) == 401
    assert hexes(trajectory[-1].row()) == [
        "0x1.999999999999ap-2", "-0x1.796d7b3a7104fp-5", "0x1.14dfae7f8c392p-2",
        "0x1.14739df11ced0p-6", "-0x1.02e807ae59f0ep-5", "0x1.48f61f115dbebp-6"]


# -- the generated loop: where a run stops and what it keeps -------------------------

def oracle_rows(spec, s0, steps, step):
    """The oracle's states after 0, 1, ... steps as rows, the i-th stamped s0.t + i * step.

    Each step is one oracle_rk4 step from the row before; a step that raises
    OverflowError ends the list.
    """
    rows = [s0.row()]
    for i in range(1, steps + 1):
        _, r, h, *x = rows[-1]
        try:
            vec = oracle_rk4(spec, SystemState(s0.t, r, h, tuple(x)), 1, step)
        except OverflowError:
            break
        rows.append([s0.t + i * step, *vec])
    return rows


def keyed(rows):
    """Rows compared bit for bit: a float by its hex, any other number by its type and value."""
    return [[v.hex() if type(v) is float else (type(v), v) for v in row] for row in rows]


@pytest.mark.parametrize("num", [Q, float])
def test_guard_trip_keeps_the_oracle_prefix(num):
    # from h = -1 the oracle's |h| reads 1.04, 0.89 and then 274 after three steps of 1/4
    spec, step = level_two(), num(Q(1, 4))
    s0 = SystemState(num(0), num(0), num(-1), (num(Q(1, 2)), num(Q(-1, 4))))
    rows = oracle_rows(spec, s0, 3, step)
    assert [abs(row[2]) > 100 for row in rows] == [False, False, False, True]
    with pytest.raises(BlowUp) as err:
        integrate_rk4(spec, s0, num(2), step, h_bound=100)
    assert keyed([[err.value.t_star]]) == keyed([[s0.t + 3 * step]])
    assert keyed(s.row() for s in err.value.trajectory) == keyed(rows[:3])
    assert all(type(s) is SystemState for s in err.value.trajectory)


def test_overflow_keeps_the_oracle_prefix():
    # g2 = 1e30: the first step ends near g2 = 7e202, whose square overflows in the second
    spec, step = weierstrass_deformed_system(), 0.01
    s0 = SystemState(0.0, 0.0, 0.0, (1e30, 0.0, 0.0))
    rows = oracle_rows(spec, s0, 2, step)
    assert len(rows) == 2
    with pytest.raises(BlowUp) as err:
        integrate_rk4(spec, s0, 0.05, step, h_bound=math.inf)
    assert err.value.t_star.hex() == (s0.t + 1 * step).hex()
    assert keyed(s.row() for s in err.value.trajectory) == keyed(rows)


@pytest.mark.parametrize("spec, s0, first", [
    # h = 1/(t - 1) from h = -1 reaches -inf (r +inf) at step 19, where |h| <= inf still holds
    (SystemSpec.reduced(0), SystemState(0.0, 0.0, -1.0, ()), 19),
    # with c = 0 and a zero flow, x2 = 1e306 (1 - t)^-4 overflows at step 22 while h is -1.52
    (SystemSpec(1, 0, Q(0), (GradedPoly.zero(),)), SystemState(0.0, 0.0, -1.0, (1e306,)), 22),
], ids=["h-and-r", "x2-alone"])
def test_non_finite_state_keeps_the_oracle_prefix(spec, s0, first):
    step = 1 / 16 if spec.n == 0 else 1 / 64
    rows = oracle_rows(spec, s0, 40, step)
    assert [all(map(math.isfinite, row)) for row in rows[first - 1:first + 1]] == [True, False]
    assert not math.isnan(rows[first][2])
    with pytest.raises(BlowUp) as err:
        integrate_rk4(spec, s0, s0.t + 40 * step, step, h_bound=math.inf)
    assert err.value.t_star.hex() == rows[first][0].hex()
    assert keyed(s.row() for s in err.value.trajectory) == keyed(rows[:first])


def test_exact_too_large_at_the_oracle_step():
    # an h of 2 ** -200 grows past EXACT_BITS in the second step of 1/10, so the third is refused
    spec, step = level_two(), Q(1, 10)
    s0 = SystemState(Q(0), Q(0), Q(1, 2 ** 200), (Q(1, 5), Q(-3, 20)))
    rows = oracle_rows(spec, s0, 2, step)
    bits = [max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in row[1:])
            for row in rows]
    assert bits[1] <= EXACT_BITS < bits[2]
    with pytest.raises(ExactTooLarge) as err:
        integrate_rk4(spec, s0, 1, step)
    assert str(err.value) == (
        f"the exact state at t = {2 * step} has {bits[2]}-bit numbers, over the bound of "
        f"{EXACT_BITS}; integrate in float mode or take fewer steps")
    trajectory = integrate_rk4(spec, s0, 2 * step, step)
    assert keyed(s.row() for s in trajectory) == keyed(rows)
    assert all(isinstance(v, Q) for v in trajectory[-1].row())


def test_state_is_a_positional_immutable_tuple():
    s = SystemState(Q(1), 2.0, 3.0, (4.0, 5.0))
    assert (s.t, s.r, s.h, s.x) == (Q(1), 2.0, 3.0, (4.0, 5.0))
    assert s.row() == [Q(1), 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(AttributeError):
        s.h = 0.0
    trajectory = integrate_rk4(level_two(), SystemState(0.0, 0.0, 0.25, (0.2, -0.15)), 0.2, 0.1)
    assert all(type(s) is SystemState for s in trajectory)


# -- the compile cache ------------------------------------------------------------

def test_cache_keeps_modes_apart():
    spec = level_two()
    exact = integrate_rk4(spec, SystemState(0, 0, Q(1, 4), (Q(1, 5), Q(-3, 20))), Q(1, 5), Q(1, 10))
    floats = integrate_rk4(spec, SystemState(0.0, 0.0, 0.25, (0.2, -0.15)), 0.2, 0.1)
    assert all(type(v) is Q for s in exact for v in s.row())
    assert all(type(v) is float for s in floats for v in s.row())
    assert exact[-1].row()[1:] == oracle_rk4(spec, exact[0], 2, Q(1, 10))
    assert hexes(floats[-1].row()[1:]) == hexes(oracle_rk4(spec, floats[0], 2, 0.1))


def test_cache_keeps_closings_with_the_same_monomials_apart():
    s0 = SystemState(0.0, 0.0, 0.25, (0.2, -0.15))
    finals = []
    for coeff in (24, -3):
        spec = SystemSpec.reduced(2, delta=1, closing=GradedPoly({closing_monomials(2)[0]: coeff}))
        final = integrate_rk4(spec, s0, 0.5, 0.05)[-1].row()[1:]
        assert hexes(final) == hexes(oracle_rk4(spec, s0, 10, 0.05))
        finals.append(final)
    assert finals[0] != finals[1]


def test_cache_stays_bounded_over_a_mixed_run():
    # every choice of monomials per slot at level 4 is its own structure: 2 * 4 * 4 * 8 of them
    slots = [monomial_basis(k + 1, 2, 5) for k in range(2, 6)]
    subsets = [[tuple(m for i, m in enumerate(monos) if mask >> i & 1)
                for mask in range(1 << len(monos))] for monos in slots]
    structures = [()]
    for options in subsets:
        structures = [s + (o,) for s in structures for o in options]
    assert len(structures) > systems.LOWERING_CACHE
    exact0 = SystemState(0, 0, Q(1, 4), (Q(1, 5), Q(-3, 20), Q(1, 7), Q(2, 9)))
    float0 = SystemState(0.0, 0.0, 0.25, (0.2, -0.15, 0.125, 0.5))
    for i, monos in enumerate(structures):
        spec = SystemSpec(4, i % 2, Q(3, 7), tuple(GradedPoly({m: j + 2 for j, m in enumerate(ms)})
                                                  for ms in monos))
        s0, step = (exact0, Q(1, 10)) if i % 3 == 0 else (float0, 0.1)
        final = integrate_rk4(spec, s0, s0.t + step, step)[-1]
        want = oracle_rk4(spec, s0, 1, step)
        if type(step) is float:
            assert hexes(final.row()[1:]) == hexes(want)
        else:
            assert all(type(v) is Q for v in final.row()) and final.row()[1:] == want
    info = systems._compiled.cache_info()
    assert info.maxsize == systems.LOWERING_CACHE
    assert 0 < info.currsize <= info.maxsize


def test_cache_keys_are_ints(monkeypatch):
    keys = []
    compiled = systems._compiled

    def spy(*key):
        keys.append(key)
        return compiled(*key)

    monkeypatch.setattr(systems, "_compiled", spy)
    spec = level_two()
    integrate_rk4(spec, SystemState(0, 0, Q(1, 4), (Q(1, 5), Q(-3, 20))), Q(1, 5), Q(1, 10))
    integrate_rk4(spec, SystemState(0.0, 0.0, 0.25, (0.2, -0.15)), 0.2, 0.1)
    vector_field(spec, SystemState(0.0, 0.0, 0.25, (0.2, -0.15)))  # plain Python, no compile

    def leaves(key):
        return [v for item in key for v in leaves(item)] if type(key) is tuple else [key]

    assert [key[0] for key in keys] == [1, 0]
    assert all(type(v) is int for key in keys for v in leaves(key))


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


# -- pole-sum jets at a float time ------------------------------------------------

def oracle_jet(ps, t, max_order):
    """PoleSum.jet with its Fraction poles and b in every operation, as before its float path."""
    if any(t == a for a in ps.poles):
        raise PoleHit(f"t = {t} is a pole")
    out, fact, sign = [], 1, 1
    for q in range(max_order + 1):
        out.append(sum(sign * fact / (t - a) ** (q + 1) for a in ps.poles) / ps.b)
        fact *= q + 1
        sign = -sign
    return out


def jet_outcome(jet, t, max_order):
    """The jet's hexes, or the type of the error it raised."""
    try:
        return hexes(jet(t, max_order))
    except (ZeroDivisionError, OverflowError) as err:
        return type(err)


@SETTINGS
@given(data=st.data(), max_order=st.integers(0, 6),
       poles=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=16),
                      min_size=1, max_size=6, unique=True),
       b=st.fractions(min_value=-8, max_value=8, max_denominator=6).filter(bool))
def test_float_jet_matches_the_fraction_expression(data, max_order, poles, b):
    ps = pole_sum(b, poles)
    # a float pole, or the float nearest a pole that is not one, or any time
    t = data.draw(st.one_of(st.sampled_from([float(a) for a in ps.poles]),
                            st.floats(min_value=-6, max_value=6)))
    want = jet_outcome(lambda t, m: oracle_jet(ps, t, m), t, max_order)
    assert jet_outcome(ps.jet, t, max_order) == want


def test_float_jet_pole_test_stays_exact():
    ps = pole_sum(3, [Q(1, 2), Q(1, 3), Q(-2)])
    for t in (0.5, -2.0):
        with pytest.raises(PoleHit):
            ps.jet(t, 2)
    # the float nearest 1/3 is not the pole: the arithmetic divides by 0.0, as the Fractions did
    near = float(Q(1, 3))
    assert jet_outcome(ps.jet, near, 2) is ZeroDivisionError
    assert jet_outcome(lambda t, m: oracle_jet(ps, t, m), near, 2) is ZeroDivisionError
