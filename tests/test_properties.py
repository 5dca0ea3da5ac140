"""Property tests for the sparse polynomial core, under both gradings.

GradedPoly grades x_k with weight 2k; JetPoly grades h^(q) with weight
2(q+1) and the symbolic b with weight 0.  Every ring operation is shared,
so each law is checked once per grading, and so is the coefficient rule
(an int when integral) against an all-Fraction reference.  The two series routes and the
group law of the matrix action are checked on random inputs as well, and
the unit-triangular linear solver against its own right-hand side, and
the monomial keys: round trips, order and the guard against exponent overflow.
derive is checked against the chain of products it sums, term order included.
The references below add exponents on unpacked monomials, never on keys, so
they check the key arithmetic of the core instead of repeating it.
"""

import json
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heatode.algebra import (
    MAX_EXPONENT, ExponentOverflow, GradedPoly, WeightMismatch, closing_monomials, eval_lowered,
    mono, monomial_basis, solve_linear, unpack,
)
from heatode.jets import PARAM, JetPoly, hierarchy_ode, jet_mono, pole_sum_ode, total_derivative
from heatode.mobius import ExactHeatValue, Mobius, PoleOfAction, act_on_psi
from heatode.series import ansatz_series, coeff_table, series_from_table
from heatode.systems import SystemSpec, pole_sum

CLASSES = [GradedPoly, JetPoly]
WEIGHTS = (0, 2, 4, 6)
SETTINGS = settings(max_examples=20, deadline=None)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def basis(cls, weight):
    """All monomials of one weight in the first four variables (and b for jets)."""
    parts = monomial_basis(weight // 2, 1, 4)
    if cls is GradedPoly:
        return parts
    return [jet_mono({**{k - 1: j for k, j in unpack(m)}, PARAM: p}) for m in parts for p in (0, 1)]


def polys(cls, weight):
    monos = basis(cls, weight)
    return st.lists(coefficients, min_size=len(monos), max_size=len(monos)) \
        .map(lambda cs: cls(dict(zip(monos, cs))))


def nonzero_polys(cls, weight):
    return polys(cls, weight).filter(bool)


def homogeneous(p, cls):
    return all(cls({m: 1}).weight == p.weight for m in p.terms)


@pytest.mark.parametrize("cls", CLASSES)
@SETTINGS
@given(data=st.data(), w=st.sampled_from(WEIGHTS), u=st.sampled_from(WEIGHTS))
def test_ring_laws(cls, data, w, u):
    a, b, c = (data.draw(polys(cls, w)) for _ in range(3))
    d = data.draw(polys(cls, u))
    zero, one = cls.zero(), cls.one()
    assert a + zero == a and zero + a == a
    assert a * one == a and one * a == a
    assert not a * zero and not zero * a
    assert not a - a and -(-a) == a
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * d == d * a
    assert (a * b) * d == a * (b * d)
    assert d * (a + b) == d * a + d * b
    assert a.scale(Q(2, 3)) == a.scale(2).scale(Q(1, 3))


@pytest.mark.parametrize("cls", CLASSES)
@SETTINGS
@given(data=st.data(), w=st.sampled_from(WEIGHTS), u=st.sampled_from(WEIGHTS))
def test_results_are_homogeneous(cls, data, w, u):
    a, b = data.draw(polys(cls, w)), data.draw(polys(cls, w))
    d = data.draw(polys(cls, u))
    for p in (a + b, a - b, -a, a * d, a.scale(Q(-5, 2))):
        assert homogeneous(p, cls)
    if a and d:
        assert (a * d).weight == w + u
    if a + b:
        assert (a + b).weight == w


@pytest.mark.parametrize("cls", CLASSES)
@SETTINGS
@given(data=st.data(), wu=st.lists(st.sampled_from(WEIGHTS), min_size=2, max_size=2, unique=True))
def test_mixed_weights_raise(cls, data, wu):
    w, u = wu
    a, b = data.draw(nonzero_polys(cls, w)), data.draw(nonzero_polys(cls, u))
    with pytest.raises(WeightMismatch):
        a + b
    with pytest.raises(WeightMismatch):
        a - b
    with pytest.raises(WeightMismatch):
        cls({**a.terms, **b.terms})


@SETTINGS
@given(data=st.data(), w=st.sampled_from(WEIGHTS))
def test_graded_json_round_trip(data, w):
    # through JSON text unchanged: the weight, then each term in key order, its
    # variables by ascending index, its coefficient as str prints it
    p = data.draw(polys(GradedPoly, w))
    out = p.to_json()
    assert json.loads(json.dumps(out)) == out and out["weight"] == p.weight
    assert [(t["m"], t["c"]) for t in out["terms"]] == \
        [([[k, j] for k, j in unpack(m)], str(c)) for m, c in p.sorted_terms()]


@SETTINGS
@given(data=st.data(), w=st.sampled_from(WEIGHTS), u=st.sampled_from(WEIGHTS))
def test_total_derivative_leibniz(data, w, u):
    a, b = data.draw(polys(JetPoly, w)), data.draw(polys(JetPoly, u))
    assert total_derivative(a * b) == total_derivative(a) * b + a * total_derivative(b)
    # d/dt raises the weight by 2 (one more derivative)
    if total_derivative(a):
        assert total_derivative(a).weight == w + 2


@SETTINGS
@given(data=st.data(), w=st.sampled_from(WEIGHTS))
def test_jet_json_round_trip(data, w):
    # as for GradedPoly, with the degree, and b's exponent under "b" when positive
    p = data.draw(polys(JetPoly, w))
    out = p.to_json()
    assert json.loads(json.dumps(out)) == out and out["degree"] == p.degree
    want = []
    for m, c in p.sorted_terms():
        pairs = dict(unpack(m))
        b = pairs.pop(PARAM, 0)
        want.append(([[q, e] for q, e in pairs.items()], str(c), b))
    assert [(t["m"], t["c"], t.get("b", 0)) for t in out["terms"]] == want


@SETTINGS
@given(data=st.data(), w=st.sampled_from(WEIGHTS),
       jet=st.lists(st.floats(-2, 2), min_size=4, max_size=4), b=st.floats(-2, 2))
def test_jet_eval_is_the_term_by_term_sum(data, w, jet, b):
    # the float result must be bit-identical to summing the terms in storage order
    p = data.draw(polys(JetPoly, w))
    expect = None
    for m, c in p.terms.items():
        term = c
        for q, e in unpack(m):
            term = term * (b if q == PARAM else jet[q]) ** e
        expect = term if expect is None else expect + term
    got = p.eval(jet, b=b)
    expect = Q(0) if expect is None else expect
    assert type(got) is type(expect) and repr(got) == repr(expect)


# -- the derivation ------------------------------------------------------------------

def fields(cls, shift):
    """Fields {k: v_k} on the first four variables (and b for jets), each v_k of
    the weight of x_k plus `shift`, so the derivation raises weights by `shift`."""
    keys = (1, 2, 3, 4) if cls is GradedPoly else (PARAM, 0, 1, 2, 3)
    return st.fixed_dictionaries({k: polys(cls, cls.variable(k).weight + shift) for k in keys})


@pytest.mark.parametrize("cls", CLASSES)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), w=st.sampled_from(WEIGHTS[:3]), u=st.sampled_from(WEIGHTS[:3]),
       shift=st.sampled_from((0, 2)))
def test_derive_leibniz_and_linearity(cls, data, w, u, shift):
    a, a2 = data.draw(polys(cls, w)), data.draw(polys(cls, w))
    b = data.draw(polys(cls, u))
    f, g = data.draw(fields(cls, shift)), data.draw(fields(cls, shift))
    d = a.derive(f)
    assert (a * b).derive(f) == d * b + a * b.derive(f)
    assert (a + a2).derive(f) == d + a2.derive(f)
    assert a.scale(Q(-3, 2)).derive(f) == d.scale(Q(-3, 2))
    assert a.derive({k: f[k] + g[k] for k in f}) == d + a.derive(g)
    if d:
        assert d.weight == w + shift


def chain_derive(p, field):
    """The derivation as a chain of polynomials: field[k] * p.partial(k), added in field order."""
    out = type(p).zero()
    for k, v in field.items():
        if v:
            out = out + v * p.partial(k)
    return out


def sparse_polys(cls, weight):
    """Zero or a few terms of one weight, with coefficients chosen so that sums often cancel."""
    return st.dictionaries(st.sampled_from(basis(cls, weight)),
                           st.sampled_from((-2, -1, 1, 2, Q(1, 2), Q(-1, 2))), max_size=4).map(cls)


@pytest.mark.parametrize("cls", CLASSES)
@settings(max_examples=200, deadline=None)
@given(data=st.data(), w=st.sampled_from(WEIGHTS), shift=st.sampled_from((0, 2)))
def test_derive_matches_the_chain_in_term_order(cls, data, w, shift):
    """derive's one loop gives the chain's terms, weight and term order; lower() sums in that
    order, so a different order would change float bits."""
    p = data.draw(sparse_polys(cls, w))
    keys = data.draw(st.permutations(variables(cls)))
    field = {k: data.draw(sparse_polys(cls, cls.variable(k).weight + shift)) for k in keys}
    got, ref = p.derive(field), chain_derive(p, field)
    assert got.terms == ref.terms and got.weight == ref.weight
    assert list(got.terms) == list(ref.terms)


def test_derive_puts_a_term_that_cancels_and_returns_at_the_end():
    x1, x2, x3 = (GradedPoly.variable(k) for k in (1, 2, 3))
    p = x1 * x2 * x3
    # x1^2*x2*x3 comes first from k = 1, cancels at k = 2 and comes back at k = 3
    field = {1: x1 * x1 + x2, 2: -(x1 * x2), 3: x1 * x3}
    got = p.derive(field)
    assert list(got.terms) == list(chain_derive(p, field).terms)
    assert [GradedPoly({m: 1}) for m in got.terms] == [x2 * x2 * x3, x1 * x1 * x2 * x3]


@pytest.mark.parametrize("cls", CLASSES)
@settings(max_examples=200, deadline=None)
@given(data=st.data(), w=st.sampled_from(WEIGHTS), shift=st.sampled_from((0, 2)),
       coeff=st.sampled_from((0, 1, -2, Q(1, 2))))
def test_derive_tail_matches_the_sum_in_term_order(cls, data, w, shift, coeff):
    """derive(field, key, coeff, other) gives derive(field) + coeff * x^key * other, the sum
    that ansatz_series and shifted_derivative would otherwise build in several polynomials,
    with the same terms, weight and term order."""
    p = data.draw(sparse_polys(cls, w))
    keys = data.draw(st.permutations(variables(cls)))
    field = {k: data.draw(sparse_polys(cls, cls.variable(k).weight + shift)) for k in keys}
    # the monomial 1 or a variable that fits the weight of the derivative
    units = [next(iter(cls.variable(k).terms)) for k in variables(cls)]
    key = data.draw(st.sampled_from([0] + [m for m in units if cls({m: 1}).weight <= w + shift]))
    other = data.draw(sparse_polys(cls, w + shift - cls({key: 1}).weight))
    got = p.derive(field, key, coeff, other)
    ref = p.derive(field) + cls({key: coeff}) * other
    assert got.terms == ref.terms and got.weight == ref.weight
    assert list(got.terms) == list(ref.terms)


def test_derive_tail_keeps_the_sum_errors():
    x1, x2, x3 = (GradedPoly.variable(k) for k in (1, 2, 3))
    e1, e3 = mono({1: 1}), mono({3: 1})
    p = x1 * x2
    with pytest.raises(WeightMismatch):  # weight 6 from the derivative, 8 from x3 * x1
        p.derive({1: x1}, e3, 1, x1)
    # a derivative that cancels adds no weight, as zero + (3 x3) * x1 does not
    assert p.derive({1: x1, 2: -x2}, e3, 3, x1) == (x1 * x3).scale(3)
    top = GradedPoly({mono({1: MAX_EXPONENT}): 1})
    with pytest.raises(ExponentOverflow):
        GradedPoly.one().derive({}, e1, 1, top)


def test_derive_rejects_contributions_of_two_weights():
    x1, x2, x3 = (GradedPoly.variable(k) for k in (1, 2, 3))
    p = x1 * x2 * x3
    with pytest.raises(WeightMismatch):
        p.derive({1: x1, 3: x3 * x3})
    # the first two contributions cancel; the third still has to match their weight
    with pytest.raises(WeightMismatch):
        p.derive({1: x1, 2: -x2, 3: x3 * x3})
    # a zero entry, or one whose variable p lacks, contributes nothing and no weight
    assert p.derive({1: x1, 4: x3 * x3, 2: GradedPoly.zero()}) == p
    assert not GradedPoly.zero().derive({1: x1, 2: x2 * x2})


# -- the coefficient rule -------------------------------------------------------------

def variables(cls):
    return (1, 2, 3, 4) if cls is GradedPoly else (PARAM, 0, 1, 2, 3)


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Q(0)) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(cls, a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            d = dict(unpack(ma))
            for k, j in unpack(mb):
                d[k] = d.get(k, 0) + j
            m = cls._mono(d)
            out[m] = out.get(m, Q(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def ref_partial(cls, a, k):
    out = {}
    for m, c in a.items():
        d = dict(unpack(m))
        if d.get(k):
            d[k] -= 1
            out[cls._mono(d)] = c * (d[k] + 1)
    return out


def ref_subst(cls, a, values):
    out = {}
    for m, c in a.items():
        image = {cls._mono({}): c}
        for k, j in unpack(m):
            base = values.get(k, {cls._mono({k: 1}): Q(1)})
            for _ in range(j):
                image = ref_mul(cls, image, base)
        out = ref_add(out, image)
    return out


def fraction_terms(p):
    return {m: Q(c) for m, c in p.terms.items()}


@pytest.mark.parametrize("cls", CLASSES)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), w=st.sampled_from(WEIGHTS[:3]), u=st.sampled_from(WEIGHTS[:3]),
       c=coefficients, point=st.lists(st.floats(-2, 2), min_size=5, max_size=5))
def test_integral_coefficients_are_ints(cls, data, w, u, c, point):
    """Every operation stores integral coefficients as ints and otherwise agrees,
    term by term, in print and in float evaluation, with all-Fraction arithmetic."""
    a, b = data.draw(polys(cls, w)), data.draw(polys(cls, w))
    d = data.draw(polys(cls, u))
    k = data.draw(st.sampled_from(variables(cls)))
    field, values = data.draw(fields(cls, 2)), data.draw(fields(cls, 0))
    A, B, D = fraction_terms(a), fraction_terms(b), fraction_terms(d)
    F = {v: fraction_terms(p) for v, p in field.items()}
    V = {v: fraction_terms(p) for v, p in values.items()}
    derived = {}
    for v in F:
        derived = ref_add(derived, ref_mul(cls, F[v], ref_partial(cls, A, v)))
    cases = [
        (a + b, ref_add(A, B)),
        (a - b, ref_add(A, {m: -v for m, v in B.items()})),
        (a * d, ref_mul(cls, A, D)),
        (a.scale(c), {m: c * v for m, v in A.items() if c}),
        (a.partial(k), ref_partial(cls, A, k)),
        (a.derive(field), derived),
        (a.subst(values), ref_subst(cls, A, V)),
    ]
    at = dict(zip(variables(cls), point))
    for got, ref in cases:
        assert all(type(v) is int or (type(v) is Q and v.denominator != 1)
                   for v in got.terms.values())
        assert got.terms == ref and homogeneous(got, cls)
        # the reference, as a polynomial holding Fractions, in the result's storage order
        ref_poly = cls.__new__(cls)
        ref_poly.terms, ref_poly.weight = {m: ref[m] for m in got.terms}, got.weight
        assert got.text() == ref_poly.text()
        assert json.dumps(got.to_json()) == json.dumps(ref_poly.to_json())
        got_f = eval_lowered(got.lower(), at, 0.0)
        ref_f = eval_lowered(ref_poly.lower(), at, 0.0)
        assert repr(got_f) == repr(ref_f)


@pytest.mark.parametrize("target", CLASSES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), w=st.sampled_from((4, 8, 12)))
def test_subst_is_the_naive_sum_of_products(target, data, w):
    """subst of a homogeneous GradedPoly equals the sum over its terms of c * prod values[k]^j_k,
    exactly, whatever order images() builds the products in.  Into GradedPoly some variables
    may be kept; into JetPoly every variable is substituted, since no kept x_k weighs there
    what it weighs in GradedPoly.  Values may be zero."""
    a = data.draw(st.dictionaries(st.sampled_from(basis(GradedPoly, w)), coefficients.filter(bool),
                                  min_size=1, max_size=6).map(GradedPoly))
    value = {k: polys(target, 2 * k) for k in (1, 2, 3, 4)}
    if target is GradedPoly:
        value = {k: st.one_of(st.none(), v) for k, v in value.items()}
    values = {k: v for k, v in data.draw(st.fixed_dictionaries(value)).items() if v is not None}
    got = a.subst(values, target)
    assert type(got) is target and homogeneous(got, target)
    assert got.terms == ref_subst(target, fraction_terms(a),
                                  {k: fraction_terms(v) for k, v in values.items()})


# -- the two series routes -------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(0, 4), K=st.integers(2, 10),
       delta=st.sampled_from((0, 1)), c=coefficients.filter(bool))
def test_series_routes_agree(data, n, K, delta, c):
    monos = closing_monomials(n)
    closing = GradedPoly(dict(zip(monos, data.draw(
        st.lists(coefficients, min_size=len(monos), max_size=len(monos))))))
    table = coeff_table(n, closing, c, delta, K)
    assert series_from_table(table) == ansatz_series(n, closing, c, delta, K)


def chain_series(n, closing, c, delta, K):
    """P_2..P_K built as derive(p).scale(2) + variable(2, s) * P_{q-2}: five polynomials a step."""
    spec = SystemSpec.reduced(n, delta, closing, c)
    flows = dict(enumerate(spec.flows, start=2))
    coeffs = [GradedPoly.zero(), GradedPoly.variable(2, spec.c)]
    for q in range(3, K + 1):
        s = spec.c * (2 * q + delta - 3) * (2 * q + delta - 2) / (2 * (1 + 2 * delta))
        coeffs.append(coeffs[-1].derive(flows).scale(2) + GradedPoly.variable(2, s) * coeffs[-2])
    return coeffs[1:]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), K=st.integers(2, 12),
       delta=st.sampled_from((0, 1)), c=st.one_of(st.integers(-4, 4), coefficients))
def test_ansatz_series_keeps_the_chain_term_order(data, n, K, delta, c):
    # one dict per coefficient gives the chain's terms in its order, so lower() keeps its bits
    monos = closing_monomials(n)
    closing = GradedPoly(dict(zip(monos, data.draw(
        st.lists(st.one_of(st.integers(-4, 4), coefficients), min_size=len(monos),
                 max_size=len(monos))))))
    got = ansatz_series(n, closing, c, delta, K)
    for k, ref in enumerate(chain_series(n, closing, Q(c), delta, K), start=2):
        assert list(got.coeff(k).terms.items()) == list(ref.terms.items())
        assert got.coeff(k).weight == ref.weight


# -- the integral pole-sum jet -----------------------------------------------------------

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 5), b=rationals.filter(bool),
       poles=st.lists(rationals, min_size=1, max_size=6, unique=True), t=rationals)
def test_integral_jet_is_the_scaled_fraction_jet(n, b, poles, t):
    assume(t not in poles)
    ps = pole_sum(b, poles)
    m = max(n + 1, 4)
    lam, jet = ps.integral_jet(t, m)
    frac_jet = ps.jet(t, m)
    assert lam != 0 and all(type(v) is int for v in jet)
    assert jet == [lam ** (q + 1) * v for q, v in enumerate(frac_jet)]
    # a weight-W jet polynomial scales by lam^(W/2), so every zero test keeps its verdict
    odes = [hierarchy_ode(k) for k in range(1, 5)]
    odes += [pole_sum_ode(n, s) for s in (n, n + 1, n + 2) if s]
    for ode in odes:
        assert ode.eval(jet) == lam ** (ode.weight // 2) * ode.eval(frac_jet)


# -- the group law on exact samplers ------------------------------------------------------

shears = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def shear_product(pairs):
    m = Mobius.identity()
    for up, low in pairs:
        m = m @ Mobius(Q(1), up, Q(0), Q(1)) @ Mobius(Q(1), Q(0), low, Q(1))
    return m


mobius = st.lists(st.tuples(shears, shears), min_size=1, max_size=3).map(shear_product)

SAMPLERS = [
    lambda z, t: ExactHeatValue.plain(Q(1) / (1 + t * t) + z * z * t - z ** 4),
    lambda z, t: ExactHeatValue(t, -z * z / (2 * t), Q(1)),  # the heat kernel
]


@pytest.mark.parametrize("psi", SAMPLERS, ids=["rational", "heat-kernel"])
@SETTINGS
@given(m1=mobius, m2=mobius, z=shears, t=shears)
def test_mobius_group_law(psi, m1, m2, z, t):
    try:
        lhs = act_on_psi(m2, lambda zz, tt: act_on_psi(m1, psi, zz, tt), z, t)
        rhs = act_on_psi(m1 @ m2, psi, z, t)
        unit = act_on_psi(m1 @ m1.inverse(), psi, z, t)
        plain = psi(z, t)
    except (PoleOfAction, ZeroDivisionError):
        assume(False)
    assert lhs == rhs
    assert unit == plain


# -- the exact linear solver ------------------------------------------------------------

entries = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def unit_triangular_systems(draw):
    """Square upper unit-triangular systems, the shape the determinant match solves."""
    values = draw(st.sampled_from([st.integers(-3, 3), entries]))  # all ints, or ints and Fractions
    size = draw(st.integers(0, 8))
    rows = [[0] * i + [1] + draw(st.lists(values, min_size=size - i - 1, max_size=size - i - 1))
            for i in range(size)]
    return rows, draw(st.lists(values, min_size=size, max_size=size))


@settings(max_examples=40, deadline=None)
@given(system=unit_triangular_systems())
@example(system=([], []))
@example(system=([[1, 2], [0, 1]], [3, -1]))
def test_solve_linear_on_unit_triangular_systems_matches_gauss_jordan(system):
    # the one solution any elimination finds: rows * x == rhs exactly, in the entries' own type
    rows, rhs = system
    solution, residual = solve_linear(rows, rhs)
    assert [sum(u * x for u, x in zip(row, solution)) for row in rows] == rhs
    assert residual == [0] * len(rhs)
    if all(type(v) is int for v in [*rhs, *(u for row in rows for u in row)]):
        assert all(type(v) is int for v in solution + residual)


# -- monomial keys ------------------------------------------------------------------------

def level_monomials(n):
    """The jet monomials of weight 2(n+2): h^(k-1) for each part k of a partition of n+2."""
    return [jet_mono({k - 1: j for k, j in unpack(m)}) for m in monomial_basis(n + 2, 1, n + 2)]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 60), data=st.data())
def test_packed_keys_round_trip_at_the_field_boundary(n, data):
    # the largest exponent a field holds, in the lowest field (b), in h's and at the level's top
    for q in (PARAM, 0, n + 1):
        assert unpack(jet_mono({q: MAX_EXPONENT})) == ((q, MAX_EXPONENT),)
    exps = data.draw(st.dictionaries(st.integers(PARAM, n + 1), st.integers(0, MAX_EXPONENT),
                                     max_size=6))
    key = jet_mono(exps)
    assert unpack(key) == tuple(sorted((q, e) for q, e in exps.items() if e))
    assert jet_mono(dict(unpack(key))) == key
    # a product of monomials is the sum of their keys while every exponent stays in its field
    e = data.draw(st.integers(0, MAX_EXPONENT))
    a, c = jet_mono({0: e, n: 1}), jet_mono({0: MAX_EXPONENT - e})
    assert list((JetPoly({a: 1}) * JetPoly({c: 1})).terms) == [a + c]
    assert unpack(a + c) == ((0, MAX_EXPONENT), (n, 1))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_packed_order_is_lex_with_the_highest_derivative_first(n, data):
    # b, the lowest field, decides only between equal powers of the derivatives
    a, b = (jet_mono({**dict(unpack(data.draw(st.sampled_from(level_monomials(n))))),
                      PARAM: data.draw(st.integers(0, 3))}) for _ in range(2))

    def lex(m):
        exps = dict(unpack(m))
        return [exps.get(q, 0) for q in reversed(range(PARAM, n + 2))]

    assert (a < b) == (lex(a) < lex(b))
    assert jet_mono(dict(unpack(a))) == a


@pytest.mark.parametrize("cls, k", [(GradedPoly, 1), (GradedPoly, 5), (JetPoly, 0), (JetPoly, 7)])
def test_the_largest_exponent_multiplies_and_one_more_raises(cls, k):
    top = cls({cls._mono({k: MAX_EXPONENT - 1}): 2}) * cls.variable(k, 3)
    assert top.terms == {cls._mono({k: MAX_EXPONENT}): 6}
    assert top.partial(k).terms == {cls._mono({k: MAX_EXPONENT - 1}): 6 * MAX_EXPONENT}
    with pytest.raises(ExponentOverflow):
        top * cls.variable(k)
    with pytest.raises(ExponentOverflow):
        cls.variable(k) * top


def test_b_slot_products_past_the_field_raise():
    # b weighs 0, so the weight cannot bound its exponent; the guard bits do
    half = JetPoly({jet_mono({PARAM: (MAX_EXPONENT + 1) // 2}): 1})
    assert half.weight == 0 and (half * JetPoly.h(0)).weight == 2
    below = JetPoly({jet_mono({PARAM: MAX_EXPONENT // 2}): 1})
    assert list((below * half).terms) == [jet_mono({PARAM: MAX_EXPONENT})]
    with pytest.raises(ExponentOverflow):
        half * half
    with pytest.raises(ExponentOverflow):
        half * (half * JetPoly.h(1))


def test_monomial_constructors_reject_an_exponent_out_of_range():
    with pytest.raises(ExponentOverflow):
        GradedPoly.variable(1) * GradedPoly({GradedPoly._mono({1: MAX_EXPONENT}): 1})
    for make in (lambda e: GradedPoly._mono({3: e}), lambda e: jet_mono({PARAM: e}),
                 lambda e: jet_mono({2: e})):
        assert make(MAX_EXPONENT)
        with pytest.raises(ExponentOverflow):
            make(MAX_EXPONENT + 1)
        with pytest.raises(ValueError):
            make(-1)
