"""Series builders: cross-oracle equality, sigma expansion, Hermite, eigen checks."""

import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from heatode.algebra import (GradedPoly, WeightMismatch, closing_from_coeffs as closing,
                             closing_monomials, mono)
from heatode.series import (
    ansatz_series,
    bare_series,
    coeff_table,
    default_c,
    hermite,
    hermite_eval,
    quartic_eigenfunction_check,
    series_from_table,
    sigma_l2,
    sigma_series,
)

x1 = GradedPoly.variable(1)
x2 = GradedPoly.variable(2)
x3 = GradedPoly.variable(3)


def random_closing(rng, n, bound=5):
    return closing(n, [rng.randint(-bound, bound) for _ in closing_monomials(n)])


def key(j):
    """The table's key of the dense index (j_2, ..., j_{n+1})."""
    return mono({i + 2: e for i, e in enumerate(j)})


# -- polynomial route ----------------------------------------------------------

def test_series_base_coefficients():
    for n in (2, 3, 4):
        s = ansatz_series(n, None, Q(5), 0, 3)
        assert s.coeff(2) == x2.scale(5)
        assert s.coeff(3) == x3.scale(10)


def test_series_n1_closed_form():
    # only even coefficients survive, each a single power of x2
    for delta in (0, 1):
        c = default_c(delta)
        s = ansatz_series(1, None, c, delta, 10)
        assert s.coeff(2) == x2.scale(c)
        expect = s.coeff(2)
        for q in range(2, 6):
            assert not s.coeff(2 * q - 1)
            expect = (x2 * expect).scale(-(4 * q + delta - 3) * (4 * q + delta - 2))
            assert s.coeff(2 * q) == expect


def test_series_n2_weierstrass_normalisation():
    s = ansatz_series(2, closing(2, [24]), Q(-6), 1, 4)
    assert s.coeff(2) == x2.scale(-6)
    assert s.coeff(3) == x3.scale(-12)


def test_series_coefficients_homogeneous():
    rng = random.Random(3)
    for n in (2, 3, 4):
        s = ansatz_series(n, random_closing(rng, n), Q(3), 1, 9)
        for k in range(2, 10):
            p = s.coeff(k)
            assert (not p) or p.weight == 2 * k


def test_series_rejects_bad_closing():
    with pytest.raises(WeightMismatch):
        ansatz_series(3, closing(2, [1]), Q(1), 0, 5)


def test_series_n0_is_pure_power():
    s = ansatz_series(0, None, Q(-2), 0, 6)
    assert all(not s.coeff(k) for k in range(2, 7))


# -- discrete route -------------------------------------------------------------

def test_table_n1_recursion():
    for delta in (0, 1):
        c = Q(3)
        t = coeff_table(1, None, c, delta, 10)
        assert t.entries[key((0,))] == 1
        for j in range(1, 6):
            w = 4 * j
            expect = c / Q(2 * (1 + 2 * delta)) * (w + delta - 3) * (w + delta - 2) \
                * t.entries[key((j - 1,))]
            assert t.entries[key((j,))] == expect


def test_table_n2_literal_recursion_oracle():
    # independent route: the level-2 recursion written out by hand; the second
    # case has a fractional closing, so the int recursion scales by D = lcm(18, 4)
    delta = 1
    for c, p20, K in ((Q(5, 2), Q(-3), 7), (Q(5, 3), Q(-3, 4), 9)):
        table = coeff_table(2, closing(2, [p20]), c, delta, K)

        oracle = {}

        def a(j2, j3):
            if j2 < 0 or j3 < 0:
                return Q(0)
            return oracle[(j2, j3)]

        indices = sorted(((j2, j3) for j2 in range(K + 1) for j3 in range(K + 1)
                          if 4 * j2 + 6 * j3 <= 2 * K),
                         key=lambda j: 4 * j[0] + 6 * j[1])
        for j2, j3 in indices:
            w = 4 * j2 + 6 * j3
            if w == 0:
                oracle[(j2, j3)] = Q(1)
                continue
            oracle[(j2, j3)] = (
                c / Q(2 * (1 + 2 * delta)) * (w + delta - 3) * (w + delta - 2) * a(j2 - 1, j3)
                + 2 * (j2 + 1) * a(j2 + 1, j3 - 1)
                + 2 * (j3 + 1) * p20 * a(j2 - 2, j3 + 1))
        assert dict(table.entries) == {key(j): a for j, a in oracle.items()}


@pytest.mark.parametrize("c, coeffs, integral", [
    (None, [3, -2, 1], True),            # the default c
    (Q(3), [3, -2, 1], True),
    (Q(5, 2), [Q(1, 2), 4, -1], False),  # a fractional closing
])
@pytest.mark.parametrize("delta", (0, 1))
def test_table_and_series_store_int_exactly_when_integral(c, coeffs, integral, delta):
    n, K = 4, 10
    table = coeff_table(n, closing(n, coeffs), default_c(delta) if c is None else c, delta, K)
    series = ansatz_series(n, closing(n, coeffs), table.c, delta, K)
    for values in (list(table.entries.values()),
                   [v for k in range(2, K + 1) for v in series.coeff(k).terms.values()]):
        # GradedPoly's rule: an int when integral, else a Fraction that is not integral
        assert all(type(v) is int or (type(v) is Q and v.denominator != 1) for v in values)
        assert all(type(v) is int for v in values) == integral


@pytest.mark.parametrize("n", range(6))
def test_table_fills_the_weight_bounded_indices_in_order(n):
    # every index of weight <= 2K and no other, filled by (weight, index) as the
    # recursion needs: the filtered box of all exponent ranges is the reference
    K = 9
    weight = lambda j: sum(2 * (i + 2) * e for i, e in enumerate(j))
    box = itertools.product(*(range(2 * K // (2 * (i + 2)) + 1) for i in range(n)))
    expect = sorted((j for j in box if weight(j) <= 2 * K), key=lambda j: (weight(j), j))
    assert list(coeff_table(n, None, Q(3), 0, K).entries) == [key(j) for j in expect]


def test_zero_c_kills_series():
    s = series_from_table(coeff_table(1, None, Q(0), 0, 8))
    assert all(not s.coeff(k) for k in range(2, 9))


# -- wide ansatz ----------------------------------------------------------------

def addendum_flows():
    # flow of (x1, x2, x3) in the three-pole example
    p4 = (x1 * x3).scale(-12) + (x2 * x2).scale(-9) \
        + (x2 * x1 * x1).scale(-54) + (x1 * x1 * x1 * x1).scale(-27)
    return (x2, x3, p4)


def test_bare_series_matches_operator_powers():
    # independent oracle: iterate the first-order operator directly
    flows = addendum_flows()
    psi1 = x1.scale(Q(-1, 2))
    s = bare_series(flows, psi1, 6)

    def op(p):
        out = psi1 * p
        for j, flow in enumerate(flows, start=1):
            out = out + flow.scale(2) * p.partial(j)
        return out

    expect = psi1
    for k in range(1, 7):
        assert s.coeff(k) == expect
        expect = op(expect)


def test_bare_series_zero_seed():
    s = bare_series(addendum_flows(), GradedPoly.zero(), 5)
    assert all(not s.coeff(k) for k in range(1, 6))


def test_bare_series_is_zero_below_order_zero():
    s = bare_series(addendum_flows(), x1.scale(Q(-1, 2)), 4)
    assert s.coeff(0) == GradedPoly.one()  # the z^0 term of the series
    assert s.coeff(3)  # the coefficient a negative index must not wrap around to
    assert all(not s.coeff(k) for k in (-1, -2, -4))


@pytest.mark.parametrize("seed", [Q(-1, 2), Q(7, 3)])
def test_bare_series_keeps_the_term_order_of_the_derive_scale_multiply_add_chain(seed):
    # the float sums lower() each coefficient in its term order, so order is
    # compared as well as value, against the chain P' = 2 derive(P) + psi1 * P
    flows = addendum_flows()
    psi1 = x1.scale(seed)
    s = bare_series(flows, psi1, 60)
    expect = psi1
    for k in range(1, 61):
        assert list(s.coeff(k).terms.items()) == list(expect.terms.items())
        expect = expect.derive(dict(enumerate(flows, start=1))).scale(2) + psi1 * expect


def test_bare_series_one_step():
    flows = addendum_flows()
    psi1 = x1.scale(Q(-1, 2))
    s = bare_series(flows, psi1, 2)
    expect = GradedPoly.zero()
    for j, flow in enumerate(flows, start=1):
        expect = expect + flow.scale(2) * psi1.partial(j)
    expect = expect + psi1 * psi1
    assert s.coeff(2) == expect


def test_bare_series_weight_validation():
    with pytest.raises(WeightMismatch):
        bare_series((x1, x3), x1, 3)  # flow of x_1 must have weight 4


# -- Weierstrass sigma ------------------------------------------------------------

def test_sigma_leading_coefficients():
    S = sigma_series(3)
    assert S[0] == GradedPoly.one()
    assert not S[1]
    assert S[2] == x2.scale(Q(-1, 2))   # -g2/2, i.e. -g2 z^5/240
    assert S[3] == x3.scale(-6)         # -6 g3, i.e. -g3 z^7/840


def test_sigma_annihilated_order_by_order():
    # recompute the second-order operator from scratch at every order
    K = 8
    S = sigma_series(K)
    g2 = x2
    for m in range(K - 1):
        residual = S[m + 1].scale(Q(1, 2)) \
            + (g2 * (S[m - 1] if m >= 1 else GradedPoly.zero())).scale(
                Q((2 * m + 1) * (2 * m), 24)) \
            - sigma_l2(S[m])
        assert not residual


def test_sigma_series_keeps_the_term_order_of_the_operator_chain():
    # S_{m+1} = 2 l2(S_m) - m(2m+1)/6 * g2 * S_{m-1}, built as a chain of
    # polynomials, against the builder's one derive per coefficient
    K = 120
    S = sigma_series(K)
    expect = [GradedPoly.one(), GradedPoly.zero()]
    for m in range(1, K):
        expect.append(sigma_l2(expect[m]).scale(2) - (x2 * expect[m - 1]).scale(Q(m * (2 * m + 1), 6)))
    assert len(S) == K + 1
    for s, e in zip(S, expect):
        assert list(s.terms.items()) == list(e.terms.items())


def test_sigma_scaling_operator():
    # homogeneity makes the scaling field 4 g2 d/dg2 + 6 g3 d/dg3 hold automatically (Euler)
    S = sigma_series(8)
    for k, s in enumerate(S):
        if s:
            assert s.weight == 2 * k
            assert s.derive({2: x2.scale(4), 3: x3.scale(6)}) == s.scale(2 * k)


def test_sigma_degenerate_case_oracle():
    # sigma at g2 = 4/3 a^4, g3 = 8/27 a^6 equals exp(a^2 z^2/6) sin(a z)/a,
    # checked coefficient by coefficient with exact rational a
    K = 8
    S = sigma_series(K)
    for a in (Q(1), Q(2), Q(1, 3)):
        g2, g3 = Q(4, 3) * a ** 4, Q(8, 27) * a ** 6
        for k in range(K + 1):
            lhs = S[k].eval({2: g2, 3: g3}) / math.factorial(2 * k + 1)
            rhs = sum(
                (a * a / 6) ** j / math.factorial(j)
                * Q(-1) ** (k - j) * a ** (2 * (k - j)) / math.factorial(2 * (k - j) + 1)
                for j in range(k + 1))
            assert lhs == rhs


# -- Hermite --------------------------------------------------------------------

def test_hermite_small_cases():
    assert hermite(0) == [1]
    assert hermite(2) == [-1, 0, 1]
    assert hermite(3) == [0, -3, 0, 1]


def test_hermite_defining_relation():
    # differentiate P * exp(-x^2/2) k times: P -> P' - x P, exactly
    for k in range(9):
        p = [Q(1)]
        for _ in range(k):
            deriv = [Q(i) * c for i, c in enumerate(p)][1:]
            shifted = [Q(0)] + p
            width = max(len(deriv), len(shifted))
            deriv += [Q(0)] * (width - len(deriv))
            shifted += [Q(0)] * (width - len(shifted))
            p = [d - s for d, s in zip(deriv, shifted)]
        while p and p[-1] == 0:
            p.pop()
        expected = [Q(-1) ** k * c for c in hermite(k)]
        assert p == expected


def test_hermite_recurrence_consistency():
    for k in range(1, 10):
        x = Q(3, 7)
        lhs = hermite_eval(hermite(k + 1), x)
        # He_{k+1} = x He_k - k He_{k-1} (classical three-term form)
        rhs = x * hermite_eval(hermite(k), x) - k * hermite_eval(hermite(k - 1), x)
        assert lhs == rhs


# -- single-variable eigenfunction check ------------------------------------------

def test_quartic_eigen_check_passes():
    for delta in (0, 1):
        assert quartic_eigenfunction_check(8, delta) is None


def test_quartic_eigen_check_detects_fault():
    delta = 0
    good = ansatz_series(1, None, default_c(delta), delta, 8)
    bad = good.with_coeff(4, good.coeff(4) + (x2 * x2).scale(1))
    assert quartic_eigenfunction_check(8, delta, series=bad) == 4


def test_quartic_eigen_check_wrong_eigenvalue():
    assert quartic_eigenfunction_check(8, 0, lam=Q(1, 7)) is not None
