"""Jet calculus: the ODE hierarchy, pole determinants, variable changes."""

import itertools
import json
import math
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from heatode.algebra import (MAX_LEVEL, GradedPoly, WeightMismatch,
                             closing_from_coeffs as closing, closing_monomials, mono,
                             partition_count, unpack)
from heatode.jets import (
    PARAM,
    JetPoly,
    JetTooShort,
    NotChazy12,
    ZeroScale,
    chazy12_parameter,
    closing_in_jets,
    family_ode,
    head_tail_coefficients,
    hierarchy_ode,
    jet_mono,
    match_pole_ode,
    necessary_pole_strength,
    pole_sum_ode,
    rescale_dependent,
    shifted_derivative,
    sl2_lowering,
    total_derivative,
)

h = JetPoly.h(0)
h1 = JetPoly.h(1)


def jp(entries):
    return JetPoly.from_exponents(entries)


def random_closing(rng, n):
    return closing(n, [rng.randint(-6, 6) for _ in closing_monomials(n)])


# -- derivations --------------------------------------------------------------

def test_total_derivative_basics():
    assert total_derivative(h) == h1
    assert total_derivative(h * h) == jp([({0: 1, 1: 1}, 2)])
    # hand differentiation of h' + h^2
    assert total_derivative(h1 + h * h) == jp([({2: 1}, 1), ({0: 1, 1: 1}, 2)])


def test_shifted_derivative():
    assert shifted_derivative(h, 1) == jp([({1: 1}, 1), ({0: 2}, 1)])
    d2 = jp([({2: 1}, 1), ({0: 1, 1: 1}, 6), ({0: 3}, 4)])
    assert shifted_derivative(h1 + h * h, 4) == d2
    assert shifted_derivative(h, 0) == h1


def test_hierarchy_keeps_the_term_order_of_the_derivative_plus_product_chain():
    # lift_jet sums each member in its term order, so its float bits rest on that order
    chain = jp([({1: 1}, 1), ({0: 2}, 1)])
    for n in range(2, 15):
        field = {q: JetPoly.h(q + 1) for q in range(chain.order() + 1)}
        chain = chain.derive(field) + (h * chain).scale(2 * n)
        assert list(hierarchy_ode(n).terms.items()) == list(chain.terms.items()), n


def test_hierarchy_members():
    assert hierarchy_ode(1) == jp([({1: 1}, 1), ({0: 2}, 1)])
    assert hierarchy_ode(2) == jp([({2: 1}, 1), ({0: 1, 1: 1}, 6), ({0: 3}, 4)])
    # expanded once by hand from the n = 2 member
    assert hierarchy_ode(3) == jp([
        ({3: 1}, 1), ({0: 1, 2: 1}, 12), ({1: 2}, 6), ({0: 2, 1: 1}, 48), ({0: 4}, 24),
    ])


def test_hierarchy_third_member_alternate_form():
    # same member written through the squared first member
    d1 = hierarchy_ode(1)
    alt = jp([({3: 1}, 1), ({0: 1, 2: 1}, 12), ({1: 2}, -18)]) + (d1 * d1).scale(24)
    assert hierarchy_ode(3) == alt


def test_hierarchy_degree_and_term_count():
    for n in range(1, 9):
        p = hierarchy_ode(n)
        assert p.degree == -4 * (n + 1)
        # one term per partition of n+1, all with positive coefficients
        assert len(p.terms) == partition_count(n + 1)
        assert all(c > 0 for c in p.terms.values())


def test_family_ode_n2():
    # third-order family member: (24 - c4) multiplies the squared first member
    d1 = hierarchy_ode(1)
    for c4 in (Q(24), Q(6), Q(-3), Q(17, 5)):
        expected = jp([({3: 1}, 1), ({0: 1, 2: 1}, 12), ({1: 2}, -18)]) \
            + (d1 * d1).scale(24 - c4)
        assert family_ode(2, closing(2, [c4])) == expected


def test_family_ode_n3():
    # fourth-order display: (48 - c5) multiplies F1*F2
    d1, d2 = hierarchy_ode(1), hierarchy_ode(2)
    base = jp([
        ({4: 1}, 1), ({0: 1, 3: 1}, 20), ({1: 1, 2: 1}, -24),
        ({0: 2, 2: 1}, 96), ({0: 1, 1: 2}, -144),
    ])
    for c5 in (Q(48), Q(-16), Q(24)):
        assert family_ode(3, closing(3, [c5])) == base + (d1 * d2).scale(48 - c5)


def test_family_ode_zero_closing():
    assert family_ode(2) == hierarchy_ode(3)
    assert family_ode(2, GradedPoly.zero()) == hierarchy_ode(3)


def test_family_ode_rejects_wrong_weight():
    with pytest.raises(WeightMismatch):
        family_ode(3, closing(2, [1]))


def test_head_tail_values():
    assert head_tail_coefficients(2) == (1, 6, 4)
    assert head_tail_coefficients(3) == (1, 12, 24)
    assert head_tail_coefficients(5) == (1, 30, 1920)


def ladder(p, n):
    """The ladder field sum_k x_{k+1} d/dx_k on a level-n closing (variables x_2..x_{n+1})."""
    return p.derive({k: GradedPoly.variable(k + 1) for k in range(2, n + 2)})


def test_ladder_field_raises_the_closing():
    c4 = Q(7)
    p2 = closing(2, [c4])
    assert ladder(p2, 2) == closing(3, [2 * c4])
    c5 = Q(-16)
    p3 = closing(3, [c5])
    assert ladder(p3, 3) == closing(4, [0, c5, c5])
    assert not ladder(GradedPoly.zero(), 2)


def test_factorization_lemma_n3():
    # c5 = 2*c4 makes the fourth-order member the shifted derivative of the third
    for c4 in (Q(24), Q(-3), Q(5)):
        lhs = family_ode(3, closing(3, [2 * c4]))
        rhs = shifted_derivative(family_ode(2, closing(2, [c4])), 8)
        assert lhs == rhs


def test_factorization_lemma_n4():
    for c5 in (Q(48), Q(-16), Q(7, 3)):
        lhs = family_ode(4, closing(4, [0, c5, c5]))
        rhs = shifted_derivative(family_ode(3, closing(3, [c5])), 10)
        assert lhs == rhs


# -- pole determinants --------------------------------------------------------

def test_pole_det_head_tail_general():
    # h^(n+1) + (n+2) b h h^(n) + ... + b^(n+1) h^(n+2)
    from heatode.jets import PARAM
    for n in range(6):
        p = pole_sum_ode(n)
        assert p.coefficient(jet_mono({n + 1: 1})) == 1
        if n > 0:
            assert p.coefficient(jet_mono({PARAM: 1, 0: 1, n: 1})) == n + 2
        assert p.coefficient(jet_mono({PARAM: n + 1, 0: n + 2})) == 1


def test_pole_det_b2_is_second_member():
    assert pole_sum_ode(1, 2) == hierarchy_ode(2)


def test_pole_det_rational_b():
    p = pole_sum_ode(0, Q(3))
    assert p == h1 + (h * h).scale(3)


B = JetPoly.variable(PARAM)


def hessenberg_pole_matrix(size):
    """The literal pole matrix: b h^(i-j)/(i-j)! on and below the diagonal, -i above it."""
    def entry(i, j):  # rows and columns counted from 1
        if j <= i:
            return B * JetPoly.h(i - j).scale(Q(1, math.factorial(i - j)))
        return JetPoly.one().scale(-i) if j == i + 1 else JetPoly.zero()
    return [[entry(i, j) for j in range(1, size + 1)] for i in range(1, size + 1)]


def leibniz_det(matrix):
    total = JetPoly.zero()
    for perm in itertools.permutations(range(len(matrix))):
        term = JetPoly.one()
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        if term:
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            total = total + term.scale((-1) ** inversions)
    return total


def cofactor_pole_dets(top):
    """The last-row cofactor expansion, D_m = h^(m-1) + b sum_{0<i<m} C(m-1, i) h^(m-1-i) D_i."""
    dets = {}
    for m in range(1, top + 1):
        acc = JetPoly.zero()
        for i in range(1, m):
            acc = acc + JetPoly.h(m - 1 - i).scale(math.comb(m - 1, i)) * dets[i]
        dets[m] = JetPoly.h(m - 1) + B * acc
    return dets


@pytest.mark.parametrize("size", range(1, 7))
def test_pole_det_is_the_leibniz_determinant_of_the_hessenberg_matrix(size):
    from heatode import jets
    assert leibniz_det(hessenberg_pole_matrix(size)) == B * jets._pole_det(size)


def test_pole_det_ladder_equals_the_cofactor_expansion():
    from heatode import jets
    for size, expanded in cofactor_pole_dets(18).items():
        assert jets._pole_det(size) == expanded, size


def test_pole_sum_ode_is_the_shifted_derivative_ladder_on_h():
    for n in range(11):
        for b in (1, n + 1, Q(-3, 2), Q(7, 3)):
            ladder = h
            for _ in range(n + 1):
                ladder = shifted_derivative(ladder, b)
            assert pole_sum_ode(n, b) == ladder, (n, b)


# -- the sl(2) lowering operator S and the slice h = 0 ------------------------

def test_at_zero_on_jets():
    # h = 0 keeps the terms free of h, in their order; b and each derivative are fields of their own
    for k in range(1, 8):
        f = hierarchy_ode(k)
        assert list(f.at_zero(0).terms) == [m for m in f.terms if 0 not in dict(unpack(m))]
    assert hierarchy_ode(2).at_zero(0) == JetPoly.h(2)
    assert hierarchy_ode(3).at_zero(0) == jp([({3: 1}, 1), ({1: 2}, 6)])
    p = pole_sum_ode(1)  # h'' + 3b*h*h' + b^2*h^3
    assert p.at_zero(0) == JetPoly.h(2)
    assert p.at_zero(1) == JetPoly.h(2) + (B * B * h * h * h)
    assert p.at_zero(PARAM) == JetPoly.h(2) and p.at_zero(PARAM).weight == p.weight


def test_sl2_lowering_on_the_generators():
    assert sl2_lowering(h) == JetPoly.one()
    for q in range(1, 7):
        assert sl2_lowering(JetPoly.h(q)) == JetPoly.h(q - 1).scale(-q * (q + 1))
    assert not sl2_lowering(B) and not sl2_lowering(JetPoly.zero())


def test_sl2_lowering_commutes_with_d_dt_to_minus_the_weight():
    # [S, d/dt] and -weight are both derivations, so agreeing on b and on every generator
    # h^(q) up to the top derivative of the highest pole family proves [S, d/dt] = -weight
    # on every jet polynomial there
    for g in [B] + [JetPoly.h(q) for q in range(MAX_LEVEL + 3)]:
        bracket = sl2_lowering(total_derivative(g)) - total_derivative(sl2_lowering(g))
        assert bracket == g.scale(-g.weight), g


def test_sl2_lowering_kills_the_hierarchy():
    assert not sl2_lowering(h1 + h * h)  # S F_1 = -2h + 2h
    for k in range(1, MAX_LEVEL + 2):
        assert not sl2_lowering(hierarchy_ode(k)), k


@pytest.mark.parametrize("n", range(1, 9))
def test_sl2_lowering_of_the_pole_family(n):
    # S (d/dt + b h)^(n+1) h = (n+2)(b - n - 1) (d/dt + b h)^n h in the symbolic b
    factor = B.scale(n + 2) - JetPoly.one().scale((n + 2) * (n + 1))
    assert sl2_lowering(pole_sum_ode(n)) == factor * pole_sum_ode(n - 1)
    assert not sl2_lowering(pole_sum_ode(n, n + 1))


def wrong_multiplier_hierarchy(n):
    """F_n built with the multiplier 2n + 1 in place of 2n."""
    if n == 1:
        return hierarchy_ode(1)
    return shifted_derivative(wrong_multiplier_hierarchy(n - 1), 2 * n + 1)


def lowering_without_d_dh(p):
    """S with its d/dh term left out."""
    return p.derive({q: JetPoly.h(q - 1).scale(-q * (q + 1)) for q in range(1, p.order() + 1)})


def test_a_hierarchy_multiplier_2n_plus_1_fails_the_certificate(monkeypatch):
    from heatode import jets
    for k in range(2, 7):
        assert sl2_lowering(wrong_multiplier_hierarchy(k)), k
    monkeypatch.setattr(jets, "hierarchy_ode", wrong_multiplier_hierarchy)
    for n in range(1, 7):
        m = match_pole_ode(n)
        assert not m.matched and m.closing is None and m.residual, n


def test_a_pole_strength_b_n_fails_the_certificate(monkeypatch):
    # S kills every closing image, so S of the residual is S of the target:
    # -(n+2)(n - n - 1) (d/dt + n h)^n h
    from heatode import jets
    exact = jets.pole_sum_ode
    monkeypatch.setattr(jets, "pole_sum_ode", lambda n, b=None: exact(n, b - 1))
    for n in range(1, 7):
        m = match_pole_ode(n)
        assert not m.matched and m.closing is None
        assert sl2_lowering(m.residual) == exact(n - 1, n).scale(n + 2), n


def test_a_lowering_without_d_dh_fails_the_premises_and_the_match(monkeypatch):
    # d/dh commutes with d/dt on every generator, so the bracket test cannot see the
    # missing term; S F_1 = 0 does
    from heatode import jets
    assert lowering_without_d_dh(hierarchy_ode(1)) == h.scale(-2)
    monkeypatch.setattr(jets, "sl2_lowering", lowering_without_d_dh)
    for n in range(2, 7):  # at n = 1 the target itself is 0
        assert not match_pole_ode(n).matched, n


def test_necessary_pole_strength():
    for n in range(1, 7):
        assert necessary_pole_strength(n) == n + 1


def test_necessary_pole_strength_refuses_a_coefficient_not_linear_in_b(monkeypatch):
    # a determinant family carrying b^2 at h*h^(n) pins no single b
    from heatode import jets
    b = JetPoly({jet_mono({PARAM: 1}): 1})
    monkeypatch.setattr(jets, "pole_sum_ode", lambda n, strength: pole_sum_ode(n, None) * b)
    with pytest.raises(ArithmeticError, match="is not linear in b"):
        necessary_pole_strength(3)


def test_match_n1_trivial_closing():
    m1 = match_pole_ode(1)
    assert m1.matched and m1.b == 2
    assert not m1.closing


@pytest.mark.parametrize("n", [0, -1])
def test_match_rejects_a_level_below_one(n):
    with pytest.raises(ValueError, match="n must be positive"):
        match_pole_ode(n)


def test_match_reports_the_residual_of_an_inconsistent_system(monkeypatch):
    # no closing image has an h^(n+1) term, so dropping it from the target leaves exactly it
    from heatode import jets
    exact = jets.pole_sum_ode
    monkeypatch.setattr(jets, "pole_sum_ode", lambda n, b=None: exact(n, b) - JetPoly.h(n + 1))
    m = match_pole_ode(3)
    assert not m.matched and m.closing is None
    assert m.residual == JetPoly.h(4)


@pytest.mark.parametrize("n", [2, 6, 14])
def test_match_residual_at_the_packed_field_boundary(monkeypatch, n):
    # h^(n+2) holds the largest exponent at level n in its key field; no leading
    # monomial holds it, so it is left over exactly.  It vanishes on the slice h = 0,
    # so of the match's two certificate steps only S target != 0 catches it
    from heatode import jets
    exact = jets.pole_sum_ode
    power = JetPoly({jet_mono({0: n + 2}): 1})
    monkeypatch.setattr(jets, "pole_sum_ode", lambda n, b=None: exact(n, b) - power)
    m = match_pole_ode(n)
    assert not m.matched and m.closing is None
    assert m.residual == power


def test_match_makes_one_square_unit_triangular_solve_per_level(monkeypatch):
    # perfbench's match probe reads the size of this one system through jets.solve_linear
    # in closing_monomials order, so the solution is the closing's coefficients basis by basis
    from heatode import jets
    systems = []
    solve = jets.solve_linear

    def recorded(rows, rhs):
        solution, residual = solve(rows, rhs)
        systems.append((rows, solution))
        return solution, residual

    monkeypatch.setattr(jets, "solve_linear", recorded)
    for n in range(1, 11):
        systems.clear()
        match = match_pole_ode(n)
        assert match.matched
        basis = closing_monomials(n)
        size = len(basis)
        assert len(systems) == 1
        rows, solution = systems[0]
        assert len(rows) == size and all(len(row) == size for row in rows)
        assert all(rows[i][j] == (i == j) for i in range(size) for j in range(i + 1))
        assert GradedPoly(dict(zip(basis, solution))) == match.closing


def test_pole_sum_ode_specialises_b_as_substitution_does():
    from heatode import jets
    for n in range(9):
        for b in (1, 2, -3, Q(1, 2), Q(-7, 3), n + 1):
            via_subst = jets._pole_det(n + 2).subst({PARAM: JetPoly.one().scale(b)})
            direct = pole_sum_ode(n, b)
            assert direct == via_subst
            assert list(direct.terms) == list(via_subst.terms)


# The closings match_pole_ode gave at levels 1..16 with all-Fraction coefficients
# (levels 5..10 also agree with the Gauss-Jordan solver used before fraction-free
# elimination, and 13..16 with the tall Bareiss system the triangular solve
# replaced), each term as [monomial, coefficient] in display order.
GOLDEN_CLOSINGS = json.loads((Path(__file__).parent / "detmatch_closings.json").read_text())


@pytest.mark.parametrize("n", range(1, 17))
def test_match_golden_closings(n):
    m = match_pole_ode(n)
    assert m.matched and m.b == n + 1
    expect = [(mono(dict(pairs)), Q(c)) for pairs, c in GOLDEN_CLOSINGS[str(n)]]
    assert m.closing.sorted_terms() == expect


# -- dependent-variable changes ----------------------------------------------

def test_rescale_identity():
    ode = hierarchy_ode(2)
    res = rescale_dependent(ode, 1)
    assert res == ode


def test_rescale_chazy4_via_derivative():
    # differentiating the second member and substituting y = 2h
    ode = total_derivative(hierarchy_ode(2))
    res = rescale_dependent(ode, 2)
    assert res == jp([({3: 1}, 1), ({0: 1, 2: 1}, 3), ({1: 2}, 3), ({0: 2, 1: 1}, 3)])


def test_rescale_zero_scale():
    with pytest.raises(ZeroScale):
        rescale_dependent(hierarchy_ode(1), 0)


def test_chazy12_parameter():
    assert chazy12_parameter(-3) == 4
    assert chazy12_parameter(240) == 40  # 36 - 864/(24-240)
    with pytest.raises(NotChazy12):
        chazy12_parameter(24)


def test_chazy12_parameter_inverts():
    # independent route: plug k^2 back into the defining relation
    for c4 in (Q(-3), Q(240), Q(1, 2)):
        k2 = chazy12_parameter(c4)
        assert Q(24 - c4, 216) == Q(-4) / (k2 - 36)


# -- evaluation and presentation ----------------------------------------------

def test_eval_exact_jet():
    d1 = hierarchy_ode(1)
    assert d1.eval([Q(1), Q(0)]) == 1
    assert d1.eval([Q(1), Q(-1)]) == 0
    with pytest.raises(JetTooShort):
        hierarchy_ode(2).eval([Q(1), Q(1)])


def test_eval_requires_param_value():
    p = pole_sum_ode(2)
    with pytest.raises(ValueError):
        p.eval([Q(1)] * 4)
    assert p.eval([Q(1), Q(0), Q(0), Q(0)], b=Q(3)) == 27


def test_eval_tells_short_jet_from_missing_param():
    with pytest.raises(ValueError) as err:
        pole_sum_ode(2).eval([Q(1)] * 4)
    assert not isinstance(err.value, JetTooShort)
    with pytest.raises(JetTooShort):
        pole_sum_ode(2).eval([Q(1)] * 3)  # too short and no b: the jet is reported
    with pytest.raises(JetTooShort):
        JetPoly.one().eval([])


def test_text_forms():
    assert hierarchy_ode(2).text() == "h'' + 6*h*h' + 4*h^3"
    assert hierarchy_ode(5).text().startswith("h^(5) + 30*h*h''''")
    assert pole_sum_ode(0).text() == "h' + b*h^2"


def test_json_form():
    data = pole_sum_ode(0).to_json()
    assert data["degree"] == -8
    assert {"m": [[1, 1]], "c": "1"} in data["terms"]
    assert {"m": [[0, 2]], "c": "1", "b": 1} in data["terms"]


def test_homogeneity_of_everything():
    for n in range(1, 7):
        assert hierarchy_ode(n).degree == -4 * (n + 1)
        # order n+1 equation, one step up the grading ladder
        assert pole_sum_ode(n).degree == -4 * (n + 2)


def test_basis_images_share_products(monkeypatch):
    # one images() call builds each shared product once, and each image as the product
    # of its lower factors, shared by many monomials, times its highest factor: at most
    # 18 products at level 8 and 101 at level 14, against 33 and 218 for a chain of
    # multiplies per monomial; with every variable substituted nothing is kept
    mul = JetPoly.__mul__
    for n, most in ((8, 18), (14, 101)):
        basis = closing_monomials(n)
        values = {k: hierarchy_ode(k - 1) for k in range(2, n + 2)}
        calls = []
        monkeypatch.setattr(JetPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        triples = list(GradedPoly(dict.fromkeys(basis, 1)).images(values, JetPoly))
        monkeypatch.undo()
        assert len(calls) <= most, n
        assert [m for m, _, _ in triples] == basis and not any(kept for _, kept, _ in triples)
        assert all(image == closing_in_jets(GradedPoly({m: 1})) for m, _, image in triples)


def test_closing_in_jets_degree():
    rng = random.Random(5)
    for n in range(2, 6):
        p = random_closing(rng, n)
        if p:
            assert closing_in_jets(p).degree == -2 * p.weight
