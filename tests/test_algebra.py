"""Exact polynomial algebra: ring laws, partitions, closing-space bases."""

import json
import random
from fractions import Fraction as Q

import pytest

from heatode import algebra
from heatode.algebra import (
    MAX_EXPONENT,
    MAX_KEYS,
    UNPACK_CACHE,
    ExponentOverflow,
    GradedPoly,
    WeightMismatch,
    check_key_count,
    closing_from_coeffs,
    closing_monomials,
    keys_by_weight,
    mono,
    monomial_basis,
    partition_count,
    unpack,
)
from heatode.series import ansatz_series


def enumerate_partitions(m):
    """Brute-force oracle: all descending part tuples summing to m."""
    def rec(total, maxpart):
        if total == 0:
            yield ()
            return
        for p in range(min(total, maxpart), 0, -1):
            for rest in rec(total - p, p):
                yield (p,) + rest
    return list(rec(m, m))


def random_poly(rng, weight, kmax, nterms=3):
    basis = monomial_basis(weight // 2, 2, kmax)
    if not basis:
        return GradedPoly.zero()
    terms = {}
    for m in rng.sample(basis, min(nterms, len(basis))):
        terms[m] = Q(rng.randint(-5, 5))
    return GradedPoly(terms)


x2 = GradedPoly.variable(2)
x3 = GradedPoly.variable(3)
x4 = GradedPoly.variable(4)


def test_additive_inverse():
    assert not (x2 + x2.scale(-1))


def test_like_terms():
    p = (x2 * x2).scale(3) + x2 * x2
    assert p == (x2 * x2).scale(4)


def test_weight_mismatch_raised():
    # ||(2,0)|| = 8 differs from ||(0,1)|| = 6
    with pytest.raises(WeightMismatch):
        x2 * x2 + x3


def test_zero_is_weight_wildcard():
    z = GradedPoly.zero()
    assert (z + x2) == x2
    assert (x3 + z) == x3
    assert not z * x2


def test_monomial_products():
    assert (x2 * x2).weight == 8
    assert (x2 * x3).weight == 10
    assert (x2 * x3) == GradedPoly({mono({2: 1, 3: 1}): Q(1)})


def test_partial_derivatives():
    assert (x2 * x2).partial(2) == x2.scale(2)
    assert not (x2 * x2).partial(3)
    assert (x2 * x3).partial(2) == x3


def test_partial_weight_drop():
    p = x2 * x2 * x3
    assert p.partial(2).weight == p.weight - 4
    assert p.partial(3).weight == p.weight - 6


def test_at_zero_keeps_the_terms_free_of_the_variable_in_order():
    p = (x2 * x2 * x2).scale(3) + (x2 * x4).scale(Q(-1, 2)) + x3 * x3
    assert list(p.at_zero(4).terms.items()) == [(mono({2: 3}), 3), (mono({3: 2}), 1)]
    assert p.at_zero(3) == (x2 * x2 * x2).scale(3) + (x2 * x4).scale(Q(-1, 2))
    assert p.at_zero(2) == x3 * x3 and p.at_zero(2).weight == p.weight
    assert p.at_zero(5) == p
    assert not (x2 * x3).at_zero(2) and (x2 * x3).at_zero(2).weight is None
    assert not GradedPoly.zero().at_zero(2)


def test_at_zero_at_the_largest_exponent_a_field_holds():
    # x1^127 fills its field up to the guard; x2's field above it is read apart
    top = GradedPoly({mono({1: MAX_EXPONENT}): 1})
    mixed = GradedPoly({mono({1: 1, 2: (MAX_EXPONENT - 1) // 2}): -2})
    p = top + mixed
    assert p.at_zero(2) == top and p.at_zero(3) == p
    assert not p.at_zero(1)


def test_leibniz_rule_random():
    rng = random.Random(7)
    for _ in range(30):
        w1 = rng.choice([4, 6, 8, 10])
        w2 = rng.choice([4, 6, 8])
        a = random_poly(rng, w1, 5)
        b = random_poly(rng, w2, 5)
        k = rng.choice([2, 3, 4, 5])
        lhs = (a * b).partial(k)
        rhs = a.partial(k) * b + a * b.partial(k)
        assert lhs == rhs


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(20):
        w = rng.choice([4, 6, 8])
        a = random_poly(rng, w, 4)
        b = random_poly(rng, w, 4)
        c = random_poly(rng, rng.choice([4, 6]), 4)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a


def test_partition_count_against_enumeration():
    for m in range(31):
        assert partition_count(m) == len(enumerate_partitions(m))


def test_partition_values():
    assert partition_count(0) == 1
    assert partition_count(4) == 5
    assert partition_count(6) == 11


def bounded_partitions(total, kmin, kmax):
    """Oracle: the descending part tuples of `total` with parts in [kmin, kmax], in ascending lex
    order of the tuple, the report order."""
    if total == 0:
        yield ()
        return
    for largest in range(kmin, min(kmax, total) + 1):
        for rest in bounded_partitions(total - largest, kmin, largest):
            yield (largest,) + rest


@pytest.mark.parametrize("kmin", (1, 2, 3))
def test_monomial_basis_matches_the_partition_oracle_in_key_order(kmin):
    for total in range(-2, 31):
        for kmax in (0, 1, 2, 3, 4, 5, 7, 10, 15, 30, 31):  # kmin > kmax included
            want = [mono({k: parts.count(k) for k in set(parts)})
                    for parts in bounded_partitions(total, kmin, kmax)]
            got = monomial_basis(total, kmin, kmax)
            assert got == want == sorted(want), (total, kmin, kmax)
    assert monomial_basis(0, kmin, kmin - 1) == [mono({})]


def test_monomial_basis_overflows_only_on_a_returned_monomial():
    # total 256 in x2, x3 holds x2^128; total 257 reaches x2^128 with 1 left over, which
    # completes no monomial, so every returned exponent fits
    with pytest.raises(ExponentOverflow):
        monomial_basis(256, 2, 3)
    keys = monomial_basis(257, 2, 3)
    assert len(keys) == 43
    assert keys[0] == mono({2: MAX_EXPONENT, 3: 1}) and keys[-1] == mono({2: 1, 3: 85})
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", range(7))
def test_key_count_is_the_number_of_keys_by_weight(n):
    for K in range(13):
        levels = keys_by_weight(range(2, n + 2), 2 * K)
        assert check_key_count(range(2, n + 2), 2 * K) == sum(map(len, levels))


def test_key_count_admits_every_series_the_package_runs():
    # levels up to 6 at K <= 32 (the goldens, the benchmark's series) and level 1 up to K = 255
    assert check_key_count(range(2, 8), 64) <= MAX_KEYS
    assert check_key_count(range(2, 3), 510) <= MAX_KEYS


def test_key_count_refuses_only_past_the_bound(monkeypatch):
    count = check_key_count(range(2, 8), 48)
    monkeypatch.setattr(algebra, "MAX_KEYS", count)
    assert sum(map(len, keys_by_weight(range(2, 8), 48))) == count
    monkeypatch.setattr(algebra, "MAX_KEYS", count - 1)
    for call in (lambda: keys_by_weight(range(2, 8), 48),
                 lambda: ansatz_series(6, None, Q(1), 0, 24)):
        with pytest.raises(ValueError, match=f"admits {count} monomials, past the bound"):
            call()


def test_closing_basis_explicit():
    assert closing_monomials(2) == [mono({2: 2})]
    assert closing_monomials(3) == [mono({2: 1, 3: 1})]
    assert closing_monomials(4) == [mono({2: 3}), mono({3: 2}), mono({2: 1, 4: 1})]


def test_closing_from_coeffs_checks_the_count():
    assert closing_from_coeffs(4, [-45, -26, -31]).text() == "-45*x2^3 - 26*x3^2 - 31*x2*x4"
    assert not closing_from_coeffs(1, [])
    for n, coeffs in ((2, [24, 1]), (4, [1, 2]), (1, [3])):
        with pytest.raises(ValueError):
            closing_from_coeffs(n, coeffs)


def test_closing_basis_weights():
    for n in range(2, 10):
        for m in closing_monomials(n):
            p = GradedPoly({m: Q(1)})
            assert p.weight == 2 * (n + 2)


def test_subst_diagonal():
    p = (x2 * x2).scale(24)
    q = p.subst({2: x2.scale(Q(1, 12))})
    assert q == (x2 * x2).scale(Q(1, 6))


def test_subst_into_another_grading():
    # x_k -> F_{k-1} keeps the weight in the jet grading; a kept variable must
    # weigh the same in both gradings (x_2 is weight 4, h'' weight 6)
    from heatode.jets import JetPoly, hierarchy_ode
    p = (x2 * x2 * x3).scale(Q(3, 2)) + (x3 * x4).scale(-2)
    f1, f2, f3 = hierarchy_ode(1), hierarchy_ode(2), hierarchy_ode(3)
    q = p.subst({2: f1, 3: f2, 4: f3}, JetPoly)
    assert type(q) is JetPoly and q.weight == p.weight
    assert q == (f1 * f1 * f2).scale(Q(3, 2)) + (f2 * f3).scale(-2)
    with pytest.raises(WeightMismatch):
        x2.subst({}, JetPoly)
    with pytest.raises(WeightMismatch):
        x2.subst({2: f2}, JetPoly)


def test_eval_exact():
    p = x2 * x3 - (x2 * x3).scale(2)
    assert p.eval({2: Q(3), 3: Q(1, 2)}) == Q(-3, 2)


def test_unpack_decodes_every_key_again_after_eviction():
    assert unpack.cache_info().maxsize == UNPACK_CACHE
    # UNPACK_CACHE + 50 distinct keys
    exps = [{1: i % 7, 3: i // 7 % 5, 40: i // 35 + 1} for i in range(UNPACK_CACHE + 50)]
    want = [tuple((k, j) for k, j in sorted(e.items()) if j) for e in exps]
    for _ in range(2):  # the first pass evicts the first keys before the second asks again
        assert [unpack(mono(e)) for e in exps] == want


def test_text_form():
    p = (x2 * x2 * x2).scale(-45) - (x3 * x3).scale(26) - (x2 * x4).scale(31)
    assert p.text() == "-45*x2^3 - 26*x3^2 - 31*x2*x4"


def test_repr_names_the_class_and_the_text():
    from heatode.jets import JetPoly
    assert repr((x2 * x2).scale(-3) + x4) == "GradedPoly(-3*x2^2 + x4)"
    assert repr(GradedPoly.zero()) == "GradedPoly(0)"
    assert repr(JetPoly.h(1) + JetPoly.h() * JetPoly.h()) == "JetPoly(h' + h^2)"


def test_json_roundtrip():
    # ascending key order puts x3^2 first; each monomial lists its variables by ascending index
    p = (x2 * x4).scale(Q(-31, 7)) + (x3 * x3).scale(2)
    data = p.to_json()
    assert json.loads(json.dumps(data)) == data == {
        "weight": 12, "terms": [{"m": [[3, 2]], "c": "2"}, {"m": [[2, 1], [4, 1]], "c": "-31/7"}]}
