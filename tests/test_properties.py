"""Property tests for the sparse polynomial core, under both gradings.

GradedPoly grades x_k with weight 2k; JetPoly grades h^(q) with weight
2(q+1) and the symbolic b with weight 0.  Every ring operation is shared,
so each law is checked once per grading.
"""

import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from heatode.algebra import GradedPoly, WeightMismatch, monomial_basis
from heatode.jets import PARAM, JetPoly, jet_mono, total_derivative

CLASSES = [GradedPoly, JetPoly]
WEIGHTS = (0, 2, 4, 6)
SETTINGS = settings(max_examples=20, deadline=None)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def basis(cls, weight):
    """All monomials of one weight in the first four variables (and b for jets)."""
    parts = monomial_basis(weight // 2, 1, 4)
    if cls is GradedPoly:
        return parts
    return [jet_mono({**{k - 1: j for k, j in m}, PARAM: p}) for m in parts for p in (0, 1)]


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
    p = data.draw(polys(GradedPoly, w))
    back = GradedPoly.from_json(json.loads(json.dumps(p.to_json())))
    assert back == p and back.weight == p.weight


@SETTINGS
@given(data=st.data(), w=st.sampled_from(WEIGHTS), u=st.sampled_from(WEIGHTS))
def test_total_derivative_leibniz(data, w, u):
    a, b = data.draw(polys(JetPoly, w)), data.draw(polys(JetPoly, u))
    assert total_derivative(a * b) == total_derivative(a) * b + a * total_derivative(b)
    # d/dt raises the weight by 2 (one more derivative)
    if total_derivative(a):
        assert total_derivative(a).weight == w + 2
