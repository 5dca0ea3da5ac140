"""The packed-key coefficient table against the dense-tuple recursion it replaced.

`dense_coeff_table` is the discrete recursion written on dense exponent
tuples (j_2, ..., j_{n+1}): every neighbour is a new tuple, and a tuple
with a negative entry is simply never stored.  It is kept here only as the
oracle for series.coeff_table, which runs on monomial keys.
"""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from heatode.algebra import (ExponentOverflow, GradedPoly, MAX_EXPONENT, check_closing,
                             closing_from_coeffs, closing_monomials, mono, unpack)
from heatode.series import AnsatzSeries, coeff_table, series_from_table


def index_weight(j):
    return sum(2 * (i + 2) * e for i, e in enumerate(j))


def indices_up_to(n, max_weight):
    out = [(0, ())]
    for i in range(n):
        step = 2 * (i + 2)
        out = [(w + e * step, j + (e,))
               for w, j in out for e in range((max_weight - w) // step + 1)]
    out.sort()
    return out


def dense_coeff_table(n, closing, c, delta, K):
    """(entries by dense index in fill order, to_json) of the dense-tuple recursion."""
    c = Q(c)
    closing_terms = check_closing(n, closing).terms
    ratio = c / (2 * (1 + 2 * delta))
    scale = math.lcm(ratio.denominator, *(v.denominator for v in closing_terms.values()))
    r = (ratio * scale * scale).numerator
    two_scale = 2 * scale
    pmap = {tuple(dict(unpack(m)).get(k, 0) - (k == n + 1) for k in range(2, n + 2)):
            (v * scale).numerator for m, v in closing_terms.items()}
    indices = indices_up_to(n, 2 * K)
    entries = {}
    get = entries.get
    for w, j in indices:
        if w == 0:
            entries[j] = 1
            continue
        value = r * (w + delta - 2) * (w + delta - 3) * get((j[0] - 1, *j[1:]), 0)
        for i in range(n - 1):
            value += two_scale * (j[i] + 1) * get((*j[:i], j[i] + 1, j[i + 1] - 1, *j[i + 2:]), 0)
        for s, ps in pmap.items():
            value += 2 * (j[n - 1] + 1) * ps * get(tuple(a - b for a, b in zip(j, s)), 0)
        entries[j] = value
    if scale != 1:
        for w, j in indices:
            power = scale ** (w // 2)
            a, rest = divmod(entries[j], power)
            entries[j] = Q(entries[j], power) if rest else a
    rows = sorted(entries.items(), key=lambda t: (index_weight(t[0]), t[0]))
    to_json = {"n": n, "delta": delta, "c": str(c), "K": K,
               "entries": [{"J": list(j), "a": str(a)} for j, a in rows]}
    return entries, to_json


def dense_series(n, delta, c, K, entries):
    """The dense table regrouped by weight, as series_from_table did on dense indices."""
    buckets = {}
    for j, a in entries.items():
        w = index_weight(j)
        if w == 0 or a == 0:
            continue
        buckets.setdefault(w // 2, {})[mono({i + 2: e for i, e in enumerate(j)})] = a
    coeffs = tuple(GradedPoly(buckets.get(k, {}), 2 * k) for k in range(2, K + 1))
    return AnsatzSeries(n, delta, Q(c), K, coeffs)


def key(j):
    return mono({i + 2: e for i, e in enumerate(j)})


values = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=7))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), delta=st.sampled_from((0, 1)),
       K=st.integers(0, 14), c=values)
def test_packed_table_matches_the_dense_recursion(data, n, delta, K, c):
    monos = closing_monomials(n)
    coeffs = data.draw(st.lists(values, min_size=len(monos), max_size=len(monos)))
    closing = closing_from_coeffs(n, coeffs) if monos else None
    table = coeff_table(n, closing, c, delta, K)
    entries, to_json = dense_coeff_table(n, closing, c, delta, K)
    # every entry, under its key, in the dense fill order, with the same type
    assert list(table.entries) == [key(j) for j in entries]
    for j, a in entries.items():
        got = table.entries[key(j)]
        assert got == a and type(got) is type(a)
    assert table.to_json() == to_json
    got = series_from_table(table)
    want = dense_series(n, delta, c, K, entries)
    assert got == want
    for k in range(2, K + 1):
        assert list(got.coeff(k).terms.items()) == list(want.coeff(k).terms.items())
        assert got.coeff(k).weight == want.coeff(k).weight


@pytest.mark.parametrize("n, c, coeffs", [
    (2, Q(5, 3), [1]),                    # c/(2(1+2d)) = 5/18: D = 18
    (3, Q(7, 4), [Q(-3, 4)]),             # D = lcm(24, 4) = 24
    (4, Q(-7, 2), [Q(1, 2), 3, Q(-2, 5)]),
])
def test_scaled_tables_match_the_dense_recursion(n, c, coeffs):
    # fixed D > 1 cases besides the drawn ones: the entries are b(J) / D^(||J||/2)
    closing = closing_from_coeffs(n, coeffs)
    table = coeff_table(n, closing, c, 1, 12)
    entries, to_json = dense_coeff_table(n, closing, c, 1, 12)
    assert {j: table.entries[key(j)] for j in entries} == entries
    assert [type(a) for a in table.entries.values()] == [type(a) for a in entries.values()]
    assert any(type(a) is Q for a in entries.values())
    assert table.to_json() == to_json


@pytest.mark.parametrize("delta", (0, 1))
def test_a_borrowed_neighbour_reads_zero(delta):
    # J = e3 at n = 2: J - e2 is off the orthant.  Its key borrows from x3's
    # field, which leaves x2's field at 255 with the guard bit set, so it
    # matches no stored key and the first term of a(e3) reads 0
    e2, e3 = mono({2: 1}), mono({3: 1})
    below = e3 - e2
    assert unpack(below) == ((2, 255),) and 255 > MAX_EXPONENT
    table = coeff_table(2, closing_from_coeffs(2, [7]), Q(3), delta, 4)
    assert below not in table.entries
    # only the step J + e2 - e3 = e2 contributes, with weight 2 (j2 + 1) = 2
    assert table.entries[e3] == 2 * table.entries[e2] != 0
    entries, _ = dense_coeff_table(2, closing_from_coeffs(2, [7]), Q(3), delta, 4)
    assert entries[(0, 1)] == table.entries[e3]


def test_table_refuses_exponents_past_the_largest():
    # at n = 1 the table holds x2^(K // 2): 127 fits a key's field, 128 does not
    table = coeff_table(1, None, Q(3), 0, 255)
    assert max(table.entries) == mono({2: 127})
    for n in (1, 2, 6):
        with pytest.raises(ExponentOverflow):
            coeff_table(n, None, Q(3), 0, 256)
