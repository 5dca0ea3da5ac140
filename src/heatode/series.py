"""Series builders for the heat-equation ansatz.

Three independent constructions of the same object live here:

  ansatz_series   polynomial-level recursion for the coefficients of the
                  even/odd series z^delta + sum_k P_k(x) z^(2k+delta)/(2k+delta)!,
  coeff_table     the discrete recursion for the scalar coefficients a(J)
                  of the same series written monomial by monomial,
  sigma_series    the Taylor expansion of the Weierstrass sigma-function,
                  which the n = 2 series reproduces under x2 = g2/12,
                  x3 = g3/2.

Keeping the routes independent is the point: each one is an oracle for
the others, and the tests compare them term by term.  Each polynomial
builder (ansatz, bare, sigma) builds a coefficient with one derive and its tail.
Before any work, the polynomial route, the discrete route and the wide
ansatz count the monomials their coefficients could hold
(algebra.check_key_count) and refuse a truncation past MAX_KEYS of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Mapping, Sequence

from .algebra import (Coeff, GradedPoly, Mono, Q, check_closing, check_homogeneous,
                      check_key_count, exponents, keys_by_weight, mono)
from .jets import JetPoly, jet_mono, pole_sum_ode
from .systems import SystemSpec, default_c


def _check_truncation(K: int) -> None:
    """K = 0 is the series z^delta alone; a negative K is no series."""
    if K < 0:
        raise ValueError(f"K must be nonnegative, got {K}")


@dataclass(frozen=True)
class AnsatzSeries:
    """Truncated series z^delta + sum_{k=2}^K P_k(x) z^(2k+delta)/(2k+delta)!."""

    n: int
    delta: int
    c: Fraction
    truncation: int
    coeffs: tuple[GradedPoly, ...]  # P_2 .. P_K

    def coeff(self, k: int) -> GradedPoly:
        if k == 0:
            return GradedPoly.one()
        if k == 1 or (k < 0):
            return GradedPoly.zero()
        if k > self.truncation:
            raise IndexError(f"series truncated at K = {self.truncation}")
        return self.coeffs[k - 2]

    def with_coeff(self, k: int, poly: GradedPoly) -> AnsatzSeries:
        """Copy with one coefficient replaced (fault-injection helper)."""
        coeffs = list(self.coeffs)
        coeffs[k - 2] = poly
        return AnsatzSeries(self.n, self.delta, self.c, self.truncation, tuple(coeffs))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "c": str(self.c),
            "K": self.truncation,
            "coeffs": [{"k": k, "poly": self.coeff(k).to_json()}
                       for k in range(2, self.truncation + 1)],
        }


def ansatz_series(n: int, closing: GradedPoly | None, c: Fraction | int,
                  delta: int, K: int) -> AnsatzSeries:
    """Build the series for the reduced system at level n.

    The flows p_{k+1} of x_k are those of SystemSpec.reduced: x_{k+1} for
    k = 2..n and p_{n+2} = closing; the recursion is

        P_q = 2 sum_k p_{k+1} dP_{q-1}/dx_k
              + (2q+delta-3)(2q+delta-2)/(2(1+2*delta)) * P_2 * P_{q-2}

    from P_1 = 0 and P_2 = c*x_2, so P_3 = 2c*p_3.  At n = 1 there is no x_3
    and the closing space is zero, so p_3 = 0 and every odd coefficient
    vanishes.  The product P_2 * P_{q-2} is taken as x_2 * P_{q-2} with c
    folded into its scalar c(2q+delta-3)(2q+delta-2)/(2(1+2*delta)), which
    is an int whenever it is integral (at the default c, and at c = 3, for
    both parities), so integral coefficients never pass through Fraction.
    The coefficients hold the monomials of weight <= 2K in x_2..x_{n+1}, so
    a K that admits more than MAX_KEYS of them raises ValueError first.
    Each P_q is one GradedPoly.derive along the flows scaled by 2, with
    the tail x_2 * P_{q-2}: the derivative's terms, then the tail's, in one dict.
    """
    spec = SystemSpec.reduced(n, delta, closing, Q(c))
    if K < 2:
        raise ValueError("K must be at least 2")
    c = spec.c
    if n == 0:
        return AnsatzSeries(0, delta, c, K, tuple(GradedPoly.zero() for _ in range(K - 1)))
    check_key_count(range(2, n + 2), 2 * K)
    p2 = {k: p.scale(2) for k, p in enumerate(spec.flows, start=2)}  # twice the flow of x_k
    x2 = mono({2: 1})
    coeffs = [GradedPoly.zero(), GradedPoly.variable(2, c)]  # P_1, P_2
    den = c.denominator * 2 * (1 + 2 * delta)
    for q in range(3, K + 1):
        # the scalar num/den of P_2 * P_{q-2} over x_2, an int when integral
        num = c.numerator * (2 * q + delta - 3) * (2 * q + delta - 2)
        term = coeffs[-1].derive(p2, x2, Q(num, den) if num % den else num // den, coeffs[-2])
        coeffs.append(check_homogeneous(term, 2 * q, None, f"coefficient {q}"))
    return AnsatzSeries(n, delta, c, K, tuple(coeffs[1:]))


# -- the discrete route -------------------------------------------------------

@dataclass(frozen=True)
class CoeffTable:
    """Scalar coefficients a(J), complete for all ||J|| <= 2K."""

    n: int
    delta: int
    c: Fraction
    truncation: int
    # a(J) by the key of x^J, an int when integral, else a Fraction; in fill
    # order: by weight, then by the exponent tuple (j_2, ..., j_{n+1})
    entries: Mapping[Mono, Coeff]
    counts: tuple[int, ...]  # counts[k]: how many entries have weight 2k, k = 0..K

    def to_json(self) -> dict:
        top = range(2, self.n + 2)
        return {
            "n": self.n,
            "delta": self.delta,
            "c": str(self.c),
            "K": self.truncation,
            "entries": [{"J": list(exponents(m, top)), "a": str(a)}
                        for m, a in self.entries.items()],
        }


def coeff_table(n: int, closing: GradedPoly | None, c: Fraction | int,
                delta: int, K: int) -> CoeffTable:
    """Fill a(J) for ||J|| <= 2K by the one-step discrete recursion.

    Each a(J) is a combination of values at strictly smaller weight:

      a(J) = c/(2(1+2d)) (||J||+d-2)(||J||+d-3) a(J - e2)
           + sum_{k=2}^{n} 2 (j_k + 1) a(J + e_k - e_{k+1})
           + sum_S 2 (j_{n+1} + 1) p(S) a(J - S + e_{n+1})

    with a(0) = 1 and a(J) = 0 off the nonnegative orthant.  K = 0 leaves
    a(0) alone; a negative K raises ValueError, a K whose weight bound
    admits an exponent past MAX_EXPONENT (K >= 256) ExponentOverflow, and
    then one that admits more than MAX_KEYS monomials ValueError, before
    any entry is filled.

    Entries are keyed by monomial, so each neighbour is one int
    subtraction from J's key.  A neighbour off the orthant borrows from a
    higher field, which leaves a key with a guard bit set (or a negative
    int), and no stored key has one: it reads 0 with no exponent check.

    The recursion runs on ints: with D the lcm of the denominators of
    c/(2(1+2d)) and of every p(S), the scaled entries b(J) = D^(||J||/2) a(J)
    satisfy the same recursion with c/(2(1+2d)) times D^2 in the first
    term, 2D in the second and D p(S) in the third, since a step to J - e2
    lowers the weight by 4 and the other two steps lower it by 2.  Each of
    these factors is an int and b(0) = 1, so every b(J) is an int.  An
    entry is stored as GradedPoly stores a coefficient: a(J) = b(J) when
    D = 1 (the default c with an integral closing), else b(J)/D^(||J||/2),
    an int when integral and a Fraction otherwise.
    """
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    _check_truncation(K)
    c = Q(c)
    closing_terms = check_closing(n, closing).terms
    ratio = c / (2 * (1 + 2 * delta))
    scale = math.lcm(ratio.denominator, *(v.denominator for v in closing_terms.values()))
    r = (ratio * scale * scale).numerator
    two_scale = 2 * scale
    top = range(2, n + 2)
    levels = keys_by_weight(top, 2 * K)
    x2 = mono({2: 1})
    # J + e_k - e_{k+1} is J's key less the step; i = k - 2 indexes j_k in exponents(J)
    steps = [(i, mono({k + 1: 1}) - mono({k: 1})) for i, k in enumerate(range(2, n + 1))]
    # the scaled closing by key less e_{n+1}: J - S + e_{n+1} is J's key less the shift
    xtop = mono({n + 1: 1})
    shifts = [(m - xtop, (v * scale).numerator) for m, v in closing_terms.items()]
    entries: dict[Mono, Coeff] = {0: 1}
    get = entries.get
    for h in range(1, K + 1):  # weight w = 2h
        first = r * (2 * h + delta - 2) * (2 * h + delta - 3)
        for key in levels[h]:
            js = exponents(key, top)
            value = first * get(key - x2, 0)
            for i, step in steps:
                value += two_scale * (js[i] + 1) * get(key - step, 0)
            value += 2 * (js[-1] + 1) * sum([ps * get(key - shift, 0) for shift, ps in shifts])
            entries[key] = value
    if scale != 1:
        for h, keys in enumerate(levels):
            power = scale ** h
            for key in keys:
                a, rest = divmod(entries[key], power)
                entries[key] = Q(entries[key], power) if rest else a
    return CoeffTable(n, delta, c, K, entries, tuple(map(len, levels)))


def series_from_table(table: CoeffTable) -> AnsatzSeries:
    """Regroup table entries by weight into series coefficients.

    The entries come by weight, counts[k] of weight 2k, so each coefficient
    is the next run of them; GradedPoly drops the zero ones.
    """
    items = iter(table.entries.items())
    coeffs = [GradedPoly(dict(islice(items, count)), 2 * k) for k, count in enumerate(table.counts)]
    return AnsatzSeries(table.n, table.delta, table.c, table.truncation, tuple(coeffs[2:]))


# -- the wide (Gaussian-free) ansatz ------------------------------------------

@dataclass(frozen=True)
class BareSeries:
    """Series z^delta + sum_{k>=1} P_k(x) z^(2k+delta)/(2k+delta)! over x_1..x_{n+1}."""

    n: int
    delta: int
    truncation: int
    coeffs: tuple[GradedPoly, ...]  # P_1 .. P_K

    def coeff(self, k: int) -> GradedPoly:
        if k == 0:
            return GradedPoly.one()
        if k < 0:
            return GradedPoly.zero()
        if k > self.truncation:
            raise IndexError(f"series truncated at K = {self.truncation}")
        return self.coeffs[k - 1]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "K": self.truncation,
            "coeffs": [{"k": k, "poly": self.coeff(k).to_json()}
                       for k in range(1, self.truncation + 1)],
        }


def bare_series(p_list: Sequence[GradedPoly], psi1: GradedPoly, K: int) -> BareSeries:
    """Build the wide-ansatz series from its one-step recursion.

    `p_list` gives the flows p_2..p_{n+2} of x_1..x_{n+1} (each p_{j+1}
    homogeneous of weight 2(j+1)); `psi1` is the weight-2 seed.  The
    recursion is P_{k+1} = 2 sum_j p_{j+1} dP_k/dx_j + P_1 * P_k, one derive
    with the tail a*x_1*P_k as P_1 = a*x_1, x_1 being the only weight-2
    monomial.  A negative K raises ValueError, and so does one whose
    coefficients could hold more than MAX_KEYS monomials, before any is built.
    """
    _check_truncation(K)
    n = len(p_list) - 1
    if n < 0:
        raise ValueError("p_list must cover x_1..x_{n+1}")
    for j, p in enumerate(p_list, start=1):
        check_homogeneous(p, 2 * (j + 1), range(1, n + 2), f"flow of x_{j}")
    check_homogeneous(psi1, 2, range(1, n + 2), "the seed coefficient")
    check_key_count(range(1, n + 2), 2 * K)
    p2 = {j: p.scale(2) for j, p in enumerate(p_list, start=1)}  # twice the flow of x_j
    x1 = mono({1: 1})
    coeffs = [psi1]
    for _ in range(1, K):
        coeffs.append(coeffs[-1].derive(p2, x1, psi1.coefficient(x1), coeffs[-1]))
    return BareSeries(n, 0, K, tuple(coeffs))


def three_pole_flows() -> tuple[GradedPoly, GradedPoly, GradedPoly]:
    """Flows of x_1, x_2, x_3 in the wide-ansatz three-pole example.

    The state is the jet (h, h', h'') of a sum of three simple poles with
    b = 3: x_1' = x_2, x_2' = x_3, and x_3' is h''' solved from
    pole_sum_ode(2, 3) with h^(q) read as x_{q+1}, which gives
    x_3' = -12 x1 x3 - 9 x2^2 - 54 x1^2 x2 - 27 x1^4.
    """
    ode = pole_sum_ode(2, 3)
    top = ode.coefficient(jet_mono({3: 1}))
    rest = ode - JetPoly.h(3).scale(top)
    x3dot = rest.subst({q: GradedPoly.variable(q + 1) for q in range(3)}, GradedPoly)
    return GradedPoly.variable(2), GradedPoly.variable(3), x3dot.scale(Q(-1, top))


# -- Weierstrass sigma --------------------------------------------------------

def sigma_series(K: int) -> list[GradedPoly]:
    """Taylor coefficients S_k of sigma = sum S_k z^(2k+1)/(2k+1)!, k <= K.

    Variables: slot 2 holds g2 (weight 4) and slot 3 holds g3 (weight 6).
    Solving the annihilating second-order operator order by order gives

        S_{m+1} = 2 l2(S_m) - m(2m+1)/6 * g2 * S_{m-1},

    with l2 = 6 g3 d/dg2 + (1/3) g2^2 d/dg3; the scaling operator is then
    satisfied automatically because every S_k is homogeneous of weight 2k
    (asserted below, not assumed), and each S_{m+1} is one derive with the
    tail g2 * S_{m-1}.  A negative K raises ValueError.
    """
    _check_truncation(K)
    g2 = GradedPoly.variable(2)
    # 2 l2, written out rather than taken from sigma_l2, which verify sigma checks against it
    twice_l2 = {2: GradedPoly.variable(3, 12), 3: (g2 * g2).scale(Q(2, 3))}
    out = [GradedPoly.one(), GradedPoly.zero()]
    for m in range(1, K):
        nxt = out[m].derive(twice_l2, mono({2: 1}), -Q(m * (2 * m + 1), 6), out[m - 1])
        out.append(check_homogeneous(nxt, 2 * (m + 1), None, f"sigma coefficient {m + 1}"))
    return out[:K + 1]


def sigma_l2(p: GradedPoly) -> GradedPoly:
    """The lowering field 6 g3 d/dg2 + (1/3) g2^2 d/dg3 on (g2, g3) polynomials."""
    g2 = GradedPoly.variable(2)
    return p.derive({2: GradedPoly.variable(3, 6), 3: (g2 * g2).scale(Q(1, 3))})


# -- Hermite polynomials ------------------------------------------------------

def hermite(k: int) -> list[Fraction]:
    """Coefficient list of He_k (probabilists' convention).

    Defined by repeated differentiation of the Gaussian, which yields the
    recursion He_{k+1} = x He_k - He_k'.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    he = [Q(1)]
    for _ in range(k):
        shifted = [Q(0)] + he                                  # x * He
        deriv = [Q(i) * c for i, c in enumerate(he)][1:]       # He'
        he = [a - (deriv[i] if i < len(deriv) else Q(0))
              for i, a in enumerate(shifted)]
    return he


def hermite_eval(coeffs: Sequence[Fraction], x):
    value = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        value = value * x + c
    return value


# -- the single-variable eigenfunction check ----------------------------------

def quartic_eigenfunction_check(K: int, delta: int,
                                lam: Fraction | None = None,
                                series: AnsatzSeries | None = None) -> int | None:
    """Verify the n = 1 series is z^delta times an eigenfunction of z^4.

    Two exact identities are checked through the truncation order, each
    indexed by the coefficient it produces: the second-derivative
    equation P_k = -(2k+d-2)(2k+d-3) x2 P_{k-2}, and the eigenfunction
    equation for gamma(v) with v = z^4 at eigenvalue lam*x2 (default
    -1/(4(3+2*delta)), the value forced by the series itself).  Returns
    the first order at which either fails, or None when both hold.
    """
    if series is None:
        series = ansatz_series(1, None, default_c(delta), delta, K)
    if lam is None:
        lam = Q(-1, 4 * (3 + 2 * delta))
    x2 = GradedPoly.variable(2)
    for k in range(2, K + 1):
        rhs = (x2 * series.coeff(k - 2)).scale(-Q((2 * k + delta - 2) * (2 * k + delta - 3)))
        if series.coeff(k) != rhs:
            return k
        if k % 2 == 0:  # gamma_m and gamma_{m+1} are P_{k-2} and P_k, with k = 2m + 2
            m = k // 2 - 1
            gm = series.coeff(k - 2).scale(Q(1, math.factorial(2 * k - 4 + delta)))
            gm1 = series.coeff(k).scale(Q(1, math.factorial(2 * k + delta)))
            if gm1.scale(Q(m + 1) * (1 + Q(4 * m, 3 + 2 * delta))) != (x2 * gm).scale(lam):
                return k
    return None
