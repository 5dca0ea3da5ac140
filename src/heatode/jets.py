"""Differential polynomials in the jet variables h, h', h'', ...

A jet monomial maps derivative orders q >= 0 to exponents; the variable
h^(q) has grading degree -4-4q, and every polynomial built here is
homogeneous in that grading.  The slot q = -1 is reserved for a symbolic
parameter b of degree 0 (the pole-strength constant of the Hessenberg
determinant family), so determinants can be expanded once with b left
symbolic and specialised later.

The central objects:

  hierarchy_ode(n)    the n-th member of the shift hierarchy, defined by
                      the recursion  F_n = (d/dt + 2n h) F_{n-1},
                      F_1 = h' + h^2.
  family_ode(n, P)    F_{n+1} minus the closing polynomial P evaluated on
                      (F_1, ..., F_{n-1}); its zero set is the order-n+1
                      ODE attached to the reduced dynamical system.
  pole_sum_ode(n, b)  (1/b) det of the (n+2)x(n+2) lower-Hessenberg pole
                      matrix, expanded by an O(n^2) cofactor recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .algebra import GradedPoly, Q, check_closing, closing_monomials, solve_linear

# Jet monomial: sorted ((q, e), ...) with q = -1 holding the symbolic
# parameter b and q >= 0 the derivative order of h.
JetMono = tuple[tuple[int, int], ...]

PARAM = -1


class JetTooShort(ValueError):
    """A jet was evaluated at fewer derivative orders than the polynomial uses."""


class ZeroScale(ValueError):
    """Rescaling of the dependent variable by zero."""


class NotChazy12(ValueError):
    """The requested parameter sits in the Chazy-3 case, not Chazy-12."""


def jet_mono(exponents: Mapping[int, int]) -> JetMono:
    items = tuple(sorted((q, e) for q, e in exponents.items() if e != 0))
    for q, e in items:
        if q < PARAM or e < 0:
            raise ValueError(f"bad jet entry order={q} exp={e}")
    return items

def jet_weight(m: JetMono) -> int:
    """Weight sum 2(q+1)*e_q; the b slot (q = -1) has weight 0."""
    return sum(2 * (q + 1) * e for q, e in m)

def jet_order(m: JetMono) -> int:
    orders = [q for q, _ in m if q >= 0]
    return max(orders) if orders else 0

def _jet_key(m: JetMono) -> tuple:
    # Descending list of derivative orders with multiplicity: display order
    # puts the top derivative first, pure powers of h last.
    orders: list[int] = []
    for q, e in sorted(m, reverse=True):
        if q >= 0:
            orders.extend([q] * e)
    bpow = dict(m).get(PARAM, 0)
    return (tuple(orders), bpow)

def _var_text(q: int, e: int) -> str:
    if q == PARAM:
        base = "b"
    elif q <= 4:
        base = "h" + "'" * q
    else:
        base = f"h^({q})"
    return base if e == 1 else f"{base}^{e}"

def jet_mono_text(m: JetMono) -> str:
    if not m:
        return "1"
    return "*".join(_var_text(q, e) for q, e in sorted(m))


class JetPoly(GradedPoly):
    """Homogeneous differential polynomial with exact rational coefficients.

    The ring operations are GradedPoly's; this class supplies the jet
    grading (weight 2(q+1) for h^(q), so degree = -2*weight), the jet
    presentation and the operations that only make sense on jets.
    """

    __slots__ = ()

    _mono = staticmethod(jet_mono)
    _weight = staticmethod(jet_weight)
    _mono_text = staticmethod(jet_mono_text)
    _display_key = staticmethod(_jet_key)
    _descending = True  # top derivative first

    # perfbench/tracer.py counts jet multiplies apart from graded ones by
    # patching this class-dict entry, so it must exist here.
    __mul__ = GradedPoly.__mul__

    @classmethod
    def h(cls, q: int = 0) -> JetPoly:
        return cls.variable(q)

    @classmethod
    def param(cls) -> JetPoly:
        return cls.variable(PARAM)

    @property
    def degree(self) -> int | None:
        """Grading degree -2*weight, or None for the zero polynomial."""
        return None if self.weight is None else -2 * self.weight

    def order(self) -> int:
        """Highest derivative order that actually occurs."""
        return max((jet_order(m) for m in self.terms), default=0)

    def has_param(self) -> bool:
        return any(q == PARAM for m in self.terms for q, _ in m)

    def subst_param(self, b: Fraction | int) -> JetPoly:
        """Specialise the symbolic b to a rational value."""
        b = Q(b)
        out: dict[JetMono, Fraction] = {}
        for m, c in self.terms.items():
            d = dict(m)
            p = d.pop(PARAM, 0)
            key = tuple(sorted(d.items()))
            out[key] = out.get(key, Q(0)) + c * b ** p
        return JetPoly(out)

    def eval(self, jet, b: Fraction | float | None = None):
        """Evaluate at a jet (sequence indexed by derivative order).

        Exact when the jet entries and b are Fractions; floats give the
        usual binary arithmetic.  The b slot is read from `b`, never from
        the jet (jet[-1] would be the top derivative).
        """
        need = self.order()
        if len(jet) <= need:
            raise JetTooShort(f"need jet through order {need}, got {len(jet) - 1}")
        total = None
        for m, c in self.terms.items():
            term = c
            for q, e in m:
                if q == PARAM:
                    if b is None:
                        raise ValueError("polynomial carries the symbolic b; pass b=")
                    term = term * b ** e
                else:
                    term = term * jet[q] ** e
            total = term if total is None else total + term
        return Q(0) if total is None else total

    def to_json(self) -> dict:
        out = []
        for m, c in self.sorted_terms():
            d = dict(m)
            bpow = d.pop(PARAM, 0)
            entry = {"m": [[q, e] for q, e in sorted(d.items())], "c": str(c)}
            if bpow:
                entry["b"] = bpow
            out.append(entry)
        return {"degree": self.degree, "terms": out}


# -- derivations ------------------------------------------------------------

def total_derivative(p: JetPoly) -> JetPoly:
    """d/dt on jet polynomials: h^(q) contributes d(p)/dh^(q) * h^(q+1)."""
    out = JetPoly.zero()
    for m, c in p.terms.items():
        for q, e in m:
            if q == PARAM:
                continue
            d = dict(m)
            d[q] = e - 1
            d[q + 1] = d.get(q + 1, 0) + 1
            out = out + JetPoly({jet_mono(d): c * e})
    return out


def shifted_derivative(p: JetPoly, m: Fraction | int) -> JetPoly:
    """(d/dt + m*h) applied to p."""
    return total_derivative(p) + (JetPoly.h(0) * p).scale(m)


@lru_cache(maxsize=None)
def hierarchy_ode(n: int) -> JetPoly:
    """F_n from F_1 = h' + h^2 and F_n = (d/dt + 2n h) F_{n-1}; degree -4(n+1)."""
    if n < 1:
        raise ValueError("hierarchy starts at n = 1")
    if n == 1:
        return JetPoly.from_exponents([({1: 1}, 1), ({0: 2}, 1)])
    return shifted_derivative(hierarchy_ode(n - 1), 2 * n)


def closing_in_jets(p: GradedPoly) -> JetPoly:
    """Evaluate a closing polynomial on the hierarchy: x_k -> F_{k-1}."""
    total = JetPoly.zero()
    for m, c in p.terms.items():
        factor = JetPoly({(): c})
        for k, j in m:
            base = hierarchy_ode(k - 1)
            for _ in range(j):
                factor = factor * base
        total = total + factor
    return total


def family_ode(n: int, closing: GradedPoly | None = None) -> JetPoly:
    """The order-(n+1) family member F_{n+1} - P(F_1, ..., F_{n-1}).

    `closing` must be homogeneous of weight 2(n+2) in x_2..x_{n+1} (the
    admissible space at level n), or zero/None for the bare hierarchy.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    closing = check_closing(n, closing)
    top = hierarchy_ode(n + 1)
    if not closing:
        return top
    return top - closing_in_jets(closing)


def head_tail_coefficients(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients of h^(n), h*h^(n-1) and h^{n+1} in the n-th hierarchy member."""
    if n <= 1:
        raise ValueError("defined for n > 1")
    p = hierarchy_ode(n)
    return (p.coefficient(jet_mono({n: 1})),
            p.coefficient(jet_mono({0: 1, n - 1: 1})),
            p.coefficient(jet_mono({0: n + 1})))


def raise_closing(p: GradedPoly) -> GradedPoly:
    """Ladder step sending a level-n closing to the level-(n+1) one.

    Applies sum_k x_{k+1} d/dx_k, which matches the action of
    (d/dt + 2(n+2)h) on the family: the weight rises by 2.
    """
    out = GradedPoly.zero()
    for k in sorted({k for m in p.terms for k, _ in m}):
        out = out + GradedPoly.variable(k + 1) * p.partial(k)
    return out


# -- the pole matrix family -------------------------------------------------

@lru_cache(maxsize=None)
def _pole_det(size: int) -> JetPoly:
    """Determinant of the leading size x size block of the pole matrix.

    The matrix is lower Hessenberg: row i carries b h^(i-j)/(i-j)! up to
    the diagonal and -i on the superdiagonal.  Expanding along the last
    row gives
        d_m = b * sum_i C(m-1, i) h^(m-1-i) d_i,
    the sign of the superdiagonal cancelling the cofactor sign exactly.
    """
    if size == 0:
        return JetPoly.one()
    b = JetPoly.param()
    acc = JetPoly.zero()
    for i in range(size):
        term = JetPoly.h(size - 1 - i).scale(math.comb(size - 1, i)) * _pole_det(i)
        acc = acc + term
    return b * acc


def pole_sum_ode(n: int, b: Fraction | int | None = None) -> JetPoly:
    """(1/b) det of the (n+2)x(n+2) pole matrix; symbolic in b when b is None.

    Homogeneous of degree -4(n+1); its general solution is the sum of
    n+1 simple poles with residue 1/b each.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    det = _pole_det(n + 2)
    out: dict[JetMono, Fraction] = {}
    for m, c in det.terms.items():
        d = dict(m)
        d[PARAM] -= 1  # every term of the determinant carries b at least once
        out[jet_mono(d)] = c
    sym = JetPoly(out)
    if b is None:
        return sym
    b = Q(b)
    if b == 0:
        raise ValueError("b must be nonzero")
    return sym.subst_param(b)


def necessary_pole_strength(n: int) -> Fraction:
    """The b forced by comparing the h*h^(n) coefficient on both sides.

    The determinant family carries (n+2) b there while the hierarchy side
    is fixed, so agreement pins b exactly.  The b-linearity of that
    coefficient is checked, not assumed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    sym = pole_sum_ode(n, None)
    cross: dict[int, Fraction] = {}
    for m, c in sym.terms.items():
        d = dict(m)
        p = d.pop(PARAM, 0)
        if tuple(sorted(d.items())) == jet_mono({0: 1, n: 1}):
            cross[p] = cross.get(p, Q(0)) + c
    if set(cross) != {1}:
        raise ArithmeticError(f"h*h^({n}) coefficient is not linear in b: {cross}")
    fam = hierarchy_ode(n + 1).coefficient(jet_mono({0: 1, n: 1}))
    return fam / cross[1]


@dataclass
class PoleMatch:
    """Result of matching the determinant family against the closing space."""

    n: int
    b: Fraction
    closing: GradedPoly | None
    residual: JetPoly

    @property
    def matched(self) -> bool:
        return self.closing is not None and not self.residual


def match_pole_ode(n: int) -> PoleMatch:
    """Solve family_ode(n, P) == pole_sum_ode(n, n+1) for the closing P.

    Sets up the exact linear system over the closing-basis coordinates
    and reports either the unique solution or the inconsistency residual
    (evidence in either direction for general n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    b = Q(n + 1)
    target = hierarchy_ode(n + 1) - pole_sum_ode(n, b)
    basis = closing_monomials(n)
    basis_jets = [closing_in_jets(GradedPoly({m: Q(1)})) for m in basis]
    monos = sorted({m for p in basis_jets for m in p.terms} | set(target.terms))
    rows = [[p.coefficient(m) for p in basis_jets] for m in monos]
    rhs = [target.coefficient(m) for m in monos]
    if not basis:
        return PoleMatch(n, b, GradedPoly.zero() if not target else None, target)
    coeffs, _ = solve_linear(rows, rhs)
    if coeffs is None:
        return PoleMatch(n, b, None, target)
    closing = GradedPoly({m: c for m, c in zip(basis, coeffs)})
    residual = target - closing_in_jets(closing)
    if residual:
        return PoleMatch(n, b, None, residual)
    return PoleMatch(n, b, closing, residual)


# -- changes of the dependent variable ---------------------------------------

@dataclass
class Rescaled:
    """Substitution h = y/lam: the raw result and its monic normalisation."""

    raw: JetPoly
    monic: JetPoly


def rescale_dependent(p: JetPoly, lam: Fraction | int) -> Rescaled:
    """Express p in the variable y = lam*h, normalising the top jet to 1."""
    lam = Q(lam)
    if lam == 0:
        raise ZeroScale("lam must be nonzero")
    out: dict[JetMono, Fraction] = {}
    for m, c in p.terms.items():
        deg = sum(e for q, e in m if q >= 0)
        out[m] = c / lam ** deg
    raw = JetPoly(out)
    if not raw:
        return Rescaled(raw, raw)
    lead = raw.sorted_terms()[0][1]
    return Rescaled(raw, raw.scale(1 / lead))


def chazy12_parameter(c4: Fraction | int) -> Fraction:
    """Solve (24 - c4)/216 = -4/(k^2 - 36) for k^2; c4 = 24 is the Chazy-3 case."""
    c4 = Q(c4)
    if c4 == 24:
        raise NotChazy12("c4 = 24 gives Chazy-3, not Chazy-12")
    return 36 - Q(864) / (24 - c4)
