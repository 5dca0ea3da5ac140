"""Differential polynomials in the jet variables h, h', h'', ...

A jet monomial maps derivative orders q >= 0 to exponents; the variable
h^(q) has grading degree -4-4q, and every polynomial built here is
homogeneous in that grading.  The slot q = -1 is reserved for a symbolic
parameter b of degree 0 (the pole-strength constant of the Hessenberg
determinant family), so the family can be built once with b left
symbolic and specialised later; to_json writes its exponent as "b".

The central objects:

  hierarchy_ode(n)    the n-th member of the shift hierarchy, defined by
                      the recursion  F_n = (d/dt + 2n h) F_{n-1},
                      F_1 = h' + h^2.
  family_ode(n, P)    F_{n+1} minus the closing polynomial P evaluated on
                      (F_1, ..., F_{n-1}); its zero set is the order-n+1
                      ODE attached to the reduced dynamical system.
  pole_sum_ode(n, b)  (1/b) det of the (n+2)x(n+2) lower-Hessenberg pole
                      matrix, the ladder (d/dt + b h)^(n+1) h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .algebra import (GradedPoly, Mono, Q, check_closing, check_level, closing_monomials, mono,
                      solve_linear, unpack)

# Jet monomial: an algebra key over the indices q >= -1, q = -1 holding the
# symbolic parameter b (the lowest field) and q >= 0 the derivative order
# of h, so integer order is lex order with the highest derivative first.
JetMono = Mono

PARAM = -1


class JetTooShort(ValueError):
    """A jet was evaluated at fewer derivative orders than the polynomial uses."""


class ZeroScale(ValueError):
    """Rescaling of the dependent variable by zero."""


class NotChazy12(ValueError):
    """The requested parameter sits in the Chazy-3 case, not Chazy-12."""


def jet_mono(exponents: Mapping[int, int]) -> JetMono:
    return mono(exponents, PARAM)

def jet_weight(m: JetMono) -> int:
    """Weight sum 2(q+1)*e_q; the b slot (q = -1) has weight 0."""
    return sum(2 * (q + 1) * e for q, e in unpack(m))

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
    return "*".join(_var_text(q, e) for q, e in unpack(m))


class JetPoly(GradedPoly):
    """Homogeneous differential polynomial with exact rational coefficients.

    Coefficients follow GradedPoly's rule (an int when integral), and
    monomials are GradedPoly's keys, b in the lowest field.  The ring
    operations are GradedPoly's; this class supplies the jet grading
    (weight 2(q+1) for h^(q), so degree = -2*weight), the jet
    presentation and the operations that only make sense on jets.
    """

    __slots__ = ()

    _mono = staticmethod(jet_mono)
    _weight = staticmethod(jet_weight)
    _mono_text = staticmethod(jet_mono_text)
    _descending = True  # top derivative first, pure powers of h last

    # perfbench/tracer.py counts jet multiplies apart from graded ones by
    # patching this class-dict entry, so it must exist here.
    __mul__ = GradedPoly.__mul__

    @classmethod
    def h(cls, q: int = 0) -> JetPoly:
        return cls.variable(q)

    @property
    def degree(self) -> int | None:
        """Grading degree -2*weight, or None for the zero polynomial."""
        return None if self.weight is None else -2 * self.weight

    def order(self) -> int:
        """Highest derivative order that actually occurs."""
        # in key order the highest derivative comes last
        return max([0] + [q for q, _ in unpack(max(self.terms, default=0))])

    def eval(self, jet, b: Fraction | float | None = None):
        """Evaluate at a jet (sequence indexed by derivative order).

        Exact when the jet entries and b are Fractions; floats give the
        usual binary arithmetic.  The b slot is read from `b`, never from
        the jet (jet[-1] would be the top derivative).
        """
        values = dict(enumerate(jet))
        if b is not None:
            values[PARAM] = b
        try:
            if len(jet):  # an empty jet is too short even for a constant
                return super().eval(values)
        except KeyError:  # a missing order or a missing b; order() tells which
            pass
        need = self.order()
        if len(jet) <= need:
            raise JetTooShort(f"need jet through order {need}, got {len(jet) - 1}")
        raise ValueError("polynomial carries the symbolic b; pass b=")

    def to_json(self) -> dict:
        out = []
        for m, c in self.sorted_terms():
            d = dict(unpack(m))
            bpow = d.pop(PARAM, 0)
            entry = {"m": [[q, e] for q, e in d.items()], "c": str(c)}
            if bpow:
                entry["b"] = bpow
            out.append(entry)
        return {"degree": self.degree, "terms": out}


# -- derivations ------------------------------------------------------------

def shifted_derivative(p: JetPoly, m: Fraction | int, key: JetMono = jet_mono({0: 1})) -> JetPoly:
    """(d/dt + m*x^key) applied to p, x^key = h by default, d/dt = sum_q h^(q+1) d/dh^(q)."""
    return p.derive({q: JetPoly.h(q + 1) for q in range(p.order() + 1)}, key, m, p)


def total_derivative(p: JetPoly) -> JetPoly:
    """d/dt on jet polynomials."""
    return shifted_derivative(p, 0)


def sl2_lowering(p: JetPoly) -> JetPoly:
    """S p for the t^0 generator S = d/dh - sum_{q>=1} q(q+1) h^(q-1) d/dh^(q) of the sl(2) action.

    S lowers the weight by 2 and moves h by a constant (S h = 1); on every
    generator [S, d/dt] = -weight, so S kills each F_k and pole_sum_ode(n, n+1).
    The symbolic b is a constant for S.
    """
    return p.derive({0: JetPoly.one(),
                     **{q: JetPoly.h(q - 1).scale(-q * (q + 1)) for q in range(1, p.order() + 1)}})


@lru_cache(maxsize=None)
def hierarchy_ode(n: int) -> JetPoly:
    """F_n from F_1 = h' + h^2 and F_n = (d/dt + 2n h) F_{n-1}; degree -4(n+1)."""
    if n < 1:
        raise ValueError("hierarchy starts at n = 1")
    check_level(n - 1)  # F_n tops level n - 1's family; refused before the recursion
    if n == 1:
        return JetPoly.from_exponents([({1: 1}, 1), ({0: 2}, 1)])
    return shifted_derivative(hierarchy_ode(n - 1), 2 * n)


def closing_in_jets(p: GradedPoly) -> JetPoly:
    """Evaluate a closing polynomial on the hierarchy: x_k -> F_{k-1}."""
    return p.subst({k: hierarchy_ode(k - 1) for m in p.terms for k, _ in unpack(m)}, JetPoly)


def family_ode(n: int, closing: GradedPoly | None = None) -> JetPoly:
    """The order-(n+1) family member F_{n+1} - P(F_1, ..., F_{n-1}).

    `closing` must be homogeneous of weight 2(n+2) in x_2..x_{n+1} (the
    admissible space at level n), or zero/None for the bare hierarchy.
    """
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


# -- the pole matrix family -------------------------------------------------

@lru_cache(maxsize=None)
def _pole_det(size: int) -> JetPoly:
    """(1/b) det of the leading size x size block of the pole matrix, size >= 1.

    Row i carries b h^(i-j)/(i-j)! up to the diagonal and -i on the
    superdiagonal.  The determinant is the complete Bell polynomial in
    b h, b h', ... (Bell, Ann. of Math. 35, 1934), so D_1 = h and
    D_{m+1} = (d/dt + b h) D_m: one shifted derivative per size.
    """
    if size == 1:
        return JetPoly.h()
    check_level(size - 2)  # pole_sum_ode at level n takes size n + 2; refused before the recursion
    return shifted_derivative(_pole_det(size - 1), 1, jet_mono({PARAM: 1, 0: 1}))


def pole_sum_ode(n: int, b: Fraction | int | None = None) -> JetPoly:
    """(1/b) det of the (n+2)x(n+2) pole matrix; symbolic in b when b is None.

    That is (d/dt + b h)^(n+1) h, homogeneous of degree -4(n+2), and the
    sum of n+1 simple poles with residue 1/b each solves it: for
    u = prod (t - a_k), b h = u'/u and (d/dt + u'/u) f = (u f)'/u, so the
    ladder gives u^(n+2)/(b u) = 0, u having degree n+1.
    """
    sym = _pole_det(check_level(n) + 2)
    if b is None:
        return sym
    b = Q(b)
    if b == 0:
        raise ValueError("b must be nonzero")
    return sym.subst({PARAM: JetPoly.one().scale(b)})


def necessary_pole_strength(n: int) -> Fraction:
    """The b forced by comparing the h*h^(n) coefficient on both sides.

    The determinant family carries (n+2) b there while the hierarchy side
    is fixed, so agreement pins b exactly.  The b-linearity of that
    coefficient is checked, not assumed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # the h*h^(n) coefficient as a polynomial in b: differentiate, then set every h^(q) to 0
    cross = pole_sum_ode(n, None).partial(0).partial(n).subst(
        {q: JetPoly.zero() for q in range(n + 2)})
    if set(cross.terms) != {jet_mono({PARAM: 1})}:
        raise ArithmeticError(f"h*h^({n}) coefficient is not linear in b: {cross.text()}")
    fam = hierarchy_ode(n + 1).coefficient(jet_mono({0: 1, n: 1}))
    return Q(fam) / cross.coefficient(jet_mono({PARAM: 1}))


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

    In lex order with the highest derivative first, F_q leads with h^(q)
    and coefficient 1, so the image of prod x_k^(j_k) on the hierarchy
    leads with prod (h^(k-1))^(j_k) and coefficient 1.  Keys are in that
    order and x_k sits one field above h^(k-1), so each lead is its
    monomial's key one field down: closing_monomials(n) is in lead order,
    and the rows at the leads are upper unit-triangular with no sort
    (solve_linear refuses any other).  One square solve gives the only
    candidate (the subduction step of subalgebra bases).

    No lead holds h, so the images, the rows and the remainder are built on
    the slice h = 0 (each F_k restricted there), and the match is certified
    by two exact steps: the slice remainder is 0, and S target is 0 for S =
    sl2_lowering.  They hold exactly when the full remainder R = target -
    sum c*image is 0: restriction to h = 0 is a ring map, so R there is the
    slice remainder, S R = S target by (2), and (1) gives R = 0.
      (1) S f = 0 and f = 0 at h = 0 give f = 0.  Write f = sum_{j>=j0} h^j f_j,
          f_j free of h, f_j0 != 0, j0 >= 1; the lowest power of h in S f is
          h^(j0-1), with coefficient j0*f_j0 (the other terms of S keep or raise it).
      (2) S kills every product of the F_k.  S is a derivation, S F_1 = 2h - 2h
          = 0, and [S, d/dt] = -weight gives S F_k = (d/dt + 2k h) S F_(k-1).
    When either step fails the residual is R, computed as target -
    closing_in_jets(candidate), and no closing is returned.
    """
    if n < 1:
        raise ValueError("n must be positive")
    b = Q(check_level(n) + 1)
    target = hierarchy_ode(n + 1) - pole_sum_ode(n, b)
    basis = closing_monomials(n)
    images = [image.terms for _, _, image in GradedPoly(dict.fromkeys(basis, 1), 2 * (n + 2)).images(
        {k: hierarchy_ode(k - 1).at_zero(0) for k in range(2, n + 2)}, JetPoly)]
    leads = [max(image) for image in images]
    remainder = dict(target.at_zero(0).terms)
    coeffs, _ = solve_linear([[image.get(lead, 0) for image in images] for lead in leads],
                             [remainder.get(lead, 0) for lead in leads])
    for c, image in zip(coeffs, images):
        for key, v in image.items():
            remainder[key] = remainder.get(key, 0) - c * v
    candidate = GradedPoly(dict(zip(basis, coeffs)))
    if JetPoly(remainder) or sl2_lowering(target):
        return PoleMatch(n, b, None, target - closing_in_jets(candidate))
    return PoleMatch(n, b, candidate, JetPoly.zero())


# -- changes of the dependent variable ---------------------------------------

def rescale_dependent(p: JetPoly, lam: Fraction | int) -> JetPoly:
    """p in the variable y = lam*h, scaled so its top jet term is 1 (zero stays zero)."""
    lam = Q(lam)
    if lam == 0:
        raise ZeroScale("lam must be nonzero")
    raw = p.subst({q: JetPoly.h(q).scale(1 / lam) for q in range(p.order() + 1)})
    return raw.scale(1 / Q(raw.sorted_terms()[0][1])) if raw else raw


def chazy12_parameter(c4: Fraction | int) -> Fraction:
    """Solve (24 - c4)/216 = -4/(k^2 - 36) for k^2; c4 = 24 is the Chazy-3 case."""
    c4 = Q(c4)
    if c4 == 24:
        raise NotChazy12("c4 = 24 gives Chazy-3, not Chazy-12")
    return 36 - Q(864) / (24 - c4)
