"""Exact sparse arithmetic for graded polynomials over the rationals.

Variables are indexed by an integer k >= 1 and carry the grading
deg x_k = -4k.  A monomial x^J with multiindex J = (j_k) has weight
||J|| = sum 2k*j_k, so its grading degree is -2*||J||.  Every polynomial
handled here is homogeneous: all stored monomials share one weight.

Coefficients are `fractions.Fraction` throughout, so equality tests are
exact and no rounding ever occurs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

# A monomial is a sorted tuple of (variable index, exponent) pairs with
# positive exponents; () is the constant monomial.
Mono = tuple[tuple[int, int], ...]

Q = Fraction


class WeightMismatch(ValueError):
    """Raised when an operation would mix two different weights."""


def mono(exponents: Mapping[int, int]) -> Mono:
    """Canonical monomial from an index -> exponent mapping."""
    items = tuple(sorted((k, j) for k, j in exponents.items() if j != 0))
    for k, j in items:
        if k < 1 or j < 0:
            raise ValueError(f"bad monomial entry x_{k}^{j}")
    return items

def mono_weight(m: Mono) -> int:
    """||J|| = sum 2k*j_k."""
    return sum(2 * k * j for k, j in m)

def mono_key(m: Mono) -> tuple:
    """Fixed display order: ascending lex on the descending part list.

    For weight-2m monomials this is the partition (parts with
    multiplicity, largest first), so e.g. x2^3 < x3^2 < x2*x4.
    """
    parts: list[int] = []
    for k, j in sorted(m, reverse=True):
        parts.extend([k] * j)
    return (mono_weight(m), tuple(parts))

def mono_text(m: Mono) -> str:
    if not m:
        return "1"
    return "*".join(f"x{k}" if j == 1 else f"x{k}^{j}" for k, j in m)


class GradedPoly:
    """Homogeneous sparse polynomial with exact rational coefficients.

    The base grading is that of the variables x_1, x_2, ...; a subclass
    (jets.JetPoly) supplies another grading and presentation through the
    monomial hooks below, so every ring operation is written once.

    The zero polynomial has weight None and is compatible with any
    operand, so recursions whose early terms vanish need no special
    cases.
    """

    __slots__ = ("terms", "weight")

    # -- monomial hooks: grading and presentation ------------------------
    _mono = staticmethod(mono)              # canonical monomial from exponents
    _weight = staticmethod(mono_weight)     # the grading of a monomial
    _mono_text = staticmethod(mono_text)
    _display_key = staticmethod(mono_key)
    _descending = False                     # display order of sorted_terms

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None,
                 weight: int | None = None):
        clean: dict[Mono, Fraction] = {}
        weigh = self._weight
        for m, c in (terms or {}).items():
            c = Q(c)
            if c == 0:
                continue
            w = weigh(m)
            if weight is None:
                weight = w
            elif w != weight:
                raise WeightMismatch(
                    f"monomial {self._mono_text(m)} has weight {w}, expected {weight}")
            clean[m] = c
        self.terms = clean
        self.weight = weight if clean else None

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls) -> GradedPoly:
        return cls({})

    @classmethod
    def one(cls) -> GradedPoly:
        return cls({(): Q(1)})

    @classmethod
    def variable(cls, k: int, coeff: Fraction | int = 1) -> GradedPoly:
        return cls({cls._mono({k: 1}): Q(coeff)})

    @classmethod
    def from_exponents(cls, entries: Iterable[tuple[Mapping[int, int], Fraction | int]]) -> GradedPoly:
        acc: dict[Mono, Fraction] = {}
        for exps, c in entries:
            m = cls._mono(exps)
            acc[m] = acc.get(m, Q(0)) + Q(c)
        return cls(acc)

    # -- ring operations -------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        # polynomials of different gradings never compare equal
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> GradedPoly:
        return type(self)({m: -c for m, c in self.terms.items()})

    def __add__(self, other: GradedPoly) -> GradedPoly:
        if not self:
            return other
        if not other:
            return self
        if self.weight != other.weight:
            raise WeightMismatch(
                f"cannot add weight {self.weight} to weight {other.weight}")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Q(0)) + c
        return type(self)(out)

    def __sub__(self, other: GradedPoly) -> GradedPoly:
        return self + (-other)

    def __mul__(self, other: GradedPoly) -> GradedPoly:
        if not self or not other:
            return type(self).zero()
        out: dict[Mono, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                d = dict(ma)
                for k, j in mb:
                    d[k] = d.get(k, 0) + j
                m = tuple(sorted(d.items()))
                out[m] = out.get(m, Q(0)) + ca * cb
        return type(self)(out)

    def scale(self, c: Fraction | int) -> GradedPoly:
        c = Q(c)
        if c == 0:
            return type(self).zero()
        return type(self)({m: c * v for m, v in self.terms.items()})

    def partial(self, k: int) -> GradedPoly:
        """Formal derivative by variable k; the weight drops by that variable's."""
        out: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            d = dict(m)
            j = d.get(k, 0)
            if j == 0:
                continue
            d[k] = j - 1
            out[self._mono(d)] = out.get(self._mono(d), Q(0)) + c * j
        return type(self)(out)

    def subst(self, values: Mapping[int, GradedPoly]) -> GradedPoly:
        """Substitute polynomials for variables (weight-preserving).

        Every substituted value must be homogeneous of the weight of the
        variable it replaces (or zero), so the result stays homogeneous.
        """
        cls = type(self)
        for k, v in values.items():
            expected = cls.variable(k).weight
            if v and v.weight != expected:
                raise WeightMismatch(
                    f"substitute for variable {k} has weight {v.weight}, expected {expected}")
        total = cls.zero()
        for m, c in self.terms.items():
            factor = cls({(): c})
            for k, j in m:
                base = values.get(k, cls.variable(k))
                for _ in range(j):
                    factor = factor * base
            total = total + factor
        return total

    def eval(self, values: Mapping[int, Fraction | float | int]):
        """Evaluate at a point; exact when all values are Fractions."""
        total = None
        for m, c in self.terms.items():
            term = c
            for k, j in m:
                term = term * values[k] ** j
            total = term if total is None else total + term
        return Q(0) if total is None else total

    def coefficient(self, m: Mono) -> Fraction:
        return self.terms.get(m, Q(0))

    # -- presentation -----------------------------------------------------
    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        key = self._display_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=self._descending)

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            body = self._mono_text(m)
            if not m:
                chunk = str(abs(c))
            elif abs(c) == 1:
                chunk = body
            else:
                chunk = f"{abs(c)}*{body}"
            parts.append(("- " if c < 0 else "+ ") + chunk)
        head = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "terms": [{"m": [[k, j] for k, j in m], "c": str(c)}
                      for m, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data: dict) -> GradedPoly:
        return cls({tuple((int(k), int(j)) for k, j in t["m"]): Q(t["c"])
                    for t in data["terms"]})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()})"


# -- partitions and the closing-polynomial space ---------------------------

def partition_count(m: int) -> int:
    """Number p(m) of integer partitions, by the bounded-part DP table."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    # table[s] = number of partitions of s using parts <= current bound
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for s in range(part, m + 1):
            table[s] += table[s - part]
    return table[m]


def partitions_into(total: int, kmin: int, kmax: int) -> Iterator[tuple[int, ...]]:
    """Partitions of `total` with parts in [kmin, kmax], parts descending.

    Emitted in ascending lex order of the descending part tuple, which is
    the fixed monomial order used everywhere for reports.
    """
    if total == 0:
        yield ()
        return
    for largest in range(kmin, min(kmax, total) + 1):
        for rest in partitions_into(total - largest, kmin, largest):
            yield (largest,) + rest


def _parts_to_mono(parts: tuple[int, ...]) -> Mono:
    exps: dict[int, int] = {}
    for p in parts:
        exps[p] = exps.get(p, 0) + 1
    return mono(exps)


def monomial_basis(total: int, kmin: int, kmax: int) -> list[Mono]:
    """All monomials with sum k*j_k = total and variable indices in [kmin, kmax]."""
    return [_parts_to_mono(p) for p in partitions_into(total, kmin, kmax)]


def closing_monomials(n: int) -> list[Mono]:
    """Basis monomials for the admissible closing polynomials at level n.

    These are the weight-2(n+2) monomials in x_2..x_{n+1}, i.e. the
    partitions of n+2 into parts between 2 and n+1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return monomial_basis(n + 2, 2, n + 1) if n >= 1 else []


def check_closing(n: int, closing: GradedPoly | None) -> GradedPoly:
    """The closing polynomial at level n, validated; None stands for zero.

    A nonzero closing must lie in the span of closing_monomials(n): weight
    2(n+2) and only the variables x_2..x_{n+1}.  Anything else raises
    WeightMismatch, so no level silently drops or misreads a closing.
    """
    if closing is None:
        return GradedPoly.zero()
    if closing:
        if closing.weight != 2 * (n + 2):
            raise WeightMismatch(
                f"closing weight {closing.weight} is not 2(n+2) = {2 * (n + 2)}")
        if any(k < 2 or k > n + 1 for m in closing.terms for k, _ in m):
            raise WeightMismatch(f"closing at level {n} must use x_2..x_{n + 1} only")
    return closing


def closing_dim(n: int) -> int:
    """Dimension p(n+2) - p(n+1) - 1 of the closing space at level n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return partition_count(n + 2) - partition_count(n + 1) - 1


def bare_monomials(n: int) -> list[Mono]:
    """Weight-2(n+2) monomials in x_1..x_{n+1} (closings of the wide ansatz)."""
    return monomial_basis(n + 2, 1, n + 1)


# -- exact linear solving ---------------------------------------------------

def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]
                 ) -> tuple[list[Fraction] | None, list[Fraction]]:
    """Solve rows * x = rhs exactly by Gaussian elimination.

    Returns (solution, residual).  For a consistent full-column-rank
    system the residual is all zeros.  For an inconsistent system the
    solution of the pivot rows is returned (free columns set to 0) and
    the residual shows where the remaining rows fail; if the column rank
    is deficient the solution is None.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    a = [[Q(v) for v in row] + [Q(b)] for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    solution: list[Fraction] | None = [Q(0)] * ncols
    for row_i, col in pivots:
        solution[col] = a[row_i][ncols]
    if len(pivots) < ncols:
        solution = None
    if solution is None:
        residual = [Q(0)] * m
    else:
        residual = [sum((rows[i][j] * solution[j] for j in range(ncols)), Q(0)) - rhs[i]
                    for i in range(m)]
    return solution, residual
