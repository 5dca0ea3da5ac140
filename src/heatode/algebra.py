"""Exact sparse arithmetic for graded polynomials over the rationals.

Variables are indexed by an integer k >= 1 and carry the grading
deg x_k = -4k.  A monomial x^J with multiindex J = (j_k) has weight
||J|| = sum 2k*j_k, so its grading degree is -2*||J||.  Every polynomial
handled here is homogeneous: all stored monomials share one weight.

A monomial is one int, its key: the exponent of variable k fills a
FIELD-bit field at slot k + 1 (slot 0 is the index -1 that jets.JetPoly
uses for its parameter b).  A product of monomials is the sum of their
keys, a derivative a difference, and integer order is lex order with the
highest variable first (packed exponent vectors: M. Monagan and R. Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  The top bit of every field is a guard that no
stored key sets, so a product whose exponent would pass MAX_EXPONENT
raises ExponentOverflow instead of carrying into the next variable.
Only this module builds or takes apart a key: mono packs exponents,
unpack lists the (index, exponent) pairs for printing and evaluation,
GradedPoly.partial and GradedPoly.at_zero read one variable's field,
monomial_basis lists the keys of one weight in key order (the closing
bases), keys_by_weight lists every key up to a weight and exponents reads
a key's fields in a range as bytes (the discrete series recursion), and
check_key_count counts the keys up to a weight without building one, so
that a series route refuses more than MAX_KEYS before it starts.
check_level refuses a level past MAX_LEVEL in the same way, before any
partition count or hierarchy build.
unpack keeps its answers for the last UNPACK_CACHE keys, since evaluation
decodes the same few hundred keys on every call.

Coefficients are exact: an `int` when integral, else a `fractions.Fraction`
(printed alike: str(3) is str(Fraction(3))), so no rounding ever occurs and
integral arithmetic skips Fraction's gcd work.  Derivation has one entry
point, GradedPoly.derive, whose optional tail adds a product into the same
dict (each polynomial series coefficient, hierarchy step and transformed
flow is one call); substitution has one generator, GradedPoly.images, which
subst sums.  images builds each product as (its lower factors) times (its
highest factor): the low parts, such as x_1^a x_2^b, are shared by many
monomials of a basis, and the large high value is the long inner loop of
each multiply.
For float evaluation a polynomial is lowered once (GradedPoly.lower) to
float coefficients, which eval_lowered sums with the same bits as the
exact coefficients would.
lowered_source writes the same sum as Python source, for code generated
once and run many times (the RK4 loop in systems).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Mono = int
Pairs = tuple[tuple[int, int], ...]        # a monomial unpacked: (index, exponent) by index

FIELD = 8                                   # bits per variable in a key: a byte, as unpack reads it
MAX_EXPONENT = (1 << (FIELD - 1)) - 1       # the field's top bit is its guard
SLOTS = 1024                                # fields the guard covers: indices -1 .. SLOTS-2
_MASK = (1 << FIELD) - 1
_GUARD = (1 << (FIELD - 1)) * (((1 << (FIELD * SLOTS)) - 1) // _MASK)
_PAST = 1 << FIELD * SLOTS                  # above every field: marks a key that cannot be built
SUM_CHUNK = 200                             # terms per statement of lowered_source
UNPACK_CACHE = 1024                         # keys whose unpacked pairs unpack keeps
# Monomials a series route may hold, all weights together.  At the bound, series phi --n 5
# --K 60 (19858 monomials) ran 1.1 s at 88 MB peak RSS, the table 0.7 s at 54 MB.
MAX_KEYS = 20_000
# The highest level a closing basis, family member or match is built for.  On a 2-vCPU
# x86-64 VM, verify detmatch and verify rational at --max-n 26 ran 4.5-5.2 and 9.3-9.7 s,
# and a cold match took about 4 times as long at level 26 as at 22 (0.37 s against 0.09 s).
MAX_LEVEL = 26

Q = Fraction
Coeff = int | Fraction


class WeightMismatch(ValueError):
    """Raised when an operation would mix two different weights."""


class ExponentOverflow(ValueError):
    """An exponent past MAX_EXPONENT, which a monomial key cannot hold."""


def mono(exponents: Mapping[int, int], lowest: int = 1) -> Mono:
    """The key of the monomial with these index -> exponent entries.

    Indices run from `lowest` (1 for x_k, -1 for jets with b) to SLOTS - 2.
    """
    key = 0
    for k, j in exponents.items():
        if j:
            if not lowest <= k < SLOTS - 1 or j < 0:
                raise ValueError(f"bad monomial entry: variable {k}, exponent {j}")
            if j > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {j} of variable {k} is past {MAX_EXPONENT}, "
                                       "the largest a monomial key holds")
            key += j << (FIELD * (k + 1))
    return key

@lru_cache(maxsize=UNPACK_CACHE)
def unpack(m: Mono) -> Pairs:
    """The (index, exponent) pairs of a key with a positive exponent, by ascending index.

    Kept for the last UNPACK_CACHE keys: a key is an int and its pairs a
    tuple, so every caller may share them.
    """
    return tuple((s - 1, j) for s, j in enumerate(m.to_bytes((m.bit_length() + 7) // 8, "little"))
                 if j)

def keys_by_weight(variables: range, max_weight: int) -> list[list[Mono]]:
    """The key of every monomial in `variables` of weight <= max_weight, by weight / 2.

    Within a weight the keys come in lex order of the exponent tuple with
    the lowest variable first.  Each exponent in turn ranges only up to
    what the weight left by the earlier ones allows, so no monomial beyond
    the bound is built; a bound that admits an exponent past MAX_EXPONENT
    raises ExponentOverflow before any is, and then one that admits more
    than MAX_KEYS monomials ValueError.
    """
    for k in variables:
        if max_weight // (2 * k) > MAX_EXPONENT:
            raise ExponentOverflow(f"weight {max_weight} admits x{k}^{max_weight // (2 * k)}, "
                                   f"past {MAX_EXPONENT}, the largest exponent a monomial key holds")
    check_key_count(variables, max_weight)
    out = [(0, 0)]  # (weight, key), in lex order of the exponents so far
    for k in variables:
        step, unit = 2 * k, 1 << FIELD * (k + 1)
        out = [(w + e * step, m + e * unit)
               for w, m in out for e in range((max_weight - w) // step + 1)]
    levels: list[list[Mono]] = [[] for _ in range(max_weight // 2 + 1)]
    for w, m in out:
        levels[w // 2].append(m)
    return levels

def check_key_count(variables: range, max_weight: int) -> int:
    """The number of monomials in `variables` of weight <= max_weight; past MAX_KEYS, ValueError.

    Counted by the partition DP in O(len(variables) * max_weight) ints, with no monomial built.
    """
    count = sum(_partition_table(max_weight // 2, variables))
    if count > MAX_KEYS:
        raise ValueError(f"weight {max_weight} in x{variables.start}..x{variables.stop - 1} admits "
                         f"{count} monomials, past the bound of {MAX_KEYS}; take a smaller K")
    return count

def exponents(m: Mono, variables: range) -> bytes:
    """The exponents of x_k in a key, one byte per k in the ascending range `variables`.

    The key must use no variable past the range.
    """
    return m.to_bytes(variables.stop + 1, "little")[variables.start + 1:]

def _guarded(terms: dict[Mono, Coeff]) -> dict[Mono, Coeff]:
    """The terms, once no key sets a guard bit: a sum of keys carried no exponent past its field."""
    if reduce(or_, terms, 0) & _GUARD:
        raise ExponentOverflow(f"a product has an exponent past {MAX_EXPONENT}, "
                               "the largest a monomial key holds")
    return terms

def mono_weight(m: Mono) -> int:
    """||J|| = sum 2k*j_k."""
    return sum(2 * k * j for k, j in unpack(m))

def mono_text(m: Mono) -> str:
    if not m:
        return "1"
    return "*".join(f"x{k}" if j == 1 else f"x{k}^{j}" for k, j in unpack(m))


# A polynomial's terms as (unpacked monomial, converted coefficient) pairs (GradedPoly.lower).
Lowered = tuple[tuple[Pairs, object], ...]


def eval_lowered(terms: Iterable[tuple[Pairs, object]],
                 values: Mapping[int, object] | Sequence[object], zero):
    """Sum of c * prod_k values[k]**j over (unpacked monomial, c) pairs, in order; zero if none.

    The scalar evaluator of GradedPoly.eval, which hands it the exact
    terms, and of the float series sums, which hand it terms lowered once.
    The RK4 field runs the same operations as generated code, written by
    lowered_source.  `values` is anything indexed by the variable index, a
    mapping or a sequence.
    """
    total = None
    for m, c in terms:
        term = c
        for k, j in m:
            term = term * values[k] ** j
        total = term if total is None else total + term
    return zero if total is None else total


def lowered_source(monomials: Iterable[Mono], target: str, var: Callable[[int], str],
                   coeff: str, zero: str) -> list[str]:
    """Python statements that set `target` to eval_lowered over a lowered polynomial.

    `monomials` are the polynomial's keys in the order of its terms, which
    is lower's order.  Term i reads `{coeff}{i} * x ** j * ...`: the
    factors come by ascending index and are multiplied left to right, and
    the terms are added left to right from the first; no terms give
    `zero`.  These are eval_lowered's operations in its order, so the
    statements give its bits.  `** j` stays for j >= 2, where it raises
    OverflowError as eval_lowered does; `** 1` is left out, since x ** 1 is
    x in both modes.  A sum of more than SUM_CHUNK terms continues in
    further statements on `target`, in the same order, because compile
    nests one level per term.
    """
    terms = [" * ".join([f"{coeff}{i}", *(var(k) if j == 1 else f"{var(k)} ** {j}"
                                         for k, j in unpack(m))])
             for i, m in enumerate(monomials)]
    lines = [f"{target} = " + " + ".join(terms[:SUM_CHUNK] or [zero])]
    for start in range(SUM_CHUNK, len(terms), SUM_CHUNK):
        lines.append(f"{target} = " + " + ".join([target, *terms[start:start + SUM_CHUNK]]))
    return lines


class GradedPoly:
    """Homogeneous sparse polynomial with exact rational coefficients.

    Only __init__ stores terms: nonzero, an int when integral, else a Fraction.
    The base grading is that of the variables x_1, x_2, ...; a subclass
    (jets.JetPoly) supplies another grading and presentation through the
    monomial hooks below, so every ring operation is written once.

    The zero polynomial has weight None and is compatible with any
    operand, so recursions whose early terms vanish need no special
    cases.
    """

    __slots__ = ("terms", "weight")

    # -- monomial hooks: grading and presentation ------------------------
    _mono = staticmethod(mono)              # the key from exponents
    _weight = staticmethod(mono_weight)     # the grading of a monomial
    _mono_text = staticmethod(mono_text)
    _descending = False                     # display order of sorted_terms, by key

    def __init__(self, terms: Mapping[Mono, Coeff] | None = None,
                 weight: int | None = None):
        """Without `weight` the monomials are weighed and must agree (else
        WeightMismatch); a caller that knows their weight, as a product does, passes it."""
        clean: dict[Mono, Coeff] = {}
        weigh = self._weight if weight is None else None
        for m, c in (terms or {}).items():
            if type(c) is not int:
                c = Q(c)
                if c.denominator == 1:
                    c = c.numerator
            if not c:
                continue
            if weigh is not None:
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
        return cls({0: 1})

    @classmethod
    def variable(cls, k: int, coeff: Coeff = 1) -> GradedPoly:
        return cls({cls._mono({k: 1}): coeff})

    @classmethod
    def from_exponents(cls, entries: Iterable[tuple[Mapping[int, int], Coeff]]) -> GradedPoly:
        acc: dict[Mono, Coeff] = {}
        for exps, c in entries:
            m = cls._mono(exps)
            acc[m] = acc.get(m, 0) + Q(c)
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
        return type(self)({m: -c for m, c in self.terms.items()}, self.weight)

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
            out[m] = out.get(m, 0) + c
        return type(self)(out, self.weight)

    def __sub__(self, other: GradedPoly) -> GradedPoly:
        return self + (-other)

    def __mul__(self, other: GradedPoly) -> GradedPoly:
        if not self or not other:
            return type(self).zero()
        out: dict[Mono, Coeff] = {}
        get = out.get
        pairs = tuple(other.terms.items())
        for ma, ca in self.terms.items():
            for mb, cb in pairs:
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
        return type(self)(_guarded(out), self.weight + other.weight)

    def scale(self, c: Coeff) -> GradedPoly:
        if type(c) is not int:
            c = Q(c)  # exact before multiplying: a float factor must not round the product
        return type(self)({m: c * v for m, v in self.terms.items()}, self.weight)

    def _lowered(self, k: int) -> tuple[Mono, list[tuple[Mono, Coeff]]]:
        """x_k's key, and (m - key, c * j) per term c * x^m of self with x_k^j, j > 0."""
        shift = FIELD * (k + 1)
        unit = 1 << shift  # lowering x_k is injective: no two pairs share a key
        return unit, [(m - unit, c * j) for m, c in self.terms.items() if (j := m >> shift & _MASK)]

    def partial(self, k: int) -> GradedPoly:
        """Formal derivative by variable k; the weight drops by that variable's."""
        unit, pairs = self._lowered(k)
        return type(self)(dict(pairs), (self.weight or 0) - self._weight(unit))

    def at_zero(self, k: int) -> GradedPoly:
        """The restriction x_k = 0: the terms free of variable k, in their order, of self's weight."""
        shift = FIELD * (k + 1)
        return type(self)({m: c for m, c in self.terms.items() if not m >> shift & _MASK},
                          self.weight)

    def derive(self, field: Mapping[int, GradedPoly], key: Mono = 0, coeff: Coeff = 0,
               other: GradedPoly | None = None) -> GradedPoly:
        """The derivation sum_k field[k] * d/dx_k applied to self, plus coeff * x^key * other.

        One loop adds each term of field[k] times each of d/dx_k self into one
        dict, k by k, dropping the keys that sum to zero after each k: the term
        order of the chain `out + field[k] * self.partial(k)`, which lower()
        keeps; zero entries of the field are skipped.  The tail adds the terms
        of `other`, shifted by the key and scaled, after the derivative's: the
        order and value of that sum, with no intermediate polynomial built.
        All nonzero parts must share one weight (else WeightMismatch), and no
        exponent may pass MAX_EXPONENT (else ExponentOverflow).
        """
        out: dict[Mono, Coeff] = {}
        get = out.get
        weight = None
        for k, v in field.items():
            unit, pairs = self._lowered(k) if v else (0, ())
            if not pairs:
                continue
            w = v.weight + self.weight - self._weight(unit)
            if weight is not None and w != weight:
                raise WeightMismatch(f"cannot add weight {weight} to weight {w}")
            weight = w
            for mv, cv in v.terms.items():
                for m, c in pairs:
                    m += mv
                    out[m] = get(m, 0) + cv * c
            for m in [m for m, c in out.items() if not c]:
                del out[m]
        if coeff and other:
            w = self._weight(key) + other.weight
            if out and w != weight:
                raise WeightMismatch(f"cannot add weight {weight} to weight {w}")
            weight = w
            for m, c in other.terms.items():
                m += key
                out[m] = get(m, 0) + coeff * c
        return type(self)(_guarded(out), weight)

    def subst(self, values: Mapping[int, GradedPoly],
              target: type[GradedPoly] | None = None) -> GradedPoly:
        """Substitute polynomials for variables (weight-preserving), as in images()."""
        target = target or type(self)
        out: dict[Mono, Coeff] = {}
        for top, kept, image in self.images(values, target):
            c = self.terms[top]
            for m, v in image.terms.items():
                m += kept
                out[m] = out.get(m, 0) + c * v
        return target(_guarded(out), self.weight)

    def images(self, values: Mapping[int, GradedPoly], target: type[GradedPoly]
               ) -> Iterator[tuple[Mono, Mono, GradedPoly]]:
        """(m, kept part of m, image of the rest of m) for each monomial m of self.

        values[k] replaces x_k in the image, of class `target`; variables
        without a value form the kept part.  Values must weigh what their
        variables do (or be zero), and kept variables the same in both
        classes.  The rest is built up to its highest variable: each step
        is the product of the lower factors, built earlier in the call (held
        while it runs) and shared by every monomial with that low part, times
        the value of the highest variable, so no product is built twice and
        the largest factor runs in the inner loop of __mul__.
        """
        bases = {k: check_homogeneous(v, self._weight(self._mono({k: 1})), None,
                                      f"substitute for variable {k}") for k, v in values.items()}
        fields = sum(_MASK << FIELD * (k + 1) for k in bases)  # the substituted fields
        if target is not type(self):  # each kept variable must weigh the same in both
            for k, _ in unpack(reduce(or_, self.terms, 0) & ~fields):
                key = self._mono({k: 1})
                check_homogeneous(target({key: 1}), self._weight(key), None,
                                  f"kept variable {self._mono_text(key)}")
        made: dict[Mono, GradedPoly] = {0: target.one()}
        for top in self.terms:
            kept = top & ~fields
            m = sub = top - kept
            pending = []  # (monomial, the one below it, value), down to one already made
            while m not in made:
                slot = (m.bit_length() - 1) // FIELD  # the highest field in use
                rest = m - (1 << FIELD * slot)
                pending.append((m, rest, bases[slot - 1]))
                m = rest
            for m, rest, factor in reversed(pending):
                made[m] = made[rest] * factor if rest else factor
            yield top, kept, made.pop(sub) if pending and not kept else made[sub]

    def lower(self) -> Lowered:
        """The terms as (unpack(m), float(c)) pairs, each coefficient converted once.

        eval_lowered sums them in the order and with the operations of
        eval, so lower() at float values gives eval's bits:
        int * float and Fraction * float both compute float(c) * float.
        """
        return tuple((unpack(m), float(c)) for m, c in self.terms.items())

    def eval(self, values: Mapping[int, Fraction | float | int]):
        """Evaluate at a point; exact when all values are Fractions."""
        return eval_lowered(((unpack(m), c) for m, c in self.terms.items()), values, Q(0))

    def coefficient(self, m: Mono) -> Coeff:
        return self.terms.get(m, 0)

    # -- presentation -----------------------------------------------------
    def sorted_terms(self) -> list[tuple[Mono, Coeff]]:
        """The terms in key order, descending for jets.  Among monomials of one weight
        that is lex order on the descending list of parts, e.g. x2^3 < x3^2 < x2*x4."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=self._descending)

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
            "terms": [{"m": [[k, j] for k, j in unpack(m)], "c": str(c)}
                      for m, c in self.sorted_terms()],
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()})"


# -- partitions and the closing-polynomial space ---------------------------

def _partition_table(top: int, parts: Iterable[int]) -> list[int]:
    """table[s]: the number of partitions of s = 0..top into `parts`, by the bounded-part DP."""
    table = [1] + [0] * top
    for part in parts:
        for s in range(part, top + 1):
            table[s] += table[s - part]
    return table


def partition_count(m: int) -> int:
    """Number p(m) of integer partitions."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _partition_table(m, range(1, m + 1))[m]


def monomial_basis(total: int, kmin: int, kmax: int) -> list[Mono]:
    """Every monomial with sum k*j_k = total and variable indices in [kmin, kmax], in key order.

    The keys are built from the highest variable down, each exponent
    ascending, so they come out ascending: lex order on the descending list
    of parts, the fixed monomial order used everywhere for reports.  A
    returned monomial with an exponent past MAX_EXPONENT raises
    ExponentOverflow; a partial one that completes no monomial does not.
    """
    out = [(total, 0)]  # (what is left of the total, key so far, plus _PAST per exponent too large)
    for k in range(kmax, kmin - 1, -1):
        unit = 1 << FIELD * (k + 1)
        out = [(left - e * k, m + (e * unit if e <= MAX_EXPONENT else _PAST))
               for left, m in out for e in range(left // k + 1)]
    keys = [m for left, m in out if not left]
    if max(keys, default=0) >= _PAST:
        raise ExponentOverflow(f"a monomial of total {total} in x{kmin}..x{kmax} has an exponent "
                               f"past {MAX_EXPONENT}, the largest a monomial key holds")
    return keys


def check_level(n: int) -> int:
    """n, if it is a level in 0..MAX_LEVEL; ValueError otherwise, before any work."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_LEVEL:
        raise ValueError(f"level {n} is past the bound of {MAX_LEVEL}, the highest level built")
    return n


def closing_monomials(n: int) -> list[Mono]:
    """Basis monomials for the admissible closing polynomials at level n.

    These are the weight-2(n+2) monomials in x_2..x_{n+1}, i.e. the
    partitions of n+2 into parts between 2 and n+1.
    """
    return monomial_basis(n + 2, 2, n + 1) if check_level(n) >= 1 else []


def closing_from_coeffs(n: int, coeffs: Sequence) -> GradedPoly:
    """The level-n closing with one coefficient per closing_monomials(n), in order."""
    basis = closing_monomials(n)
    if len(coeffs) != len(basis):
        raise ValueError(f"level {n} closing needs {len(basis)} coefficients, got {len(coeffs)}")
    return GradedPoly({m: Q(c) for m, c in zip(basis, coeffs)})


def check_homogeneous(p: GradedPoly, weight: int, variables: range | None,
                      what: str) -> GradedPoly:
    """Pass zero through; otherwise p must have `weight` and use only `variables`.

    `variables` is a range of variable indices, or None for any; a violation
    raises WeightMismatch naming `what`.
    """
    if p:
        if p.weight != weight:
            raise WeightMismatch(f"{what} has weight {p.weight}, expected {weight}")
        if variables is not None and any(k not in variables
                                         for k, _ in unpack(reduce(or_, p.terms, 0))):
            raise WeightMismatch(
                f"{what} must use x_{variables.start}..x_{variables.stop - 1} only")
    return p


def check_closing(n: int, closing: GradedPoly | None) -> GradedPoly:
    """The closing polynomial at level n, validated; None stands for zero.

    A nonzero closing must lie in the span of closing_monomials(n): weight
    2(n+2) and only the variables x_2..x_{n+1}.  Anything else raises
    WeightMismatch, and a level outside 0..MAX_LEVEL ValueError, so no level
    misreads a closing.
    """
    check_level(n)
    if closing is None:
        return GradedPoly.zero()
    return check_homogeneous(closing, 2 * (n + 2), range(2, n + 2), f"closing at level {n}")


def closing_dim(n: int) -> int:
    """Dimension p(n+2) - p(n+1) - 1 of the closing space at level n."""
    check_level(n)
    return partition_count(n + 2) - partition_count(n + 1) - 1


def bare_monomials(n: int) -> list[Mono]:
    """Weight-2(n+2) monomials in x_1..x_{n+1} (closings of the wide ansatz)."""
    return monomial_basis(n + 2, 1, n + 1)


# -- exact linear solving ---------------------------------------------------

def solve_linear(rows: list[list[Coeff]], rhs: list[Coeff]
                 ) -> tuple[list[Coeff], list[Coeff]]:
    """Solve a square, upper unit-triangular rows * x = rhs by back-substitution.

    Returns (solution, residual rows * x - rhs) in the entries' own type: the
    unit diagonal needs no division, so int systems give an int solution.
    Any other shape raises ValueError.
    """
    m = len(rows)
    if len(rhs) != m or any(len(row) != m for row in rows):
        raise ValueError(f"a system of {m} rows needs {m} entries in each row and in rhs")
    if any(row[i] != 1 or any(row[:i]) for i, row in enumerate(rows)):
        raise ValueError("rows must be upper unit-triangular")
    xs = [0] * m
    for i in reversed(range(m)):
        xs[i] = rhs[i] - sum(u * x for u, x in zip(rows[i][i + 1:], xs[i + 1:]))
    return xs, [sum(u * x for u, x in zip(row, xs)) - b for row, b in zip(rows, rhs)]
