"""The unimodular group action on heat-equation data.

A matrix M = (a b; c d) with ad - bc = 1 acts on a solution by

    (z, t)  ->  (z/(ct+d), (at+b)/(ct+d))

with the Gaussian prefactor exp(-c z^2 / (2(ct+d))) / sqrt(ct+d).  The
same action pushes down to the scalar data of the factored ansatz: the
quadratic coefficient h picks up c/(ct+d), the series arguments x_k scale
by (ct+d)^(-2k), and the log-prefactor r shifts by -(delta+1/2) log(ct+d).

Square roots force a branch choice the moment ct+d can leave the positive
axis.  Exact work therefore never takes the root: values are carried as
(sqrt_factor, exp_arg, base) triples meaning base * exp(exp_arg) /
sqrt(sqrt_factor), which compose through the action by pure rational
arithmetic.  Floats get the principal branch and an explicit BranchCut
error on a negative radicand.

Matrix entries are rationals or real floats; complex entries are out of
scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .algebra import Q


class PoleOfAction(ZeroDivisionError):
    """The action was evaluated on the line ct + d = 0."""


class BranchCut(ValueError):
    """A negative radicand reached a square root in float mode."""


@dataclass(frozen=True)
class Mobius:
    """A 2x2 matrix acting by fractional-linear maps on time."""

    a: Fraction | float
    b: Fraction | float
    c: Fraction | float
    d: Fraction | float

    @classmethod
    def identity(cls) -> Mobius:
        return cls(Q(1), Q(0), Q(0), Q(1))

    def det(self):
        return self.a * self.d - self.b * self.c

    def is_unimodular(self) -> bool:
        return self.det() == 1

    def require_unimodular(self) -> None:
        if not self.is_unimodular():
            raise ValueError(f"matrix determinant {self.det()} is not 1")

    def __matmul__(self, other: Mobius) -> Mobius:
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> Mobius:
        # unimodular inverse: swap the diagonal, negate the off-diagonal
        return Mobius(self.d, -self.b, -self.c, self.a)

    def denom(self, t):
        return self.c * t + self.d

    def _nonzero_denom(self, t):
        w = self.denom(t)
        if w == 0:
            raise PoleOfAction(f"ct + d vanishes at t = {t}")
        return w

    def apply(self, t):
        """The time map (at+b)/(ct+d)."""
        return (self.a * t + self.b) / self._nonzero_denom(t)


class ExactHeatValue(NamedTuple):
    """A value base * exp(exp_arg) / sqrt(sqrt_factor), kept unfactored.

    Composition under the action multiplies sqrt factors and adds
    exponents as exact rationals, so group-law checks need no roots.
    """

    sqrt_factor: Fraction
    exp_arg: Fraction
    base: Fraction

    @classmethod
    def plain(cls, value) -> ExactHeatValue:
        return cls(Q(1), Q(0), value)

    def as_float(self) -> float:
        if self.sqrt_factor <= 0:
            raise BranchCut(f"radicand {self.sqrt_factor} is not positive")
        return float(self.base) * math.exp(float(self.exp_arg)) / math.sqrt(float(self.sqrt_factor))


def act_on_h(m: Mobius, h: Callable, t):
    """Transformed quadratic coefficient: h(t~)/(ct+d)^2 + c/(ct+d)."""
    w = m._nonzero_denom(t)
    return h(m.apply(t)) / w ** 2 + m.c / w


def act_on_r(m: Mobius, r: Callable, delta: int, t) -> float:
    """Transformed log-prefactor: r(t~) - (delta + 1/2) log(ct+d).

    Float-valued by nature of the logarithm; restricted to ct + d > 0
    (the principal branch), with BranchCut raised otherwise.
    """
    w = m._nonzero_denom(t)
    if w < 0:
        raise BranchCut(f"ct + d = {w} is negative; principal branch undefined")
    return r(m.apply(t)) - (delta + 0.5) * math.log(float(w))


def act_on_x(m: Mobius, x: Callable, k: int, t):
    """Transformed series argument: x_k(t~)/(ct+d)^(2k)."""
    w = m._nonzero_denom(t)
    return x(m.apply(t)) / w ** (2 * k)


def act_on_psi(m: Mobius, psi: Callable, z, t):
    """The full action on a solution sampler psi(z, t).

    If psi returns ExactHeatValue triples the composition is exact; a
    float-returning sampler gets the principal-branch float value.
    """
    w = m._nonzero_denom(t)
    inner = psi(z / w, m.apply(t))
    if isinstance(inner, ExactHeatValue):
        return ExactHeatValue(
            inner.sqrt_factor * w,
            inner.exp_arg - m.c * z * z / (2 * w),
            inner.base,
        )
    if w < 0:
        raise BranchCut(f"ct + d = {w} is negative; principal branch undefined")
    return inner * math.exp(-float(m.c) * z * z / (2 * float(w))) / math.sqrt(float(w))


# -- exact jets of the transformed h ------------------------------------------

def _series_mul(a: Sequence, b: Sequence, order: int) -> list:
    out = [Q(0)] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[:order + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_inv(a: Sequence, order: int) -> list:
    if a[0] == 0:
        raise ZeroDivisionError("series has no inverse")
    inv = [1 / a[0]]
    for k in range(1, order + 1):
        acc = Q(0)
        for j in range(1, k + 1):
            if j < len(a):
                acc += a[j] * inv[k - j]
        inv.append(-acc / a[0])
    return inv


def transformed_h_jet(m: Mobius, h_jet_at: Callable[[object, int], Sequence],
                      t, order: int) -> list:
    """Exact jet of the transformed h at t, through the given order.

    Works by truncated Taylor transport: the time map, its reciprocal and
    the inner jet of h at the image point compose as exact power series
    in the offset, and the q-th derivative is q! times a coefficient.
    `h_jet_at(s, q)` must return the exact jet of h at s through order q.
    A negative order raises ValueError.
    """
    if order < 0:
        raise ValueError(f"jet order must be nonnegative, got {order}")
    w0 = m._nonzero_denom(t)
    # w(eps) = (ct+d) + c eps and its reciprocal
    w = [w0, Q(m.c)] + [Q(0)] * max(order - 1, 0)
    invw = _series_inv(w, order)
    # the image time as a series; theta is its fluctuation
    numer = [m.a * t + m.b, Q(m.a)] + [Q(0)] * max(order - 1, 0)
    timage = _series_mul(numer, invw, order)
    t_im = timage[0]
    theta = [Q(0)] + timage[1:]
    inner = h_jet_at(t_im, order)
    # h(t~(s)) by Horner over the fluctuation series
    comp = [inner[order] / math.factorial(order)] + [Q(0)] * order
    for q in range(order - 1, -1, -1):
        comp = _series_mul(comp, theta, order)
        comp[0] += inner[q] / math.factorial(q)
    # h-hat = h(t~)/w^2 + c/w
    invw2 = _series_mul(invw, invw, order)
    total = _series_mul(comp, invw2, order)
    result = [tot + m.c * iw for tot, iw in zip(total, invw)]
    return [coef * math.factorial(q) for q, coef in enumerate(result)]
