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

# The highest jet order transformed_h_jet computes, refused before any jet: order 150
# took 0.23 s at 1 pole, 0.45 s at 3 and 1.4-2.6 s at 9 (in-process, 2-vCPU x86-64 VM,
# Python 3.11); order 1000 at 1 pole took 44.9 s.
MAX_ORDER = 150


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

    def __post_init__(self):  # int entries become Fractions, so exact division stays exact
        for name in "abcd":
            if isinstance(getattr(self, name), int):
                object.__setattr__(self, name, Q(getattr(self, name)))

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


def act_on_state(m: Mobius, state_at: Callable, delta: int) -> Callable:
    """The action on the ansatz data: t -> the transformed state at t.

    With w = ct + d and t~ = (at+b)/w, the state at t holds, read from
    state_at(t~), r(t~) - (delta + 1/2) log w, h(t~)/w^2 + c/w and
    x_k(t~)/w^(2k).  w = 0 raises PoleOfAction; r is float-valued by nature
    of the logarithm, on the principal branch, so w < 0 raises BranchCut.
    """
    def moved(t):
        w = m._nonzero_denom(t)
        if w < 0:
            raise BranchCut(f"ct + d = {w} is negative; principal branch undefined")
        state = state_at(m.apply(t))
        return state._replace(t=t, r=state.r - (delta + 0.5) * math.log(float(w)),
                              h=state.h / w ** 2 + m.c / w,
                              x=tuple(x / w ** (2 * k) for k, x in enumerate(state.x, start=2)))

    return moved


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

def transformed_h_jet(m: Mobius, h_jet_at: Callable[[object, int], Sequence],
                      t, order: int) -> list:
    """Exact jet of the transformed h at t, through the given order.

    With w = ct + d and t~ = (at + b)/w, the transformed h is
    w^-2 h(t~) + c/w, and dt~/dt = D w^-2, D = ad - bc (1 on the group).
    Induction on q gives the closed form

        h-hat^(q) = sum_{j<=q} C(q, j) (q+1)!/(j+1)! (-c)^(q-j) D^j w^-(q+j+2) h^(j)(t~)
                    + c (-c)^q q! w^-(q+1):

    d/dt sends w^-(q+j+2) h^(j)(t~) to -(q+j+2) c w^-(q+j+3) h^(j)(t~)
    + D w^-(q+j+4) h^(j+1)(t~), and the two contributions to h^(j) at
    order q+1 add up to its coefficient there.  `h_jet_at(s, q)` must
    return the exact jet of h at s through order q.  An order below 0 or
    past MAX_ORDER raises ValueError.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    inv = 1 / m._nonzero_denom(t)
    inner = h_jet_at(m.apply(t), order)
    c, det = m.c, m.det()
    jet = []
    for q in range(order + 1):
        total = c * (-c) ** q * math.factorial(q) * inv ** (q + 1)
        for j in range(q + 1):
            coef = math.comb(q, j) * math.factorial(q + 1) // math.factorial(j + 1)
            total += coef * (-c) ** (q - j) * det ** j * inv ** (q + j + 2) * inner[j]
        jet.append(total)
    return jet
