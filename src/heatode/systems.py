"""Graded polynomial dynamical systems and their exact solutions.

A system at level n evolves (r, h, x_2, ..., x_{n+1}) by

    dr/dt  = -(delta + 1/2) h
    dh/dt  = -h^2 - c/(2(1+2*delta)) x_2
    dx_k/dt = p_{k+1}(x) - 2k h x_k

where the flows p_3..p_{n+2} are homogeneous graded polynomials.  At the
default c = -2(1+2*delta) the h-equation reads dh/dt = -h^2 + x_2, the
reduced normal form used everywhere in the special cases.

Everything runs in two modes through one code path: exact Fractions (for
the residual-zero theorems) and binary floats (for trajectories).  The
mode is decided by the state values, never by a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import GradedPoly, Q, WeightMismatch, check_closing
from .jets import JetTooShort, hierarchy_ode
from .series import default_c


class BlowUp(RuntimeError):
    """The blow-up guard tripped: a movable singularity was approached."""

    def __init__(self, t_star, trajectory):
        super().__init__(f"blow-up guard tripped at t = {t_star}")
        self.t_star = t_star
        self.trajectory = trajectory


class PoleHit(ZeroDivisionError):
    """A pole sum was evaluated at one of its poles."""


class SingularTransform(ValueError):
    """A triangular change of variables with a vanishing diagonal entry."""


@dataclass(frozen=True)
class SystemSpec:
    """Level, parity, normalisation constant and the flows p_3..p_{n+2}."""

    n: int
    delta: int
    c: Fraction
    flows: tuple[GradedPoly, ...]

    def __post_init__(self):
        if self.delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")
        if len(self.flows) != self.n:
            raise ValueError(f"expected {self.n} flows, got {len(self.flows)}")
        for i, p in enumerate(self.flows):
            if p and p.weight != 2 * (i + 3):
                raise WeightMismatch(
                    f"flow of x_{i + 2} has weight {p.weight}, expected {2 * (i + 3)}")
            if p and any(k < 2 or k > self.n + 1 for m in p.terms for k, _ in m):
                raise WeightMismatch(f"flow of x_{i + 2} uses variables outside x_2..x_{self.n + 1}")

    @classmethod
    def reduced(cls, n: int, delta: int = 0, closing: GradedPoly | None = None,
                c: Fraction | int | None = None) -> SystemSpec:
        """The normal form: p_k = x_k below the top, the closing on top."""
        closing = check_closing(n, closing)
        flows = tuple(GradedPoly.variable(k) for k in range(3, n + 2))
        if n >= 1:
            flows = flows + (closing,)
        return cls(n, delta, Q(c) if c is not None else default_c(delta), flows)

    @property
    def closing(self) -> GradedPoly:
        return self.flows[-1] if self.flows else GradedPoly.zero()

    def is_reduced(self) -> bool:
        return all(self.flows[i] == GradedPoly.variable(i + 3)
                   for i in range(max(self.n - 1, 0)))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "c": str(self.c),
            "flows": [p.to_json() for p in self.flows],
        }


@dataclass(frozen=True)
class SystemState:
    """One trajectory point; scalars are Fractions or floats, uniformly."""

    t: Fraction | float
    r: Fraction | float
    h: Fraction | float
    x: tuple

    def row(self) -> list:
        return [self.t, self.r, self.h, *self.x]


def vector_field(spec: SystemSpec, state: SystemState) -> tuple:
    """Right-hand side (dr, dh, dx_2, ..., dx_{n+1}) at a state."""
    if len(state.x) != spec.n:
        raise ValueError(f"state has {len(state.x)} coordinates, spec wants {spec.n}")
    values = {k: v for k, v in enumerate(state.x, start=2)}
    h = state.h
    dr = -(Q(spec.delta) + Q(1, 2)) * h
    dh = -h * h
    if spec.n >= 1:
        dh = dh - spec.c / Q(2 * (1 + 2 * spec.delta)) * state.x[0]
    dx = tuple(spec.flows[i].eval(values) - 2 * (i + 2) * h * state.x[i]
               for i in range(spec.n))
    return (dr, dh) + dx


def integrate_rk4(spec: SystemSpec, s0: SystemState, t_end, step,
                  h_bound=10 ** 8) -> list[SystemState]:
    """Classical fixed-step fourth-order trajectory from s0.t to t_end.

    Exact when the state, step and spec are rational (the method is pure
    rational arithmetic).  Raises BlowUp when |h| exceeds h_bound or
    stops being a number, the expected signal of a movable pole.
    """
    if any(not isinstance(v, Fraction) and not math.isfinite(v)
           for v in (*s0.row(), t_end, step)):
        raise ValueError("initial state, t_end and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    span = t_end - s0.t
    steps = span / step
    nsteps = round(steps)
    if isinstance(steps, Fraction):
        off_grid = steps != nsteps
    else:
        off_grid = abs(nsteps * step - span) > 1e-9 * abs(step)
    if nsteps <= 0 or off_grid:
        raise ValueError("(t_end - t0) must be a positive multiple of step")

    def rhs(t, vec):
        state = SystemState(t, vec[0], vec[1], tuple(vec[2:]))
        return vector_field(spec, state)

    half, sixth = Q(1, 2), Q(1, 6)
    out = [s0]
    vec = [s0.r, s0.h, *s0.x]
    for i in range(nsteps):
        t = s0.t + i * step
        try:
            k1 = rhs(t, vec)
            k2 = rhs(t + half * step, [v + half * step * d for v, d in zip(vec, k1)])
            k3 = rhs(t + half * step, [v + half * step * d for v, d in zip(vec, k2)])
            k4 = rhs(t + step, [v + step * d for v, d in zip(vec, k3)])
            vec = [v + sixth * step * (a + 2 * b + 2 * c + d)
                   for v, a, b, c, d in zip(vec, k1, k2, k3, k4)]
        except (OverflowError, ZeroDivisionError):
            raise BlowUp(t, out) from None
        t_next = s0.t + (i + 1) * step
        state = SystemState(t_next, vec[0], vec[1], tuple(vec[2:]))
        if not abs(state.h) <= h_bound:
            raise BlowUp(t_next, out)
        out.append(state)
    return out


# -- exact solution families ---------------------------------------------------

@dataclass(frozen=True)
class PoleSum:
    """h(t) = (1/b) sum_k 1/(t - a_k) with pairwise distinct rational poles."""

    b: Fraction
    poles: tuple[Fraction, ...]

    def __post_init__(self):
        if self.b == 0:
            raise ValueError("b must be nonzero")
        if len(set(self.poles)) != len(self.poles):
            raise ValueError("poles must be pairwise distinct")

    def jet(self, t, max_order: int) -> list:
        """Exact jet (h, h', ..., h^(max_order)) at t; PoleHit on a pole.

        The q-th derivative is (1/b) sum_k (-1)^q q!/(t - a_k)^(q+1).
        """
        if any(t == a for a in self.poles):
            raise PoleHit(f"t = {t} is a pole")
        out = []
        fact = 1
        sign = 1
        for q in range(max_order + 1):
            out.append(sum(sign * fact / (t - a) ** (q + 1) for a in self.poles) / self.b)
            fact *= q + 1
            sign = -sign
        return out


def pole_sum(b, poles) -> PoleSum:
    return PoleSum(Q(b), tuple(Q(a) for a in poles))


def lift_jet(h_jet: Sequence, n: int) -> tuple:
    """The substitution x_2 = h' + h^2, x_k = x_{k-1}' + 2(k-1) h x_{k-1}.

    Each coordinate is the (k-1)-th hierarchy member as a jet polynomial,
    built symbolically once and evaluated here, so exact and float inputs
    share the same code.
    """
    if len(h_jet) < n + 1:
        raise JetTooShort(f"need the jet through order {n}, got {len(h_jet) - 1}")
    return tuple(hierarchy_ode(k - 1).eval(h_jet) for k in range(2, n + 2))


# -- changes of variables -------------------------------------------------------

def transform_system(spec: SystemSpec,
                     transform: Sequence[tuple[Fraction, GradedPoly | None]]) -> SystemSpec:
    """Apply the triangular change X_2 = c_2 x_2, X_k = c_k x_k + q_k(x_2..x_{k-1}).

    The new flows are read off by differentiating the transform along the
    old flows and substituting the inverse change of variables; the
    h-coupling constant rescales to c/c_2.
    """
    if len(transform) != spec.n:
        raise ValueError(f"expected {spec.n} transform rows")
    scales: list[Fraction] = []
    shears: list[GradedPoly] = []
    for i, (ck, qk) in enumerate(transform):
        ck = Q(ck)
        if ck == 0:
            raise SingularTransform(f"diagonal entry for x_{i + 2} vanishes")
        qk = qk if qk is not None else GradedPoly.zero()
        k = i + 2
        if qk:
            if qk.weight != 2 * k:
                raise WeightMismatch(f"shear for x_{k} has weight {qk.weight}")
            if any(v >= k for m in qk.terms for v, _ in m):
                raise WeightMismatch(f"shear for x_{k} must use x_2..x_{k - 1}")
        scales.append(ck)
        shears.append(qk)
    # invert the triangle bottom-up: x_k = (X_k - q_k(x_2(X), ...))/c_k
    inverse: dict[int, GradedPoly] = {}
    for i in range(spec.n):
        k = i + 2
        expr = GradedPoly.variable(k) - shears[i].subst(inverse)
        inverse[k] = expr.scale(1 / scales[i])
    new_flows = []
    for i in range(spec.n):
        k = i + 2
        rate = spec.flows[i].scale(scales[i])
        for j in range(2, k):
            dq = shears[i].partial(j)
            if dq:
                rate = rate + dq * spec.flows[j - 2]
        new_flows.append(rate.subst(inverse))
    return SystemSpec(spec.n, spec.delta, spec.c / scales[0], tuple(new_flows))


def weierstrass_system() -> SystemSpec:
    """The sigma-function system on (g2, g3): g2' = 6 g3, g3' = (1/3) g2^2.

    Slots 2 and 3 hold g2 and g3; the h-coupling dh/dt = -h^2 + g2/12
    corresponds to c = -1/2 at delta = 1.
    """
    return SystemSpec(2, 1, Q(-1, 2),
                      (GradedPoly.variable(3, 6),
                       (GradedPoly.variable(2) * GradedPoly.variable(2)).scale(Q(1, 3))))


def weierstrass_deformed_system() -> SystemSpec:
    """The one-parameter deformation on (g2, g3, g4): g3' gains 2 g4, g4' = 0."""
    g2 = GradedPoly.variable(2)
    return SystemSpec(3, 1, Q(-1, 2),
                      (GradedPoly.variable(3, 6),
                       (g2 * g2).scale(Q(1, 3)) + GradedPoly.variable(4, 2),
                       GradedPoly.zero()))


@dataclass(frozen=True)
class SigmaReduction:
    """A verified reduction of a sigma-type system to the normal form."""

    source: SystemSpec
    result: SystemSpec
    closing_constant: Fraction


def sigma_reduction(case: int) -> SigmaReduction:
    """Bring the sigma system (case 2) or its deformation (case 3) to normal form.

    Case 2 uses the diagonal scaling (1/12, 1/2) and lands on the level-2
    reduced system with closing 24 x2^2; case 3 adds the shear
    x4 = g4 + (1/6) g2^2 and lands on level 3 with closing 48 x2 x3.
    Both claims are recomputed here, not assumed.
    """
    g2 = GradedPoly.variable(2)
    if case == 2:
        source = weierstrass_system()
        result = transform_system(source, [(Q(1, 12), None), (Q(1, 2), None)])
        expected_closing = (g2 * g2).scale(24)
        constant = Q(24)
    elif case == 3:
        source = weierstrass_deformed_system()
        result = transform_system(
            source,
            [(Q(1, 12), None), (Q(1, 2), None), (Q(1), (g2 * g2).scale(Q(1, 6)))])
        expected_closing = (g2 * GradedPoly.variable(3)).scale(48)
        constant = Q(48)
    else:
        raise ValueError("case must be 2 or 3")
    expected = SystemSpec.reduced(result.n, 1, expected_closing)
    if result != expected:
        raise ArithmeticError(f"sigma reduction for case {case} failed: {result}")
    return SigmaReduction(source, result, constant)
