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
mode is decided by the values, never by a flag: vector_field and
integrate_rk4 run exact iff every scalar of the state (and of t_end and
step) is an int or a Fraction; otherwise they convert every scalar, t
included, to float once at entry, so no Fraction reaches a float row.
build_field converts the system's constants once to the mode's number
type; floats converted early give the same bits, because Fraction * float
computes float(Fraction) * float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import GradedPoly, Q, check_closing, check_homogeneous, eval_lowered
from .jets import JetTooShort, hierarchy_ode

# An exact RK4 step on a quadratic field multiplies the bits about 16x: from the
# level-2 state (1/4, 1/5, -3/20) at step 1/10, the fourth step takes 30330 bits
# to 485336.  A state past this many bits is refused before its next step.
EXACT_BITS = 2 ** 15


class BlowUp(RuntimeError):
    """The blow-up guard tripped: a movable singularity was approached."""

    def __init__(self, t_star, trajectory):
        super().__init__(f"blow-up guard tripped at t = {t_star}")
        self.t_star = t_star
        self.trajectory = trajectory


class ExactTooLarge(ValueError):
    """An exact RK4 state outgrew EXACT_BITS, so its next step would take too long."""


class PoleHit(ZeroDivisionError):
    """A pole sum was evaluated at one of its poles."""


class SingularTransform(ValueError):
    """A triangular change of variables with a vanishing diagonal entry."""


def default_c(delta: int) -> Fraction:
    """The normalisation c = -2(1+2*delta) of the reduced normal form."""
    return Q(-2 * (1 + 2 * delta))


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
        for k, p in enumerate(self.flows, start=2):
            check_homogeneous(p, 2 * (k + 1), range(2, self.n + 2), f"flow of x_{k}")

    @classmethod
    def reduced(cls, n: int, delta: int = 0, closing: GradedPoly | None = None,
                c: Fraction | int | None = None) -> SystemSpec:
        """The normal form: p_k = x_k below the top, the closing on top."""
        closing = check_closing(n, closing)
        flows = tuple(GradedPoly.variable(k) for k in range(3, n + 2))
        if n >= 1:
            flows = flows + (closing,)
        return cls(n, delta, Q(c) if c is not None else default_c(delta), flows)


@dataclass(frozen=True)
class SystemState:
    """One trajectory point; scalars are Fractions or floats, uniformly."""

    t: Fraction | float
    r: Fraction | float
    h: Fraction | float
    x: tuple

    def row(self) -> list:
        return [self.t, self.r, self.h, *self.x]


def _in_mode(spec: SystemSpec, state: SystemState, *extra) -> tuple:
    """(number type, state, extra) under the module's number-mode rule, every scalar converted."""
    if len(state.x) != spec.n:
        raise ValueError(f"state has {len(state.x)} coordinates, spec wants {spec.n}")
    num = Q if all(isinstance(v, (int, Fraction)) for v in (*state.row(), *extra)) else float
    try:
        t, r, h, *x = (num(v) for v in state.row())
        extra = [num(v) for v in extra]
    except OverflowError:  # an int or Fraction beyond the float range, in float mode
        raise ValueError("every scalar must be finite as a float") from None
    return num, SystemState(t, r, h, tuple(x)), extra


def build_field(spec: SystemSpec, num: Callable) -> Callable[[Sequence], tuple]:
    """The right-hand side as a function of (r, h, x_2, ..., x_{n+1}).

    The constants and the flows are converted once by `num` (Fraction or
    float); the returned function keeps vector_field's operation order.
    """
    rate_r = num(-(Q(spec.delta) + Q(1, 2)))
    coupling = num(spec.c / Q(2 * (1 + 2 * spec.delta))) if spec.n >= 1 else None
    zero = num(0)
    rows = [(k, num(2 * k), p.lower(num)) for k, p in enumerate(spec.flows, start=2)]

    def field(vec: Sequence) -> tuple:
        h = vec[1]
        dh = -h * h
        if coupling is not None:
            dh = dh - coupling * vec[2]
        # vec[k] is x_k for k >= 2, so vec serves as the flows' value map
        return (rate_r * h, dh,
                *[eval_lowered(flow, vec, zero) - rate * h * vec[k] for k, rate, flow in rows])

    return field


def vector_field(spec: SystemSpec, state: SystemState) -> tuple:
    """Right-hand side (dr, dh, dx_2, ..., dx_{n+1}) at a state."""
    num, state, _ = _in_mode(spec, state)
    return build_field(spec, num)([state.r, state.h, *state.x])


def integrate_rk4(spec: SystemSpec, s0: SystemState, t_end, step,
                  h_bound=10 ** 8) -> list[SystemState]:
    """Classical fixed-step fourth-order trajectory from s0.t to t_end.

    Exact when the state, t_end and step are rational (the method is pure
    rational arithmetic); an exact state whose largest numerator or
    denominator exceeds EXACT_BITS bits raises ExactTooLarge before the
    next step.  Raises BlowUp when |h| exceeds h_bound or stops being a
    number, the expected signal of a movable pole.  An h_bound that is not
    positive (NaN included) raises ValueError.
    """
    if not h_bound > 0:
        raise ValueError(f"the blow-up bound must be positive, got {h_bound}")
    num, s0, (t_end, step) = _in_mode(spec, s0, t_end, step)
    if num is float and not all(math.isfinite(v) for v in (*s0.row(), t_end, step)):
        raise ValueError("initial state, t_end and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    span = t_end - s0.t
    steps = span / step
    nsteps = round(steps)
    if num is Q:
        off_grid = steps != nsteps
    else:
        off_grid = abs(nsteps * step - span) > 1e-9 * abs(step)
    if nsteps <= 0 or off_grid:
        raise ValueError("(t_end - t0) must be a positive multiple of step")

    field = build_field(spec, num)
    half, sixth = Q(1, 2) * step, Q(1, 6) * step
    out = [s0]
    vec = [s0.r, s0.h, *s0.x]
    for i in range(nsteps):
        t = s0.t + i * step
        if num is Q:
            bits = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in vec)
            if bits > EXACT_BITS:
                raise ExactTooLarge(
                    f"the exact state at t = {t} has {bits}-bit numbers, over the bound of "
                    f"{EXACT_BITS}; integrate in float mode or take fewer steps")
        try:
            k1 = field(vec)
            k2 = field([v + half * d for v, d in zip(vec, k1)])
            k3 = field([v + half * d for v, d in zip(vec, k2)])
            k4 = field([v + step * d for v, d in zip(vec, k3)])
            vec = [v + sixth * (a + 2 * b + 2 * c + d)
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

    def integral_jet(self, t, max_order: int) -> tuple[int, list[int]]:
        """(lam, jet) with jet[q] = lam^(q+1) h^(q)(t), all ints; exact t only.

        With t - a_k = p_k/r_k in lowest terms and L the lcm of the p_k,
        lam = numerator(b) L and jet[q] = (-1)^q q! num(b)^q den(b) sum_k w_k^(q+1),
        w_k = L r_k/p_k.  A jet polynomial P of weight W (h^(q) weighs 2(q+1))
        then reads P(jet) = lam^(W/2) P(h-jet) with lam != 0: same zero test.
        """
        if not isinstance(t, (int, Fraction)):
            raise TypeError(f"integral_jet is exact-only: got t = {t!r}")
        if any(t == a for a in self.poles):
            raise PoleHit(f"t = {t} is a pole")
        gaps = [t - a for a in self.poles]
        lcm = math.lcm(*(g.numerator for g in gaps))
        weights = [lcm * g.denominator // g.numerator for g in gaps]
        b_num, b_den = self.b.numerator, self.b.denominator
        out = []
        coeff = b_den                   # (-1)^q q! num(b)^q den(b)
        powers = weights
        for q in range(max_order + 1):
            out.append(coeff * sum(powers))
            coeff *= -(q + 1) * b_num
            powers = [p * w for p, w in zip(powers, weights)]
        return b_num * lcm, out


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
    for k, (ck, qk) in enumerate(transform, start=2):
        ck = Q(ck)
        if ck == 0:
            raise SingularTransform(f"diagonal entry for x_{k} vanishes")
        scales.append(ck)
        shears.append(check_homogeneous(qk or GradedPoly.zero(), 2 * k, range(2, k),
                                        f"shear for x_{k}"))
    # invert the triangle bottom-up: x_k = (X_k - q_k(x_2(X), ...))/c_k
    inverse: dict[int, GradedPoly] = {}
    for k, ck, q in zip(range(2, spec.n + 2), scales, shears):
        inverse[k] = (GradedPoly.variable(k) - q.subst(inverse)).scale(1 / ck)
    # X_k' = c_k p_{k+1} + (derivative of q_k along the old flows), then back to X
    old_flows = dict(enumerate(spec.flows, start=2))
    new_flows = tuple((p.scale(ck) + q.derive(old_flows)).subst(inverse)
                      for p, ck, q in zip(spec.flows, scales, shears))
    return SystemSpec(spec.n, spec.delta, spec.c / scales[0], new_flows)


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


def sigma_reduction(case: int) -> SystemSpec:
    """The sigma system (case 2) or its deformation (case 3), transformed as computed.

    Case 2 scales by (1/12, 1/2), which should give the level-2 reduced system
    with closing 24 x2^2; case 3 adds the shear x4 = g4 + (1/6) g2^2, which
    should give level 3 with closing 48 x2 x3.  The caller checks the result.
    """
    if case == 2:
        return transform_system(weierstrass_system(), [(Q(1, 12), None), (Q(1, 2), None)])
    if case == 3:
        g2 = GradedPoly.variable(2)
        return transform_system(
            weierstrass_deformed_system(),
            [(Q(1, 12), None), (Q(1, 2), None), (Q(1), (g2 * g2).scale(Q(1, 6)))])
    raise ValueError("case must be 2 or 3")
