"""Assembling and verifying heat-equation solutions.

The factored ansatz exp(-h z^2/2 + r) * (series in z) turns the heat
equation into statements about the series coefficients and the flow of
(r, h, x).  This module checks those statements three ways:

  series_heat_residual   a decidable symbolic check: every z-order of
                         the residual, with time derivatives rewritten
                         through the flow, must vanish as a polynomial
                         identity in (h, x);
  grid_heat_residual     a numeric check along trajectories or closed
                         forms, central differences in t against the
                         exact-in-z series derivative;
  conserved_integral     the conservation law for the z-integral of a
                         solution, via a trapezoidal sum halved until two
                         successive sums agree, with an explicit Gaussian
                         tail bound.

The numeric checks sample AnsatzSolution and WideSolution.  Their shared
base PerTimeSolution evaluates the series coefficients P_k(x(t)) once per
time (series_values) and keeps them for the last TIME_CACHE times, so the
sums at every z of a grid row (series_sums) reuse them.  That cache is the
only one in front of a trajectory_provider, which keeps no answers itself.

polynomial_solution_check verifies the Gaussian-times-Hermite solutions
exactly: the heat residual reduces to Hermite's operator on the
polynomial factor, checked coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .algebra import GradedPoly, Q, eval_lowered
from .series import AnsatzSeries, BareSeries, hermite, hermite_eval
from .systems import SystemSpec, SystemState, integrate_rk4, lift_jet, pole_sum


class OutOfRange(ValueError):
    """Evaluation outside the trajectory or validity range."""


class Unsettled(ArithmeticError):
    """Successive trapezoidal sums of a conservation integral never agreed."""

    def __init__(self, t, difference):
        super().__init__(f"trapezoidal sums at t = {t} still differ by {difference} "
                         f"at {_CAP_INTERVALS} intervals")
        self.t = t
        self.difference = difference


# -- symbolic verification -----------------------------------------------------

@dataclass
class SymbolicHeatReport:
    """Per-order outcome of the polynomial-identity residual check."""

    case: str
    orders: list[int]
    failures: dict[int, GradedPoly] = field(default_factory=dict)

    @property
    def first_failure(self) -> int | None:
        return min(self.failures) if self.failures else None

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "mode": "symbolic",
            "orders_checked": self.orders,
            "first_failure": self.first_failure,
            "max_residual": "0" if self.all_ok else "nonzero",
            "error_budget": None,
        }


def predicted_failure_order(k: int, delta: int) -> int:
    """The z-order where a fault in the k-th series coefficient first shows."""
    return 2 * k + delta - 2


def series_heat_residual(spec: SystemSpec, series: AnsatzSeries,
                         case: str = "") -> SymbolicHeatReport:
    """Check the heat equation order by order as exact polynomial identities.

    The residual of exp(-h z^2/2 + r) * S(z; x(t)) is expanded in z with
    every time derivative replaced through the flow; the coefficient of
    z^m must be exactly zero for every m <= 2K + delta - 2 of the series
    parity, K the truncation (opposite-parity ones vanish structurally).
    It is computed over (h, x_2..x_{n+1}), h in slot 1 of the grading, yet
    holds no h: c_m is homogeneous of weight m - delta, so by Euler's
    identity the flow's -2k h x_k terms add -(m - delta) h c_m, which
    cancels the (m - delta) h c_m term exactly.
    """
    if (series.n, series.delta, series.c) != (spec.n, spec.delta, spec.c):
        raise ValueError("series parameters do not match the system")
    n, delta, c, K = spec.n, spec.delta, spec.c, series.truncation
    h = GradedPoly.variable(1)

    def coeff(m: int) -> GradedPoly:
        if m < delta or (m - delta) % 2:
            return GradedPoly.zero()
        return series.coeff((m - delta) // 2).scale(Q(1, math.factorial(m)))

    # d/dt along the flow: x_k' = p_{k+1} - 2k h x_k
    flow = {k: p - (h * GradedPoly.variable(k)).scale(2 * k)
            for k, p in enumerate(spec.flows, start=2)}
    orders = list(range(delta, 2 * K + delta - 1, 2))
    failures: dict[int, GradedPoly] = {}
    for m in orders:
        cm = coeff(m)
        residual = (h * cm).scale(m - delta)
        if n >= 1:
            x2cm = GradedPoly.variable(2) * coeff(m - 2)
            residual = residual + x2cm.scale(c / Q(4 * (1 + 2 * delta)))
        residual = residual + cm.derive(flow)
        residual = residual - coeff(m + 2).scale(Q((m + 2) * (m + 1), 2))
        if residual:
            failures[m] = residual
    return SymbolicHeatReport(case or f"n={n},delta={delta}", orders, failures)


# -- assembled solutions ---------------------------------------------------------

# Query times whose state values a solution keeps: a grid point reads three.
# The cache key holds t's type as well as its value, since a provider may
# answer an exact time exactly and the equal float in floats, with other bits.
TIME_CACHE = 8


def lower_series(series: AnsatzSeries | BareSeries) -> tuple:
    """(delta, K, ((k, P_k lowered to float), ...)) over the nonzero P_k, for series_values."""
    K = series.truncation
    return series.delta, K, tuple((k, pk.lower())
                                  for k in range(1, K + 1) if (pk := series.coeff(k)))


def series_values(lowered: tuple, x: Mapping[int, float]) -> tuple[float, ...]:
    """The float values P_k(x) of the coefficients in lowered = lower_series(series), in order.

    They depend on the state only, not on z: a solution computes them once
    per time and hands them to series_sums for every z.
    """
    return tuple(eval_lowered(pk, x, 0.0) for _, pk in lowered[2])


def series_sums(lowered: tuple, values: Sequence[float],
                z: float) -> tuple[float, float, float, float]:
    """Float sums at z of z^delta + sum_k P_k(x) z^e/e!, e = 2k + delta.

    `lowered` is lower_series(series) and `values` is series_values(lowered, x).
    Returns the value, its first and second z-derivatives, and the
    magnitude of the last retained term (the truncation estimate).
    Coefficients that vanish are skipped.
    """
    delta, K, coeffs = lowered
    s = float(z) ** delta
    sz = 1.0 if delta else 0.0  # d/dz z^delta for delta in {0, 1}
    szz = tail = 0.0
    for (k, _), v in zip(coeffs, values):
        e = 2 * k + delta
        s += v * z ** e / math.factorial(e)
        sz += v * z ** (e - 1) / math.factorial(e - 1)
        szz += v * z ** (e - 2) / math.factorial(e - 2)
        if k == K:
            tail = abs(v) * abs(z) ** e / math.factorial(e)
    return s, sz, szz, tail


def assemble(sums: tuple, z: float, h: float, r: float) -> tuple[float, float, float]:
    """exp(-h z^2/2 + r) times the value, the exact d^2/dz^2 and the tail of a series.

    `sums` is series_sums(...) at z; h = 0.0 gives the Gaussian-free shape.
    """
    s, sz, szz, tail = sums
    envelope = math.exp(-0.5 * h * z * z + r)
    return (envelope * s, envelope * (h * h * z * z * s - 2 * h * z * sz - h * s + szz),
            envelope * tail)


class PerTimeSolution:
    """The evaluation the assembled solutions share: series sums per time, then per z.

    A subclass holds `series` and a provider `state_at` that must be a
    function of t alone, and reads one provider answer into floats
    (h, r, x) in its static `read_state`.  h, r and the coefficient values
    P_k(x) are computed once per time and kept for the last TIME_CACHE
    distinct query times.  The cache holds the lowered series and the
    provider, not the solution, so a solution is freed with its last
    reference and not only by the cycle collector.
    """

    def __post_init__(self):
        lowered = self._lowered = lower_series(self.series)
        state_at, read_state = self.state_at, self.read_state

        @lru_cache(TIME_CACHE, typed=True)
        def values_at(t: float) -> tuple[float, float, tuple[float, ...]]:
            h, r, x = read_state(state_at(t))
            return h, r, series_values(lowered, x)

        self._at = values_at

    def parts(self, z: float, t: float) -> tuple[float, float, float]:
        """Value, exact-in-z second derivative and last-term magnitude at (z, t)."""
        h, r, values = self._at(t)
        return assemble(series_sums(self._lowered, values, z), z, h, r)

    def psi(self, z: float, t: float) -> float:
        return self.parts(z, t)[0]


@dataclass
class AnsatzSolution(PerTimeSolution):
    """A factored solution: system, series and a state provider t -> state."""

    spec: SystemSpec
    series: AnsatzSeries
    state_at: Callable[[float], SystemState]

    def __post_init__(self):
        s = self.series
        if (s.n, s.delta, s.c) != (self.spec.n, self.spec.delta, self.spec.c):
            raise ValueError("series parameters do not match the system")
        super().__post_init__()

    @staticmethod
    def read_state(state: SystemState) -> tuple[float, float, dict[int, float]]:
        return float(state.h), float(state.r), {k: float(v) for k, v in enumerate(state.x, start=2)}

    # psi sits in each solution's own class dict, where perfbench's tracer counts its calls
    psi = PerTimeSolution.psi


@dataclass
class WideSolution(PerTimeSolution):
    """The Gaussian-free shape exp(r(t)) * (wide series in z): the provider gives (r, x)."""

    series: BareSeries
    state_at: Callable[[float], tuple[float, Mapping[int, float]]]

    @staticmethod
    def read_state(state: tuple[float, Mapping[int, float]]
                   ) -> tuple[float, float, Mapping[int, float]]:
        r, x = state
        return 0.0, r, x

    psi = PerTimeSolution.psi  # in the class dict, as in AnsatzSolution


def trajectory_provider(spec: SystemSpec, s0: SystemState,
                        step_hint: float = 1e-3) -> Callable[[float], SystemState]:
    """State provider backed by one fixed-step trajectory from s0 (t >= s0.t).

    Node i is the RK4 state at t0 + i*step_hint, t0 = s0.t; the node list
    grows only as far as the node a query needs, so a query never
    integrates past its own time (and never trips the blow-up guard
    early).  A query at t returns node floor((t - t0)/step_hint), advanced
    by one RK4 step of length t - node.t when that gap is positive.  The
    field is autonomous, so a node's bits do not depend on how the list
    was grown, and the state at t does not depend on the order of queries.
    A time before t0 or a non-finite time raises OutOfRange, a step_hint
    that is not positive and finite ValueError.
    """
    if not (math.isfinite(step_hint) and step_hint > 0):
        raise ValueError(f"step_hint must be positive and finite, got {step_hint}")
    t0 = float(s0.t)
    nodes = [s0]

    def at(t: float) -> SystemState:
        t = float(t)
        if not math.isfinite(t):
            raise OutOfRange(f"t = {t} is not a finite time")
        if t < t0:
            raise OutOfRange(f"t = {t} precedes the initial time {s0.t}")
        i = math.floor((t - t0) / step_hint)
        i += t0 + (i + 1) * step_hint <= t  # the quotient can round to just below a node
        if i >= len(nodes):
            grown = integrate_rk4(spec, nodes[-1], t0 + i * step_hint, step_hint)[1:]
            nodes.extend([SystemState(t0 + j * step_hint, s.r, s.h, s.x)
                          for j, s in enumerate(grown, len(nodes))])
        node = nodes[i]
        gap = t - node.t
        return node if gap <= 0 else integrate_rk4(spec, node, t, gap)[-1]

    return at


def pole_state_provider(n: int, b, poles, delta: int) -> Callable[[float], SystemState]:
    """Closed-form states from a pole-sum h: the lift gives x, the log gives r."""
    ps = pole_sum(b, poles)

    def at(t: float) -> SystemState:
        jet = ps.jet(t, max(n, 1))
        for a in ps.poles:
            if t <= a:
                raise OutOfRange(f"t = {t} is not to the right of the poles")
        r = -(delta + 0.5) / float(ps.b) * sum(math.log(float(t - a)) for a in ps.poles)
        return SystemState(t, r, jet[0], lift_jet(jet, n))

    return at


# -- numeric verification ---------------------------------------------------------

@dataclass
class NumericHeatReport:
    case: str
    grid: dict
    max_residual: float
    fd_component: float
    truncation_component: float

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "mode": "numeric",
            "grid": self.grid,
            "first_failure": None,
            "max_residual": self.max_residual,
            "error_budget": {
                "fd": self.fd_component,
                "truncation": self.truncation_component,
            },
        }


def grid_heat_residual(sol, z_values: Sequence[float], t_values: Sequence[float],
                       fd_step: float, case: str = "") -> NumericHeatReport:
    """Max relative heat residual over a (z, t) grid.

    The time derivative is a central difference with the given step; the
    space derivative is exact in z.  The report decomposes the error
    budget into a Richardson estimate of the finite-difference component
    and the series truncation bound at the worst grid point.  An empty
    grid axis raises ValueError.
    """
    for axis, values in (("z", z_values), ("t", t_values)):
        if len(values) == 0:
            raise ValueError(f"the {axis} grid is empty")
    worst = 0.0
    worst_point = None
    for t in t_values:
        for z in z_values:
            dt = (sol.psi(z, t + fd_step) - sol.psi(z, t - fd_step)) / (2 * fd_step)
            value, dzz, tail = sol.parts(z, t)
            scale = max(abs(value), abs(dt), abs(dzz) / 2, 1e-300)
            rel = abs(dt - dzz / 2) / scale
            if rel >= worst or math.isnan(rel):  # a NaN point becomes the worst and stays
                worst = rel
                worst_point = (z, t, scale, dt, tail)
    z, t, scale, dt_full, tail = worst_point
    half = fd_step / 2
    dt_half = (sol.psi(z, t + half) - sol.psi(z, t - half)) / (2 * half)
    fd_component = abs(dt_full - dt_half) * 4 / 3 / scale
    return NumericHeatReport(
        case,
        {"z": len(z_values), "t": len(t_values), "fd_step": fd_step},
        worst,
        fd_component,
        tail / scale,
    )


# -- conservation -------------------------------------------------------------------

_START_INTERVALS = 64
_CAP_INTERVALS = 2 ** 16
_TOLERANCE = 1e-13


def gaussian_halfwidth(s: float, tol: float = 1e-13, k: int = 0) -> float:
    """Half-width Z with the tail integral of He_k(z/sqrt(s)) exp(-z^2/(2s)) below tol.

    For k = 0 the tail beyond Z is at most (2s/Z) exp(-Z^2/(2s)), so
    Z = max(sqrt(2 s log(1/tol)), 2s) suffices.  For k > 0 the tail is
    exactly 2 sqrt(s) |He_{k-1}(X)| exp(-X^2/2), X = Z/sqrt(s), once X is
    past the largest zero of He_k (below sqrt(4k+2)), and it falls as X
    grows: Z is widened from the k = 0 width until that holds.  This is
    the k-th z-derivative of the Gaussian up to the factor s^(-(k+1)/2)
    of fundamental_psi(c, k) at s = t - c.
    """
    z = max(math.sqrt(2 * s * math.log(1 / tol)), 2 * s, 1.0)
    if k == 0:
        return z
    he, w = [float(v) for v in hermite(k - 1)], math.sqrt(s)
    z = max(z, w * math.sqrt(4 * k + 2))
    while 2 * w * abs(hermite_eval(he, z / w)) * math.exp(-z * z / (2 * s)) > tol:
        z *= 1.01
    return z


def conserved_integral(psi: Callable[[float, float], float], t: float,
                       half_width: float) -> float:
    """The z-integral of a solution at time t over [-Z, Z], Z = half_width.

    Composite trapezoidal sums start at _START_INTERVALS intervals and
    halve the spacing, reusing the old nodes, until two successive sums
    agree to _TOLERANCE * max(1, |sum|); the finer sum is returned.
    Truncating a Gaussian to [-Z, Z] costs at most the tail bounded in
    gaussian_halfwidth (given the Hermite degree k for the integrand of
    fundamental_psi(c, k)).  For an integrand analytic in the strip
    |Im z| < a the trapezoidal error decays like exp(-2 pi a / spacing),
    so agreement of successive halvings is the error check, and it is
    made, not assumed.  Sums still apart at _CAP_INTERVALS intervals,
    a NaN among them included, raise Unsettled.
    """
    n = _START_INTERVALS
    width = 2 * half_width
    inner = sum(psi(-half_width + width * i / n, t) for i in range(1, n))
    total = (psi(-half_width, t) + psi(half_width, t)) / 2 + inner
    value = total * width / n
    while n < _CAP_INTERVALS:
        total += sum(psi(-half_width + width * (2 * i + 1) / (2 * n), t) for i in range(n))
        n *= 2
        finer = total * width / n
        difference = abs(finer - value)
        if difference <= _TOLERANCE * max(1.0, abs(finer)):
            return finer
        value = finer
    raise Unsettled(t, difference)


def fundamental_psi(c: float, k: int = 0) -> Callable[[float, float], float]:
    """The k-th z-derivative of the classical Gaussian solution at center c."""
    he = [float(v) for v in hermite(k)]

    def psi(z: float, t: float) -> float:
        s = t - c
        if s <= 0:
            raise OutOfRange(f"t = {t} is not beyond the center {c}")
        poly = hermite_eval(he, z / math.sqrt(s))
        return (-1) ** k * s ** (-(k + 1) / 2) * math.exp(-z * z / (2 * s)) * poly

    return psi


# -- exact polynomial solutions ------------------------------------------------------

def polynomial_solution_check(k: int, coeffs: Sequence[Fraction] | None = None) -> bool:
    """Exact check that w^(-k-1) He_k(z/w) exp(-z^2/(2 w^2)) solves the heat equation.

    This is the k-th z-derivative of the fundamental solution, written
    with w = sqrt(t - c).  For u = w^(-k-1) P(x) exp(-x^2/2), x = z/w,

        2 w^(k+3) exp(x^2/2) (u_t - u_zz/2) = -(P'' - x P' + k P),

    so u solves the heat equation exactly when every coefficient
    (i+2)(i+1) p_{i+2} + (k - i) p_i of that Hermite operator vanishes.
    Passing `coeffs` substitutes another polynomial for He_k (fault injection).
    """
    p = [*(coeffs if coeffs is not None else hermite(k)), 0, 0]
    return all((i + 2) * (i + 1) * p[i + 2] + (k - i) * p[i] == 0 for i in range(len(p) - 2))
