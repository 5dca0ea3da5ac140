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
The constants are converted once to the mode's number type; floats
converted early give the same bits, because Fraction * float computes
float(Fraction) * float.

vector_field writes the field above in plain Python.  The fixed-step RK4
loop is generated Python source (_source), one text per structure and
mode: the level, the flows' monomials and whether the run is exact, with
every constant and coefficient bound by name, never written as a
literal.  The loop unpacks the state into locals once; each step writes
the field out once per stage with eval_lowered's products and sums in its
order (lowered_source), reassigns the locals from the combined update and
appends the new state as a plain tuple.  Each operation is one that
eval_lowered and the RK4 formulas perform, on the same operands and in
their order, so both modes keep their bits.  The two modes differ only
in one guard line each: an exact run checks EXACT_BITS before every step,
a float run checks after it that every coordinate is still finite.
Compiling a level-4 text takes about half a millisecond, so the compiled
code is kept in a bounded lru cache keyed on the structure and the mode,
which hold only ints (_compiled); a run then only converts the constants
and binds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, make_dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .algebra import (GradedPoly, Mono, Q, check_closing, check_homogeneous, check_level,
                      lowered_source)
from .jets import JetTooShort, hierarchy_ode

# An exact RK4 step on a quadratic field multiplies the bits about 16x: from the
# level-2 state (1/4, 1/5, -3/20) at step 1/10, the fourth step takes 30330 bits
# to 485336.  A state past this many bits is refused before its next step.
EXACT_BITS = 2 ** 15

# The most RK4 steps one integrate_rk4 call takes; a longer run is refused
# before its first step.  The trajectory keeps every state: at level 2 in float
# mode 10^5 steps take about 0.26 s and 30 MB, so this bound costs seconds and a
# few hundred MB.  The heat suite's trajectories take about 800 steps.
MAX_STEPS = 10 ** 6

# Compiled RK4 loops kept, one per structure of flows and mode (see _compiled).
LOWERING_CACHE = 128


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


class SystemState(NamedTuple):
    """One trajectory point; scalars are Fractions or floats, uniformly."""

    t: Fraction | float
    r: Fraction | float
    h: Fraction | float
    x: tuple

    def row(self) -> list:
        return [self.t, self.r, self.h, *self.x]


# dataclasses.replace and dataclasses.fields accept a state: the benchmark's
# self-test perturbs one with dataclasses.replace.  The docstring spares
# make_dataclass an inspect.signature call, about 2 ms of a cold import.
SystemState.__dataclass_fields__ = make_dataclass(
    "SystemState", SystemState._fields, namespace={"__doc__": SystemState.__doc__},
    init=False, repr=False, eq=False).__dataclass_fields__


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


def _check_bits(t, vec) -> None:
    """ExactTooLarge if an exact state, about to step from t, is over EXACT_BITS bits."""
    bits = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in vec)
    if bits > EXACT_BITS:
        raise ExactTooLarge(
            f"the exact state at t = {t} has {bits}-bit numbers, over the bound of "
            f"{EXACT_BITS}; integrate in float mode or take fewer steps")


def _source(flows: tuple[tuple[Mono, ...], ...], exact: int) -> str:
    """Source of make(constants) -> walk for flows with these monomial keys.

    walk(out, nsteps, bound) runs nsteps classical RK4 steps from out[-1]
    and appends each new state to out.  It unpacks the state into locals
    once, and each step writes the field out once per stage:
    dh = -h * h - coupling * x2, each flow by lowered_source and then
    dx_k = dx_k - rate_k * h * x_k, so a zero flow gives
    zero - rate_k * h * x_k (+0.0 where h * x_k is +0.0).  The stages and
    the update are v + half * k1, v + half * k2, v + step * k3 and
    v + sixth * (k1 + 2 * k2 + 2 * k3 + k4), the update assigned to the
    locals at once.  No stage value of r is formed, since no field reads
    it.  Step i starts at t0 + i * step and its state is stamped
    t0 + (i + 1) * step, t0 = out[-1].t.  An OverflowError or
    ZeroDivisionError inside a step raises BlowUp at its start, with out as
    the trajectory so far.  After a step, |h| over bound raises BlowUp at
    the new time; so does, in float mode (exact = 0), a coordinate that is
    not finite: r * 0.0 + h * 0.0 + ... is 0.0 exactly when all are finite,
    since a finite value times 0.0 is +-0.0 and inf or NaN gives NaN.  In
    exact mode (exact = 1) _check_bits runs before every step instead.
    Only the level (the number of flows), the flows' monomials and the mode
    enter the text; every constant is an argument of make.
    """
    ks = range(2, len(flows) + 2)
    xs = [f"x{k}" for k in ks]
    state = ", ".join(["r", "h", *xs])
    coords = f"({', '.join(xs)},)" if xs else "()"

    def stage(s: int) -> list[str]:
        """The field at stage s, from h, x_k at s = 1 and from h_s, x_k_s after."""
        at = "" if s == 1 else f"_{s}"
        lines = [f"dr_{s} = rate_r * h{at}",
                 f"dh_{s} = -h{at} * h{at}" + (f" - coupling * x2{at}" if flows else "")]
        for k, monomials in zip(ks, flows):
            lines += lowered_source(monomials, f"dx{k}_{s}", lambda i: f"x{i}{at}", f"p{k}_", "zero")
            lines.append(f"dx{k}_{s} = dx{k}_{s} - rate{k} * h{at} * x{k}{at}")
        return lines

    def advance(s: int, by: str) -> list[str]:
        return [f"{v}_{s} = {v} + {by} * d{v}_{s - 1}" for v in ("h", *xs)]

    def combined(v: str) -> str:
        return f"{v} + sixth * (d{v}_1 + 2 * d{v}_2 + 2 * d{v}_3 + d{v}_4)"

    before, guard = [], "not abs(h) <= bound"
    if exact:
        before.append(f"check_bits(t0 + i * step, ({state},))")
    else:
        guard += " or not " + " + ".join(f"{v} * 0.0" for v in ("r", "h", *xs)) + " == 0.0"
    rates = [f"rate{k}" for k in ks]
    coeffs = [f"p{k}_{i}" for k, monomials in zip(ks, flows) for i in range(len(monomials))]
    bind = [f"{', '.join(names)}, = {packed}"
            for names, packed in ((rates, "rates"), (coeffs, "coeffs")) if names]
    rk4 = [*stage(1), *advance(2, "half"), *stage(2), *advance(3, "half"), *stage(3),
           *advance(4, "step"), *stage(4),
           f"{state} = {', '.join(combined(v) for v in ('r', 'h', *xs))}"]
    body = [
        "def make(rate_r, coupling, zero, half, step, sixth, rates, coeffs):",
        *(f"    {line}" for line in bind),
        "    def walk(out, nsteps, bound):",
        f"        t0, r, h, {coords} = out[-1]",
        "        for i in range(nsteps):",
        *(f"            {line}" for line in before),
        "            try:",
        *(f"                {line}" for line in rk4),
        "            except (OverflowError, ZeroDivisionError):",
        "                raise BlowUp(t0 + i * step, out) from None",
        "            t_next = t0 + (i + 1) * step",
        f"            if {guard}:",
        "                raise BlowUp(t_next, out)",
        f"            out.append(new(SystemState, (t_next, r, h, {coords})))",
        "        return out",
        "    return walk",
    ]
    return "\n".join(body) + "\n"


@lru_cache(maxsize=LOWERING_CACHE)
def _compiled(exact: int, flows: tuple[tuple[Mono, ...], ...]) -> Callable:
    """The make function of _source(flows, exact), compiled once per structure and mode.

    The key holds the mode as an int and monomial keys, all ints, and no
    coefficient or constant, so a hit can never hand one mode's or one
    closing's values to another (1 == 1.0 == Fraction(1) would, as a key).
    """
    namespace = {"BlowUp": BlowUp, "SystemState": SystemState, "new": tuple.__new__,
                 "check_bits": _check_bits}
    exec(compile(_source(flows, exact), "<heatode.systems lowering>", "exec"), namespace)
    return namespace["make"]


def vector_field(spec: SystemSpec, state: SystemState) -> tuple:
    """Right-hand side (dr, dh, dx_2, ..., dx_{n+1}) at a state, in the state's mode.

    The formulas of the module docstring, each constant converted once by
    the mode's number type; a zero flow gives 0 - 2k h x_k.
    """
    num, state, _ = _in_mode(spec, state)
    h, x = state.h, dict(enumerate(state.x, start=2))
    dh = -h * h
    if spec.n >= 1:
        dh = dh - num(spec.c / Q(2 * (1 + 2 * spec.delta))) * x[2]
    dx = [p.eval(x) - num(2 * k) * h * x[k] for k, p in enumerate(spec.flows, start=2)]
    return (num(-(Q(spec.delta) + Q(1, 2))) * h, dh, *dx)


def integrate_rk4(spec: SystemSpec, s0: SystemState, t_end, step,
                  h_bound=10 ** 8) -> list[SystemState]:
    """Classical fixed-step fourth-order trajectory from s0.t to t_end.

    Exact when the state, t_end and step are rational (the method is pure
    rational arithmetic); an exact state whose largest numerator or
    denominator exceeds EXACT_BITS bits raises ExactTooLarge before the
    next step.  Raises BlowUp when |h| exceeds h_bound or stops being a
    number, or when a float state stops being finite (so h_bound = inf
    still stops at an overflow), the expected signal of a movable pole;
    an OverflowError or ZeroDivisionError inside a step raises BlowUp at
    that step's start.  An h_bound that is not positive (NaN included),
    or a step count (t_end - t0) / step that is not finite or that rounds
    past MAX_STEPS, raises ValueError before the first step.  After the
    checks below, the constants are converted once (half and sixth are
    Q(1, 2) * step and Q(1, 6) * step, in float mode float(Q(1, 2)) * step
    and float(Q(1, 6)) * step) and the whole run is one call of the
    generated loop (see _source).
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
    if num is float and not math.isfinite(steps):
        raise ValueError(f"(t_end - t0) / step is {steps}, not a finite step count")
    nsteps = round(steps)
    if nsteps > MAX_STEPS:
        raise ValueError(f"(t_end - t0) / step asks for {nsteps} steps, "
                         f"past the bound of {MAX_STEPS} steps per run")
    if num is Q:
        off_grid = steps != nsteps
    else:
        off_grid = abs(nsteps * step - span) > 1e-9 * abs(step)
    if nsteps <= 0 or off_grid:
        raise ValueError("(t_end - t0) must be a positive multiple of step")
    rates = tuple(num(2 * k) for k in range(2, spec.n + 2))
    coeffs = tuple(num(c) for p in spec.flows for c in p.terms.values())
    coupling = num(spec.c / Q(2 * (1 + 2 * spec.delta))) if spec.n >= 1 else None
    make = _compiled(int(num is Q), tuple(tuple(p.terms) for p in spec.flows))
    walk = make(num(-(Q(spec.delta) + Q(1, 2))), coupling, num(0), Q(1, 2) * step, step,
                Q(1, 6) * step, rates, coeffs)
    return walk([s0], nsteps, h_bound)


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

        The q-th derivative is (1/b) sum_k (-1)^q q!/(t - a_k)^(q+1).  At a
        float t the poles and b are converted to float once: Fraction's
        arithmetic with a float converts both operands to float at every
        use, so the bits are the same.  The pole test stays exact, so a
        float t that rounds to a pole without equalling it divides by 0.0.
        """
        poles, b = self.poles, self.b
        if isinstance(t, float):
            poles, b = tuple(map(float, poles)), float(b)
        # float(a) is a rounded, so a float t can equal a only where it equals float(a)
        if any(p == t and a == t for p, a in zip(poles, self.poles)):
            raise PoleHit(f"t = {t} is a pole")
        out = []
        fact = 1
        sign = 1
        for q in range(max_order + 1):
            out.append(sum(sign * fact / (t - a) ** (q + 1) for a in poles) / b)
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
    share the same code.  A level outside 0..MAX_LEVEL raises ValueError
    before any member is built.
    """
    check_level(n)
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
    # X_k' = (derivative of q_k along the old flows) + c_k p_{k+1}, one derive, then back to X
    old_flows = dict(enumerate(spec.flows, start=2))
    new_flows = tuple(q.derive(old_flows, 0, ck, p).subst(inverse)
                      for p, ck, q in zip(spec.flows, scales, shears))
    return SystemSpec(spec.n, spec.delta, spec.c / scales[0] if scales else spec.c, new_flows)


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
