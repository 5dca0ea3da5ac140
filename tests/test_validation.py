"""Input validation: the closing check, integration inputs, the linear solver and CLI options."""

import json
import math
from fractions import Fraction as Q

import pytest

from heatode.algebra import (
    MAX_LEVEL, GradedPoly, WeightMismatch, check_closing, closing_dim, closing_from_coeffs,
    closing_monomials, mono, partition_count, solve_linear, unpack,
)
from heatode.cli import main
from heatode.heat import OutOfRange, conserved_integral, fundamental_psi, gaussian_halfwidth
from heatode.jets import (PARAM, JetPoly, _pole_det, closing_in_jets, family_ode,
                          head_tail_coefficients, hierarchy_ode, match_pole_ode,
                          necessary_pole_strength, pole_sum_ode)
from heatode.series import (ansatz_series, bare_series, coeff_table, default_c, hermite,
                            series_from_table, three_pole_flows)
from heatode.suites import run_suite
from heatode.systems import (BlowUp, PoleSum, SystemSpec, SystemState, integrate_rk4,
                             lift_jet, sigma_reduction, transform_system, vector_field,
                             weierstrass_system)

x1 = GradedPoly.variable(1)
x2 = GradedPoly.variable(2)
x3 = GradedPoly.variable(3)


# -- the closing validator ------------------------------------------------------

def test_reduced_rejects_closing_at_level_zero():
    # weight 4 = 2(0+2), but level 0 has no closing variables at all
    with pytest.raises(WeightMismatch):
        SystemSpec.reduced(0, closing=GradedPoly.variable(2))


BAD_CLOSINGS = [
    (2, x2 * x3),          # weight 10, level 2 wants 8
    (2, x1 * x1 * x2),     # weight 8, but uses x_1
    (2, x3 * x1),          # weight 8, but uses x_1
    (3, x2 * x2 * x1),     # weight 10, but uses x_1
    (1, x3),               # weight 6, but x_3 is beyond x_{n+1}
]


@pytest.mark.parametrize("n, closing", BAD_CLOSINGS)
def test_every_caller_rejects_bad_closing(n, closing):
    with pytest.raises(WeightMismatch):
        check_closing(n, closing)
    with pytest.raises(WeightMismatch):
        SystemSpec.reduced(n, closing=closing)
    with pytest.raises(WeightMismatch):
        family_ode(n, closing)
    with pytest.raises(WeightMismatch):
        ansatz_series(n, closing, Q(1), 0, 4)
    with pytest.raises(WeightMismatch):
        coeff_table(n, closing, Q(1), 0, 4)


@pytest.mark.parametrize("n", [-1, -2])
def test_every_caller_rejects_a_negative_level(capsys, n):
    for call in (lambda: check_closing(n, None), lambda: SystemSpec.reduced(n),
                 lambda: family_ode(n), lambda: ansatz_series(n, None, Q(1), 0, 4),
                 lambda: coeff_table(n, None, Q(1), 0, 4)):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            call()
    for command in ("phi", "table"):
        assert main(["series", command, "--n", str(n), "--K", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "n must be nonnegative" in captured.err


@pytest.mark.parametrize("n", [MAX_LEVEL + 1, 520, 10 ** 6])
def test_every_caller_rejects_a_level_past_the_bound(n):
    # each refuses before any partition count or hierarchy build, so each call returns at once
    for call in (lambda: check_closing(n, None), lambda: closing_monomials(n),
                 lambda: closing_dim(n), lambda: SystemSpec.reduced(n), lambda: family_ode(n),
                 lambda: pole_sum_ode(n, 2), lambda: match_pole_ode(n),
                 lambda: ansatz_series(n, None, Q(1), 0, 4), lambda: coeff_table(n, None, Q(1), 0, 4),
                 lambda: run_suite("dims", max_n=n), lambda: run_suite("detmatch", max_n=n)):
        with pytest.raises(ValueError, match=f"level {n} is past the bound of {MAX_LEVEL}"):
            call()


@pytest.mark.parametrize("delta", [-1, 2])
def test_every_caller_rejects_a_delta_other_than_0_or_1(delta):
    for call in (lambda: SystemSpec.reduced(2, delta), lambda: ansatz_series(2, None, Q(1), delta, 4),
                 lambda: coeff_table(2, None, Q(1), delta, 4)):
        with pytest.raises(ValueError, match="delta must be 0 or 1"):
            call()


# Each guard of a library entry point, with the typed error and the message it raises.
GUARDS = {
    "partition_count-negative": (lambda: partition_count(-1), ValueError, "m must be nonnegative"),
    "closing_monomials-negative": (lambda: closing_monomials(-1), ValueError,
                                   "n must be nonnegative"),
    "closing_dim-negative": (lambda: closing_dim(-1), ValueError, "n must be nonnegative"),
    "pole_sum_ode-negative": (lambda: pole_sum_ode(-1, 2), ValueError, "n must be nonnegative"),
    "pole_sum_ode-b-zero": (lambda: pole_sum_ode(2, 0), ValueError, "b must be nonzero"),
    "hierarchy_ode-zero": (lambda: hierarchy_ode(0), ValueError, "hierarchy starts at n = 1"),
    # the recursive builders refuse a member past the level bound before they recurse
    "hierarchy_ode-past-the-bound": (lambda: hierarchy_ode(MAX_LEVEL + 2), ValueError,
                                     f"level {MAX_LEVEL + 1} is past the bound of {MAX_LEVEL}"),
    "_pole_det-past-the-bound": (lambda: _pole_det(MAX_LEVEL + 3), ValueError,
                                 f"level {MAX_LEVEL + 1} is past the bound of {MAX_LEVEL}"),
    "closing_in_jets-x600": (lambda: closing_in_jets(GradedPoly.variable(600)), ValueError,
                             f"level 598 is past the bound of {MAX_LEVEL}"),
    "lift_jet-level-650": (lambda: lift_jet([0.1] * 700, 650), ValueError,
                           f"level 650 is past the bound of {MAX_LEVEL}"),
    "head_tail_coefficients-one": (lambda: head_tail_coefficients(1), ValueError,
                                   "defined for n > 1"),
    "necessary_pole_strength-zero": (lambda: necessary_pole_strength(0), ValueError,
                                     "n must be positive"),
    "PoleSum-b-zero": (lambda: PoleSum(Q(0), (Q(1),)), ValueError, "b must be nonzero"),
    "transform_system-rows": (lambda: transform_system(weierstrass_system(), [(Q(1), None)]),
                              ValueError, "expected 2 transform rows"),
    "sigma_reduction-case": (lambda: sigma_reduction(4), ValueError, "case must be 2 or 3"),
    "hermite-negative": (lambda: hermite(-1), ValueError, "k must be nonnegative"),
    "SystemSpec-flow-count": (lambda: SystemSpec(2, 0, Q(-2), (x3,)), ValueError,
                              "expected 2 flows, got 1"),
    "bare_series-no-flows": (lambda: bare_series([], x1, 2), ValueError,
                             "p_list must cover x_1..x_{n+1}"),
    "AnsatzSeries-coeff-past-K": (lambda: ansatz_series(2, None, Q(1), 0, 4).coeff(5), IndexError,
                                  "series truncated at K = 4"),
    "BareSeries-coeff-past-K": (lambda: bare_series(three_pole_flows(), x1, 3).coeff(4),
                                IndexError, "series truncated at K = 3"),
    "fundamental_psi-before-center": (lambda: fundamental_psi(1.0)(0.0, 0.5), OutOfRange,
                                      "is not beyond the center"),
    # a time that is not finite is refused by the sampler, a center that is not by the maker
    **{f"fundamental_psi-t-{label}": (lambda t=t: fundamental_psi(0.0, 1)(0.0, t), OutOfRange,
                                      "is not a finite time")
       for label, t in (("nan", math.nan), ("inf", math.inf), ("minus-inf", -math.inf))},
    # so is a point z that is not finite, at k = 0 as at k = 1
    **{f"fundamental_psi-z-{label}-k{k}": (lambda z=z, k=k: fundamental_psi(0.0, k)(z, 1.0),
                                           OutOfRange, "is not a finite point")
       for label, z in (("nan", math.nan), ("inf", math.inf), ("minus-inf", -math.inf))
       for k in (0, 1)},
    **{f"fundamental_psi-center-{label}": (lambda c=c: fundamental_psi(c), ValueError,
                                           "the center must be finite")
       for label, c in (("nan", math.nan), ("inf", math.inf), ("minus-inf", -math.inf))},
    # a half-width that is not positive and finite, before any trapezoidal sum
    **{f"conserved_integral-{label}": (lambda z=z: conserved_integral(fundamental_psi(0.0), 1.0, z),
                                       ValueError, "half_width must be positive and finite")
       for label, z in (("zero", 0.0), ("negative", -1.0), ("nan", math.nan),
                        ("inf", math.inf))},
    # a width that is not positive and finite, or a tol outside (0, 1), before any work
    **{f"gaussian_halfwidth-{label}": (lambda s=s, tol=tol, k=k: gaussian_halfwidth(s, tol, k),
                                       ValueError, "need a positive finite s and 0 < tol < 1")
       for label, s, tol, k in (("s-nan", math.nan, 1e-13, 0), ("s-inf", math.inf, 1e-13, 0),
                                ("s-zero", 0.0, 1e-13, 0), ("s-zero-k1", 0.0, 1e-13, 1),
                                ("s-negative", -1.0, 1e-13, 0), ("tol-zero", 1.0, 0.0, 0),
                                ("tol-one", 1.0, 1.0, 0), ("tol-two", 1.0, 2.0, 0),
                                ("tol-nan", 1.0, math.nan, 0))},
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_each_guard_raises_its_typed_error(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and message in str(caught.value)


def test_ansatz_series_needs_c_and_a_nonnegative_K():
    with pytest.raises(TypeError):  # c is required; None does not mean the default
        ansatz_series(2, None, None, 0, 4)
    # K = 0 and K = 1 hold no P_k: both routes give z^delta alone
    for n in (0, 1, 2, 4):
        closing = closing_from_coeffs(n, [1] * closing_dim(n)) if n >= 2 else None
        for delta in (0, 1):
            for K in (0, 1):
                c = default_c(delta)
                table = coeff_table(n, closing, c, delta, K)
                assert ansatz_series(n, closing, c, delta, K) == series_from_table(table)
    with pytest.raises(ValueError, match="K must be nonnegative"):
        ansatz_series(2, None, Q(1), 0, -1)


def test_closing_none_is_zero():
    for n in range(5):
        assert check_closing(n, None) == GradedPoly.zero()
        assert check_closing(n, GradedPoly.zero()) == GradedPoly.zero()
    for n in range(2, 6):
        p = GradedPoly({m: Q(i + 1) for i, m in enumerate(closing_monomials(n))})
        assert check_closing(n, p) is p


def test_bare_series_rejects_flow_outside_its_variables():
    # at n = 1 the series lives on x_1, x_2; nothing differentiates by x_3
    with pytest.raises(WeightMismatch):
        bare_series([x2, x3], x1.scale(Q(-1, 2)), 4)


def test_jet_json_round_trip_keeps_b():
    p = pole_sum_ode(0)  # h' + b*h^2
    assert any(q == PARAM for m in p.terms for q, _ in unpack(m))
    data = p.to_json()
    assert json.loads(json.dumps(data)) == data == {
        "degree": -8, "terms": [{"m": [[1, 1]], "c": "1"}, {"m": [[0, 2]], "c": "1", "b": 1}]}


def test_graded_json_lists_monomials_by_ascending_index():
    assert (x3 * x2).to_json() == {"weight": 10, "terms": [{"m": [[2, 1], [3, 1]], "c": "1"}]}


def test_gradings_never_compare_equal():
    assert JetPoly.zero() != GradedPoly.zero()
    assert JetPoly.one() != GradedPoly.one()
    assert JetPoly({mono({1: 1}): Q(1)}) != GradedPoly({mono({1: 1}): Q(1)})
    assert JetPoly.h(1) == JetPoly.variable(1)


# -- integrate_rk4 inputs ---------------------------------------------------------

EXACT = SystemState(Q(0), Q(0), Q(1), ())
FLOAT = SystemState(0.0, 0.0, 1.0, ())


@pytest.mark.parametrize("s0, t_end, step", [
    (EXACT, Q(0), Q(1, 4)), (EXACT, Q(-1), Q(1, 4)),
    (FLOAT, 0.0, 0.25), (FLOAT, -1.0, 0.25),
])
def test_rk4_rejects_empty_or_backward_span(s0, t_end, step):
    with pytest.raises(ValueError):
        integrate_rk4(SystemSpec.reduced(0), s0, t_end, step)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rk4_rejects_non_finite_input(bad):
    spec = SystemSpec.reduced(1)
    for s0 in (SystemState(0.0, 0.0, bad, (0.5,)), SystemState(0.0, 0.0, 1.0, (bad,)),
               SystemState(bad, 0.0, 1.0, (0.5,))):
        with pytest.raises(ValueError):
            integrate_rk4(spec, s0, 1.0, 0.25)
    with pytest.raises(ValueError):
        integrate_rk4(spec, SystemState(0.0, 0.0, 1.0, (0.5,)), bad, 0.25)


@pytest.mark.parametrize("x", [(), (0.5, 0.25)], ids=["too-few", "too-many"])
def test_wrong_coordinate_count_is_rejected(x):
    spec, s0 = SystemSpec.reduced(1), SystemState(0.0, 0.0, 1.0, x)
    message = f"state has {len(x)} coordinates, spec wants 1"
    with pytest.raises(ValueError, match=message):
        vector_field(spec, s0)
    with pytest.raises(ValueError, match=message):
        integrate_rk4(spec, s0, 1.0, 0.25)


def test_rk4_nan_during_run_trips_guard():
    # x2 and x3 overflow against each other and make h NaN in the first step
    spec = SystemSpec.reduced(2)
    s0 = SystemState(0.0, 0.0, 0.0, (1e308, -1e308))
    with pytest.raises(BlowUp) as err:
        integrate_rk4(spec, s0, 0.01, 0.001)
    assert err.value.t_star == 0.001
    assert err.value.trajectory == [s0]


def test_rk4_overflow_in_a_step_trips_guard():
    # the float x2 ** 2 of the closing 24 x2^2 overflows in the first step's first field
    spec = SystemSpec.reduced(2, 1, closing=(x2 * x2).scale(24))
    s0 = SystemState(0.0, 0.0, 0.0, (1e200, 0.0))
    with pytest.raises(BlowUp) as err:
        integrate_rk4(spec, s0, 0.1, 0.1)
    assert err.value.t_star == 0.0
    assert err.value.trajectory == [s0]


# -- command-line options and errors ----------------------------------------------

def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("ode", "basis", "--n", "2", "--seed", "5"),
    ("ode", "basis", "--n", "2", "--mode", "exact"),
    ("series", "phi", "--n", "2", "--K", "4", "--seed", "5"),
    ("series", "psi", "--K", "2", "--seed", "5"),  # not an abbreviation of --seed-coeff
    ("verify", "dims", "--mode", "exact"),
    ("integrate", "--n", "0", "--state", "0,1", "--t-end", "1", "--step", "1/4",
     "--seed", "5"),
])
def test_seed_and_mode_only_where_used(argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2


@pytest.mark.parametrize("mode, t_end", [
    ("exact", "0"), ("exact", "-1"), ("float", "0"), ("float", "-1"),
])
def test_integrate_empty_span_exits_2(capsys, mode, t_end):
    code, captured = run(capsys, "integrate", "--n", "0", "--state", "0,1",
                         f"--t-end={t_end}", "--step", "1/4" if mode == "exact" else "0.25",
                         "--mode", mode)
    assert code == 2
    assert captured.out == ""


def test_integrate_nan_state_exits_2(capsys):
    code, captured = run(capsys, "integrate", "--n", "0", "--state", "0,nan",
                         "--t-end", "1", "--step", "0.25")
    assert code == 2
    assert "finite" in captured.err


def test_type_error_in_command_propagates(monkeypatch):
    import heatode.cli as cli

    def broken(n):
        raise TypeError("a bug, not a usage error")

    monkeypatch.setattr(cli, "closing_dim", broken)
    with pytest.raises(TypeError):
        main(["ode", "basis", "--n", "2"])


# -- the exact linear solver ----------------------------------------------------

def test_solve_linear_rejects_ragged_rows():
    # a short row used to be read as if padded, and [3, -1] came back
    with pytest.raises(ValueError):
        solve_linear([[1, 2], [3, 4, 5]], [1, 2])
    with pytest.raises(ValueError):
        solve_linear([[1, 2, 3], [4, 5]], [1, 2])


@pytest.mark.parametrize("rhs", [[1], [1, 2, 3], []])
def test_solve_linear_rejects_rhs_of_wrong_length(rhs):
    with pytest.raises(ValueError):
        solve_linear([[1, 0], [0, 1]], rhs)


def test_solve_linear_rejects_a_system_that_is_not_upper_unit_triangular():
    with pytest.raises(ValueError):
        solve_linear([[1, 0], [3, 1]], [1, 2])  # a nonzero entry below the diagonal
    with pytest.raises(ValueError):
        solve_linear([[1, 5], [0, 2]], [1, 2])  # a diagonal entry of 2
    with pytest.raises(ValueError):
        solve_linear([[1, 0], [0, 1], [0, 0]], [1, 2, 0])  # three rows, two columns
