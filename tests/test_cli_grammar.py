"""The command-line grammar under hypothesis: every input ends in exit 0, 1 or 2, in bounded time.

cli.main runs in-process over drawn argument lists: levels, rationals, floats
with nan and inf, zero, negative, tiny and huge steps and spans, empty lists
and paths that cannot be written.  No example may raise out of main, and each
must finish within WALL_S.  Where the program bounds the work of a run, the
test predicts the cost from the input and expects exit 2 above the bound: the
RK4 step count against systems.MAX_STEPS, the monomial count of a series
against algebra.MAX_KEYS, the jet order of `sl2 orbit` against
mobius.MAX_ORDER and a level against algebra.MAX_LEVEL.  Jet orders are drawn
up to SMALL_ORDER, where a run stays fast, or past mobius.MAX_ORDER.  Levels
are drawn up to SMALL_LEVEL (closing_dim(14) = 54) or past algebra.MAX_LEVEL,
since a verify suite at a level near the bound runs for about 20 s.  `sl2
orbit` gets at most MAX_POLES poles (closing_dim(8) = 9), or more than
algebra.MAX_LEVEL + 1: n + 1 poles make a level-n pole sum.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heatode import algebra
from heatode.cli import main
from heatode.mobius import MAX_ORDER
from heatode.suites import SUITES
from heatode.systems import MAX_STEPS

WALL_S = 30          # seconds one example may take; the slowest admitted series take about 2
SMALL_LEVEL = 14
MAX_POLES = 9
SMALL_ORDER = 12
SETTINGS = settings(max_examples=40, deadline=None)

NUMBERS = ["0", "-0", "1", "2", "-1", "3", "1/3", "-7/2", "1/0", "0.25", "-0.5", "0.01", "1e-9",
           "1e-300", "1e300", "nan", "inf", "-inf", "", " ", "x", "1/100", "1/1000000000"]
numbers = st.one_of(st.sampled_from(NUMBERS), st.integers(-10 ** 6, 10 ** 6).map(str),
                    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-3, 50)))


def mostly(valid, other):
    """`valid` three draws in four, so that most examples run a command to its end."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else other)


rationals = mostly(st.integers(-9, 9).map(str) | st.builds("{}/{}".format, st.integers(-9, 9),
                                                           st.integers(1, 9)), numbers)
# the values each mode parses: state entries, then end times, then steps
VALID = {"float": (["0", "1", "2", "-1", "0.5", "0.25", "1e-3"], ["1", "0.5", "2"],
                   ["0.25", "0.01"]),
         "exact": (["0", "1", "2", "-1", "1/2", "1/4", "-3/5"], ["1", "1/2", "2"],
                   ["1/4", "1/100"])}
levels = mostly(st.integers(-3, SMALL_LEVEL), st.integers(algebra.MAX_LEVEL + 1, 10 ** 9))
names = st.one_of(st.integers(0, 60).map("p{}".format),
                  st.sampled_from(["c4", "c5", "c62", "c63", "c64", "q1", "p", "p-1", ""]))
entries = st.one_of(st.builds("{}={}".format, names, rationals),
                    st.sampled_from(["", "p0", "=1"]))
closings = mostly(st.dictionaries(st.integers(0, 5), rationals, max_size=3)
                  .map(lambda slots: ",".join(f"p{i}={v}" for i, v in slots.items())),
                  st.lists(entries, max_size=4).map(",".join))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """--out values: stdout, a file, a file in a missing folder, a folder."""
    root = tmp_path_factory.mktemp("grammar")
    return [None, str(root / "out.txt"), str(root / "missing" / "out.txt"), str(root)]


def run(argv):
    """main's exit code for argv, with its output captured; argparse's usage exit counts as one."""
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as usage:
            code = usage.code
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert elapsed < WALL_S, (argv, elapsed)
    return code


def with_options(data, outputs, argv, json=True):
    if json and data.draw(st.booleans()):
        argv.append("--json")
    out = data.draw(mostly(st.none(), st.sampled_from(outputs)))
    if out is not None:
        argv.append(f"--out={out}")
    return argv


def optional(data, option, values):
    value = data.draw(st.none() | values)
    return [] if value is None else [f"--{option}={value}"]


def series_size(variables, K):
    """The monomial count of a series over `variables` truncated at K, as the routes predict it."""
    table = [1] + [0] * K
    for part in variables:
        for s in range(part, K + 1):
            table[s] += table[s - part]
    return sum(table)


@SETTINGS
@given(data=st.data())
def test_ode_commands(outputs, data):
    n = data.draw(levels)
    argv = ["ode", data.draw(st.sampled_from(["print", "basis"])), f"--n={n}"]
    if argv[1] == "print":
        argv += optional(data, "p", closings)
    code = run(with_options(data, outputs, argv))
    assert code == 2 if n > algebra.MAX_LEVEL else code in (0, 2)


@SETTINGS
@given(data=st.data())
def test_series_commands(outputs, data):
    kind = data.draw(st.sampled_from(["phi", "table", "sigma", "psi"]))
    K = data.draw(st.integers(-3, 300))
    argv = ["series", kind, f"--K={K}"]
    if kind in ("phi", "table"):
        n = data.draw(mostly(st.integers(-2, 8), st.integers(algebra.MAX_LEVEL + 1, 10 ** 9)))
        argv += [f"--n={n}", f"--delta={data.draw(st.sampled_from(['0', '1', '2', '-1']))}"]
        argv += optional(data, "c", rationals) + optional(data, "p", closings)
        over = n > algebra.MAX_LEVEL or (n >= 0 and K >= 0
                                         and series_size(range(2, n + 2), K) > algebra.MAX_KEYS)
    elif kind == "psi":
        argv += optional(data, "seed-coeff", rationals)
        over = K >= 0 and series_size(range(1, 4), K) > algebra.MAX_KEYS
    else:
        over = False
    code = run(with_options(data, outputs, argv, json=False))
    assert code == 2 if over else code in (0, 2)


def predicted_steps(mode, t0, t_end, step):
    """round((t_end - t0) / step) as integrate_rk4 counts it, or None where it refuses the input."""
    try:
        if mode == "exact":
            t0, t_end, step = (Fraction(v) for v in (t0, t_end, step))
        else:
            t0, t_end, step = (float(v) for v in (t0, t_end, step))
        steps = (t_end - t0) / step
        return round(steps) if step > 0 else None
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


@SETTINGS
@given(data=st.data())
def test_integrate(outputs, data):
    n = data.draw(st.integers(-1, 4))
    mode = data.draw(st.sampled_from(["float", "exact"]))
    values, ends, steps = (st.sampled_from(valid) for valid in VALID[mode])
    state = data.draw(mostly(st.lists(values, min_size=n + 2, max_size=n + 2),
                             st.lists(numbers, max_size=n + 3)).map(",".join))
    junk = st.sampled_from(NUMBERS)
    t0, t_end, step = (data.draw(mostly(valid, junk))
                       for valid in (st.just("0"), ends, steps))
    argv = ["integrate", f"--n={n}", f"--mode={mode}", f"--state={state}", f"--t0={t0}",
            f"--t-end={t_end}", f"--step={step}"]
    argv += optional(data, "delta", mostly(st.sampled_from(["0", "1"]), st.just("2")))
    argv += optional(data, "p", closings)
    argv += optional(data, "guard", mostly(st.sampled_from(["1e8", "10", "inf"]),
                                           st.sampled_from(["0", "-1", "nan", "x"])))
    code = run(with_options(data, outputs, argv))
    steps = predicted_steps(mode, t0, t_end, step)
    assert code == 2 if steps is not None and steps > MAX_STEPS else code in (0, 2)


@SETTINGS
@given(data=st.data())
def test_verify(outputs, data):
    suite = data.draw(st.sampled_from(sorted(SUITES) + ["all", "none"]))
    argv = ["verify", suite, f"--seed={data.draw(st.integers(-2 ** 70, 2 ** 70))}"]
    max_n = data.draw(st.none() | levels)
    if max_n is not None:
        argv.append(f"--max-n={max_n}")
    code = run(with_options(data, outputs, argv))
    if max_n is not None and max_n > algebra.MAX_LEVEL:
        assert code == 2


@SETTINGS
@given(data=st.data())
def test_sl2_orbit(outputs, data):
    # a random matrix is almost never unimodular, so known ones are drawn as well
    mobius = data.draw(mostly(st.sampled_from(["1,0,0,1", "1,1/2,1/3,7/6", "0,-1,1,0", "2,1,1,1"]),
                              st.lists(numbers, min_size=3, max_size=5).map(",".join)))
    # up to MAX_POLES distinct integers, or, one draw in four, the poles 1..k past the level bound
    many = st.integers(algebra.MAX_LEVEL + 2, 3 * algebra.MAX_LEVEL).map(lambda k: range(1, k + 1))
    poles = data.draw(mostly(mostly(st.lists(st.integers(-20, 20), min_size=1, max_size=MAX_POLES,
                                             unique=True), many)
                             .map(lambda ps: ",".join(map(str, ps))),
                             st.lists(rationals, max_size=MAX_POLES).map(",".join)))
    argv = ["sl2", "orbit", f"--mobius={mobius}", f"--poles={poles}",
            f"--t={data.draw(rationals)}"]
    order = data.draw(st.none() | st.integers(-2, SMALL_ORDER)
                      | st.integers(MAX_ORDER + 1, 10 ** 9))
    if order is not None:
        argv.append(f"--order={order}")
    code = run(with_options(data, outputs, argv, json=False))
    past = poles.count(",") > algebra.MAX_LEVEL or (order is not None and order > MAX_ORDER)
    assert code == 2 if past else code in (0, 2)
