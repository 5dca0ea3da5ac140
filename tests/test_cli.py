"""Command-line behaviour: output forms, exit codes, determinism."""

import argparse
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heatode import cli
from heatode.cli import main, parse_closing, parse_rational, CliError
from heatode.algebra import GradedPoly, Q, closing_monomials


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing helpers -----------------------------------------------------------

def test_parse_rational_rejects_floats():
    assert parse_rational("3/4") == Q(3, 4)
    with pytest.raises(CliError):
        parse_rational("0.5")
    with pytest.raises(CliError):
        parse_rational("1e-3")


def test_parse_closing_named_and_positional():
    c = parse_closing(2, "c4=24")
    assert c == GradedPoly({closing_monomials(2)[0]: Q(24)})
    c = parse_closing(4, "c62=-45,c63=-26,c64=-31")
    assert c.text() == "-45*x2^3 - 26*x3^2 - 31*x2*x4"
    assert parse_closing(4, "p0=-45,p1=-26,p2=-31") == c
    assert parse_closing(2, None) is None
    with pytest.raises(CliError):
        parse_closing(2, "c5=1")
    with pytest.raises(CliError):
        parse_closing(2, "24")


@pytest.mark.parametrize("text", ["c4=1,c4=2", "c4=1,p0=2"])
def test_closing_slot_given_twice_exits_2(capsys, text):
    # by its name twice, or by its name and its position
    with pytest.raises(CliError, match="second time"):
        parse_closing(2, text)
    code, out, err = run(capsys, "ode", "print", "--n", "2", "--p", text)
    assert code == 2
    assert out == "" and "second time" in err


# -- ode commands ----------------------------------------------------------------

def test_ode_print_chazy3_related(capsys):
    code, out, _ = run(capsys, "ode", "print", "--n", "2", "--p", "c4=24")
    assert code == 0
    assert out.strip() == "h''' + 12*h*h'' - 18*h'^2 = 0"


def test_ode_print_level_one(capsys):
    code, out, _ = run(capsys, "ode", "print", "--n", "1")
    assert code == 0
    assert out.strip() == "h'' + 6*h*h' + 4*h^3 = 0"


def test_ode_print_json(capsys):
    from heatode.jets import family_ode
    code, out, _ = run(capsys, "ode", "print", "--n", "2", "--p", "c4=24", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "ode print" and data["config"] == {"n": 2, "p": "c4=24"}
    assert data["text"] == "h''' + 12*h*h'' - 18*h'^2"
    assert data["ode"]["degree"] == -16
    assert data["ode"] == family_ode(2, parse_closing(2, "c4=24")).to_json()


def test_ode_print_bad_value_exits_2(capsys):
    code, _, err = run(capsys, "ode", "print", "--n", "2", "--p", "c4=bad")
    assert code == 2
    assert "error" in err


def test_ode_print_closing_outside_the_basis_exits_2(capsys):
    # level 4 has three closing slots, p0..p2
    code, out, err = run(capsys, "ode", "print", "--n", "4", "--p", "p3=1")
    assert code == 2
    assert out == "" and "coefficient 'p3' is outside the level-4 basis" in err


def test_ode_basis(capsys):
    code, out, _ = run(capsys, "ode", "basis", "--n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3
    assert [r["name"] for r in data["basis"]] == ["c62", "c63", "c64"]


# -- series commands ----------------------------------------------------------------

def test_series_phi_closed_form(capsys):
    code, out, _ = run(capsys, "series", "phi", "--n", "1", "--delta", "0", "--K", "6")
    assert code == 0
    data = json.loads(out)["series"]
    coeffs = {c["k"]: c["poly"]["terms"] for c in data["coeffs"]}
    assert coeffs[2] == [{"m": [[2, 1]], "c": "-2"}]
    assert coeffs[4] == [{"m": [[2, 2]], "c": "60"}]
    assert coeffs[3] == []


def test_series_table_nonnegative_integers(capsys):
    code, out, _ = run(capsys, "series", "table", "--n", "2", "--c", "2",
                       "--delta", "0", "--p", "p0=1", "--K", "8")
    assert code == 0
    entries = json.loads(out)["series"]["entries"]
    values = [Q(e["a"]) for e in entries]
    assert values and all(v >= 0 and v.denominator == 1 for v in values)


def test_series_sigma(capsys):
    code, out, _ = run(capsys, "series", "sigma", "--K", "3")
    assert code == 0
    data = json.loads(out)["series"]
    k2 = next(c for c in data["coeffs"] if c["k"] == 2)
    assert k2["poly"]["terms"] == [{"m": [[2, 1]], "c": "-1/2"}]


def test_series_psi(capsys):
    code, out, _ = run(capsys, "series", "psi", "--K", "3")
    assert code == 0
    data = json.loads(out)["series"]
    k1 = next(c for c in data["coeffs"] if c["k"] == 1)
    assert k1["poly"]["terms"] == [{"m": [[1, 1]], "c": "-1/2"}]


@pytest.mark.parametrize("argv", [
    ("series", "table", "--n", "2", "--K", "-1"),
    ("series", "sigma", "--K", "-2"),
    ("series", "psi", "--K", "-3"),
])
def test_series_negative_K_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "K must be nonnegative" in err


@pytest.mark.parametrize("kind, key, body", [
    ("phi", "coeffs", []),                          # no P_k
    ("table", "entries", [{"J": [0, 0], "a": "1"}]),  # only the weight-0 entry a(0) = 1
])
def test_series_at_K_1_is_z_delta_alone(capsys, kind, key, body):
    code, out, _ = run(capsys, "series", kind, "--n", "2", "--K", "1")
    assert code == 0
    data = json.loads(out)["series"]
    assert data["K"] == 1 and data[key] == body


@pytest.mark.parametrize("argv", [
    ("series", "phi", "--n", "2", "--K", "4"),
    ("series", "table", "--n", "2", "--K", "4"),
    ("series", "sigma", "--K", "2"),
    ("series", "psi", "--K", "2"),
    ("sl2", "orbit", "--mobius", "1,0,0,1", "--poles", "0", "--t", "3"),
])
def test_json_is_not_offered_where_the_output_is_always_json(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)
    with pytest.raises(SystemExit) as err:
        main([*argv, "--json"])
    assert err.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("table", "--n", "6", "--K", "255"),
                                  ("phi", "--n", "6", "--K", "200"),
                                  ("psi", "--K", "127")])
def test_series_past_the_size_bound_exits_2_before_any_work(argv):
    # these would hold 10^8, 2.6 * 10^7 and 6 * 10^4 monomials; the count is made
    # without building one.  A fresh process with a timeout, so a run that does
    # start fails the test instead of hanging it
    from heatode.algebra import MAX_KEYS
    done = run_python("-m", "heatode", "series", *argv, timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and f"past the bound of {MAX_KEYS}" in done.stderr


def test_series_past_the_largest_exponent_exits_2(capsys):
    # at n = 1 the series coefficient P_K holds x2^(K/2): 127 fits a key's field, 128 does not
    code, out, _ = run(capsys, "series", "phi", "--n", "1", "--K", "254")
    assert code == 0
    assert [t["m"] for t in json.loads(out)["series"]["coeffs"][-1]["poly"]["terms"]] == [[[2, 127]]]
    code, out, err = run(capsys, "series", "phi", "--n", "1", "--K", "256")
    assert code == 2
    assert out == "" and "exponent past 127, the largest a monomial key holds" in err


def test_series_table_past_the_largest_exponent_exits_2(capsys):
    # the table holds x2^(K // 2) at n = 1 as the series does, and refuses it past 127 before filling
    code, out, _ = run(capsys, "series", "table", "--n", "1", "--K", "255")
    assert code == 0
    assert json.loads(out)["series"]["entries"][-1]["J"] == [127]
    for K in ("256", "300"):
        code, out, err = run(capsys, "series", "table", "--n", "1", "--K", K)
        assert code == 2
        assert out == "" and "past 127, the largest exponent a monomial key holds" in err


# -- integrate ------------------------------------------------------------------------

def test_integrate_level_zero_accuracy(capsys):
    code, out, _ = run(capsys, "integrate", "--n", "0", "--state", "0,1",
                       "--t-end", "1", "--step", "0.05")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,r,h"
    last = lines[-1].split(",")
    assert abs(float(last[0]) - 1.0) < 1e-12
    assert abs(float(last[2]) - 0.5) < 1e-7  # exact solution 1/(t+1)


def test_integrate_exact_mode(capsys):
    code, out, _ = run(capsys, "integrate", "--n", "0", "--state", "0,1",
                       "--t-end", "1/2", "--step", "1/4", "--mode", "exact")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert all("/" in row or row.endswith("1") or row.endswith("0") for row in rows)
    assert rows[-1].startswith("1/2,")


def test_integrate_exact_mode_rejects_decimal_step(capsys):
    code, _, err = run(capsys, "integrate", "--n", "0", "--state", "0,1",
                       "--t-end", "1", "--step", "0.25", "--mode", "exact")
    assert code == 2


def test_integrate_rejects_a_state_of_the_wrong_length(capsys):
    code, out, err = run(capsys, "integrate", "--n", "1", "--state", "0,1",
                         "--t-end", "1", "--step", "0.1")
    assert code == 2
    assert out == "" and "state needs r,h and 1 coordinates" in err


def test_integrate_exact_mode_refuses_a_state_over_the_bit_bound(capsys):
    from heatode.systems import EXACT_BITS
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the denominator below has about 9900 digits
    try:
        code, out, err = run(capsys, "integrate", "--n", "0", "--state", f"0,1/{2 ** EXACT_BITS}",
                             "--t-end", "1", "--step", "1", "--mode", "exact")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == "" and "float mode" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["csv", "json"])
def test_integrate_exact_mode_prints_a_state_past_the_digit_limit(capsys, json_flag):
    # three steps of the README's level-2 example: the state outgrows the 4300-digit
    # limit on int strings, which still holds once the output is written
    from heatode.systems import SystemSpec, SystemState, integrate_rk4
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "integrate", "--n", "2", "--delta", "1", "--p", "c4=24",
                         "--state", "0,1/4,1/5,-3/20", "--t-end", "3/1000", "--step", "1/1000",
                         "--mode", "exact", *json_flag)
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    spec = SystemSpec.reduced(2, delta=1, closing=parse_closing(2, "c4=24"))
    s0 = SystemState(Q(0), Q(0), Q(1, 4), (Q(1, 5), Q(-3, 20)))
    last = integrate_rk4(spec, s0, Q(3, 1000), Q(1, 1000), h_bound=1e8)[-1]
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(v) for v in last.row()]
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(map(len, expected)) > limit
    rows = json.loads(out)["rows"] if json_flag else [line.split(",") for line in out.splitlines()]
    assert rows[-1] == expected


def test_a_rational_over_the_digit_limit_gets_a_short_error(capsys):
    code, out, err = run(capsys, "integrate", "--n", "0", "--state", "0,1/1" + "0" * 9864,
                         "--t-end", "1", "--step", "1", "--mode", "exact")
    assert code == 2
    assert out == "" and len(err) < 200 and "4300" in err


@pytest.mark.parametrize("guard", ["nan", "0", "-1"])
def test_integrate_rejects_a_guard_that_is_not_positive(capsys, guard):
    code, out, err = run(capsys, "integrate", "--n", "0", "--state", "0,1",
                         "--t-end", "1", "--step", "0.1", f"--guard={guard}")
    assert code == 2
    assert out == "" and "bound" in err


def test_integrate_rejects_an_infinite_step_count(capsys):
    # 1e300 / 1e-300 overflows to inf, which no round() turns into a step count
    code, out, err = run(capsys, "integrate", "--n", "2", "--state", "1,2,3,4",
                         "--t-end", "1e300", "--step", "1e-300")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "finite step count" in err


def test_integrate_refuses_a_step_count_past_the_bound():
    # 10^9 steps would run for minutes and keep every state; the bound refuses
    # them before the first step.  A fresh process with a timeout, so a run that
    # does start fails the test instead of hanging it
    from heatode.systems import MAX_STEPS
    assert 1 / 1e-9 > MAX_STEPS >= 5000
    done = run_python("-m", "heatode", "integrate", "--n", "2", "--state", "1,2,3,4",
                      "--t-end", "1", "--step", "1e-9", timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and f"past the bound of {MAX_STEPS} steps" in done.stderr


def test_integrate_blowup_metadata(capsys):
    code, out, _ = run(capsys, "integrate", "--n", "0", "--state", "0,-1",
                       "--t-end", "2", "--step", "0.001", "--guard", "1e6", "--json")
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert meta["blowup_t"] is not None
    assert 0.9 < float(meta["blowup_t"]) < 1.1


def test_integrate_infinite_guard_stops_at_a_non_finite_state(capsys):
    # h overflows to -inf past t = 1; with --guard inf the run still stops there
    code, out, _ = run(capsys, "integrate", "--n", "0", "--state", "0,-1",
                       "--t-end", "2", "--step", "0.01", "--guard", "inf", "--json")
    assert code == 0
    report = json.loads(out)
    assert 1.0 < float(report["metadata"]["blowup_t"]) < 1.1
    assert all(math.isfinite(v) for row in report["rows"] for v in row)


def test_integrate_csv_ends_with_the_blowup_line(capsys):
    code, out, _ = run(capsys, "integrate", "--n", "0", "--state", "0,-1",
                       "--t-end", "2", "--step", "0.001", "--guard", "1e6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,r,h"
    assert lines[-1].startswith("# blowup at t = ")
    assert 0.9 < float(lines[-1].rsplit(" ", 1)[1]) < 1.1
    assert not any(line.startswith("#") for line in lines[:-1])


# -- verify ---------------------------------------------------------------------------

def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "dims", "--n", "8")
    assert code == 0
    assert "PASS" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        run(capsys, "verify", "nonsense")
    assert err.value.code == 2


def test_run_suite_names_the_known_suites_for_an_unknown_one():
    from heatode import suites
    with pytest.raises(suites.UnknownSuite) as err:
        suites.run_suite("nonsense")
    assert "'nonsense'" in str(err.value)
    assert ", ".join(sorted(suites.SUITES)) in str(err.value)


def test_verify_all_runs_every_suite_in_order(capsys):
    from heatode.suites import SUITES
    code, out, _ = run(capsys, "verify", "all", "--seed", "7", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "all" and report["passed"]
    assert [sub["suite"] for sub in report["reports"]] == list(SUITES)
    assert all(sub["passed"] for sub in report["reports"])


@pytest.mark.parametrize("seed", [0, 5])
def test_every_case_is_one_record(seed):
    # each case carries a str name, a known mode and a bool verdict, and a suite
    # passes exactly when it has cases and each of them passes
    from heatode.suites import run_all
    for report in run_all(seed)["reports"]:
        cases = report["cases"]
        for c in cases:
            assert isinstance(c["case"], str)
            assert c["mode"] in ("exact", "float", "symbolic", "numeric")
            assert isinstance(c["pass"], bool)
        assert report["passed"] == (bool(cases) and all(c["pass"] for c in cases))


def test_verify_all_text_report_lists_every_suite(capsys):
    from heatode.suites import SUITES
    code, out, _ = run(capsys, "verify", "all", "--seed", "7")
    assert code == 0
    assert out.strip().splitlines() == ["suite all: PASS"] + [f"  {name}: PASS" for name in SUITES]


def test_verify_failure_exits_one(capsys, monkeypatch):
    import heatode.cli as cli
    monkeypatch.setattr(cli, "run_suite",
                        lambda name, seed=0, **kw: {"suite": name, "seed": seed,
                                                    "passed": False, "cases": []})
    code, out, _ = run(capsys, "verify", "dims")
    assert code == 1
    assert "FAIL" in out


def test_verify_detmatch_reports_constants(capsys):
    code, out, _ = run(capsys, "verify", "detmatch", "--n", "4", "--json")
    assert code == 0
    report = json.loads(out)
    by_case = {c["case"]: c for c in report["cases"]}
    assert by_case["detmatch-n2"]["closing"] == "-3*x2^2"
    assert by_case["detmatch-n4"]["closing"] == "-45*x2^3 - 26*x3^2 - 31*x2*x4"


def test_verify_detmatch_fails_on_an_unmatched_level(capsys, monkeypatch):
    from heatode import suites
    from heatode.jets import PoleMatch, hierarchy_ode
    # a level with no closing and a nonzero residual, as an inconsistent match reports it
    monkeypatch.setattr(suites, "match_pole_ode",
                        lambda n: PoleMatch(n, Q(n + 1), None, hierarchy_ode(n + 1)))
    report = suites.run_suite("detmatch", max_n=3)
    assert report["passed"] is False
    assert not any(c["pass"] for c in report["cases"])
    assert all(c["matched"] is False and c["residual"] != "0" for c in report["cases"])
    code, out, _ = run(capsys, "verify", "detmatch", "--n", "3", "--json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_sl2_fails_on_a_nan_gap(capsys, monkeypatch):
    from heatode import suites
    monkeypatch.setattr(suites, "act_on_psi", lambda *args: math.nan)
    report = suites.run_suite("sl2")
    square = next(c for c in report["cases"] if c["case"] == "state-vs-solution")
    assert math.isnan(square["max_gap"]) and square["pass"] is False
    assert report["passed"] is False


def test_verify_sigma_fails_on_a_wrong_reduction(capsys, monkeypatch):
    from heatode import systems
    from heatode.algebra import closing_from_coeffs
    # every change of variables lands on a reduced system with the wrong closing constant
    monkeypatch.setattr(systems, "transform_system", lambda spec, rows: systems.SystemSpec.reduced(
        spec.n, 1, closing_from_coeffs(spec.n, [1])))
    code, out, _ = run(capsys, "verify", "sigma", "--json")
    assert code == 1
    report = json.loads(out)
    passes = {c["case"]: c["pass"] for c in report["cases"]}
    assert passes == {"second-operator": True, "scaling-operator": True,
                      "bridge-to-level-two": True, "system-reductions": False}
    assert report["passed"] is False
    code, out, _ = run(capsys, "verify", "sigma")
    assert code == 1
    assert out.startswith("suite sigma: FAIL") and "[FAIL] system-reductions" in out


def test_verify_sigma_fails_on_a_wrong_second_operator(capsys, monkeypatch):
    from heatode import series, suites
    # l2 with g2^2/2 in place of g2^2/3 at d/dg3: the operator the suite checks
    # is wrong, while the series is built from its own field and stays right
    g2, g3 = GradedPoly.variable(2), GradedPoly.variable(3)
    wrong = lambda p: p.derive({2: g3.scale(6), 3: (g2 * g2).scale(Q(1, 2))})
    monkeypatch.setattr(series, "sigma_l2", wrong)
    monkeypatch.setattr(suites, "sigma_l2", wrong)
    code, out, _ = run(capsys, "verify", "sigma", "--json")
    assert code == 1
    report = json.loads(out)
    passes = {c["case"]: c["pass"] for c in report["cases"]}
    assert passes == {"second-operator": False, "scaling-operator": True,
                      "bridge-to-level-two": True, "system-reductions": True}


def test_verify_phi_equiv_fails_when_the_routes_disagree(capsys, monkeypatch):
    from heatode import suites
    table_series = suites.series_from_table

    def bumped(table):
        # the discrete route's P_3 gains x3, which the polynomial route does not have
        series = table_series(table)
        return series.with_coeff(3, series.coeff(3) + GradedPoly.variable(3))

    monkeypatch.setattr(suites, "series_from_table", bumped)
    report = suites.run_suite("phi-equiv", max_n=2)
    passes = {c["case"]: c["pass"] for c in report["cases"]}
    cross = [case for case in passes if case.startswith("cross-oracle-")]
    assert len(cross) == 4 and not any(passes[case] for case in cross)
    assert all(passes[case] for case in passes if case not in cross)
    assert report["passed"] is False
    code, out, _ = run(capsys, "verify", "phi-equiv", "--max-n", "2", "--json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_json_is_strict_on_non_finite_floats(capsys, monkeypatch):
    def reject(token):
        raise ValueError(f"bare {token} in the JSON")

    from heatode import suites
    monkeypatch.setattr(suites, "act_on_psi", lambda *args: math.nan)
    code, out, _ = run(capsys, "verify", "sl2", "--json")
    assert code == 1
    report = json.loads(out, parse_constant=reject)
    square = next(c for c in report["cases"] if c["case"] == "state-vs-solution")
    assert square["max_gap"] == "NaN"
    cli._emit(argparse.Namespace(out=None), {"up": math.inf, "down": [-math.inf, 1.5]})
    assert json.loads(capsys.readouterr().out, parse_constant=reject) == \
        {"up": "Infinity", "down": ["-Infinity", 1.5]}


LEVELLED = ("rational", "phi-equiv", "dims", "detmatch")
DRAWING = ("rational", "phi-equiv", "sl2", "heat", "addendum")


def test_suites_take_rng_only_if_they_draw_and_max_n_only_with_levels():
    from heatode import suites
    for name, suite in suites.SUITES.items():
        expect = ["rng"] * (name in DRAWING) + ["max_n"] * (name in LEVELLED)
        assert list(inspect.signature(suite).parameters) == expect, name
    assert len(suites.run_suite("dims", max_n=3)["cases"]) == 4
    with pytest.raises(ValueError):
        suites.run_suite("chazy", max_n=3)


def test_suites_that_draw_nothing_give_the_same_cases_at_every_seed():
    from heatode import suites
    for name in sorted(set(suites.SUITES) - set(DRAWING)):
        reports = [suites.run_suite(name, seed=seed) for seed in (0, 9)]
        assert [r["seed"] for r in reports] == [0, 9], name
        assert reports[0]["cases"] == reports[1]["cases"], name


def test_verify_max_n_without_levels_exits_two(capsys):
    for suite in sorted(set(cli.SUITES) - set(LEVELLED)) + ["all"]:
        code, out, err = run(capsys, "verify", suite, "--max-n", "3", "--json")
        assert code == 2, suite
        assert out == "" and err.startswith("error: ") and "max" in err


def test_verify_empty_level_range_fails(capsys):
    # a span with no level is a usage error, not a failed verification
    for suite, max_n in (("detmatch", "0"), ("rational", "-1"), ("dims", "-5"),
                         ("phi-equiv", "0")):
        code, out, err = run(capsys, "verify", suite, "--max-n", max_n)
        assert code == 2, suite
        assert out == "" and err.startswith(f"error: max_n {max_n} is below"), suite
    code, out, _ = run(capsys, "verify", "rational", "--max-n", "0")
    assert code == 0 and out.startswith("suite rational: PASS")


def test_verify_report_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "rational", "--n", "3",
                           "--seed", "11", "--json")
        assert code == 0
        data = json.loads(out)
        del data["timestamp"]
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


# -- sl2 ---------------------------------------------------------------------------------

def test_sl2_orbit_zero_residual(capsys):
    code, out, _ = run(capsys, "sl2", "orbit", "--mobius", "1,1/2,1/3,7/6",
                       "--poles", "0,1,2", "--t", "5")
    assert code == 0
    data = json.loads(out)
    assert data["residual"] == "0"
    assert data["closing"] == "-3*x2^2"


def test_sl2_orbit_level_zero_residual(capsys):
    # one pole: the transformed h solves the Riccati member h' + h^2 = 0, with no closing
    code, out, _ = run(capsys, "sl2", "orbit", "--mobius", "1,1/2,1/3,7/6",
                       "--poles", "0", "--t", "5")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 0 and data["residual"] == "0" and "closing" not in data
    h, dh = (Q(v) for v in data["jet"])
    assert dh == -h * h


def test_sl2_orbit_rejects_a_mobius_of_the_wrong_arity(capsys):
    code, out, err = run(capsys, "sl2", "orbit", "--mobius", "1,0,1",
                         "--poles", "0", "--t", "3")
    assert code == 2
    assert out == "" and "four rationals" in err


def test_sl2_orbit_short_jet_skips_the_match(capsys, monkeypatch):
    # a jet shorter than the level-n member needs no closing: no match is computed
    argv = ("sl2", "orbit", "--mobius", "1,1/2,1/3,7/6", "--poles", "0,1,2", "--t", "5")
    full = json.loads(run(capsys, *argv)[1])

    def no_match(n):
        raise AssertionError("match_pole_ode called for a short jet")

    monkeypatch.setattr(cli, "match_pole_ode", no_match)
    code, out, _ = run(capsys, *argv, "--order", "2")
    assert code == 0
    data = json.loads(out)
    assert data["jet"] == ["-23/44", "-2643/1936", "-226543/42592"] == full["jet"][:3]
    assert "closing" not in data and "residual" not in data
    same = ("command", "config", "mobius", "n", "t")
    assert {k: data[k] for k in same} == {k: full[k] for k in same}


def test_sl2_orbit_rejects_non_unimodular(capsys):
    code, _, err = run(capsys, "sl2", "orbit", "--mobius", "2,0,0,1",
                       "--poles", "0", "--t", "3")
    assert code == 2
    assert "determinant" in err


def test_sl2_orbit_rejects_a_negative_order(capsys):
    code, out, err = run(capsys, "sl2", "orbit", "--mobius", "1,1/2,1/3,7/6",
                         "--poles", "0,1,2", "--t", "5", "--order", "-2")
    assert code == 2
    assert out == "" and "order" in err


def test_sl2_orbit_refuses_a_jet_order_past_the_bound():
    # order 1000 would run for about 45 s; the bound refuses it before any jet.
    # A fresh process with a timeout, so a run that does start fails the test
    # instead of hanging it
    from heatode.mobius import MAX_ORDER
    assert 1000 > MAX_ORDER
    done = run_python("-m", "heatode", "sl2", "orbit", "--mobius", "1,0,0,1", "--poles", "1",
                      "--t", "2", "--order", "1000", timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and f"in 0..{MAX_ORDER}" in done.stderr


@pytest.mark.parametrize("argv", [("ode", "basis", "--n", "70"),
                                  ("ode", "print", "--n", "520"),
                                  ("verify", "dims", "--max-n", "300"),
                                  ("sl2", "orbit", "--mobius", "1,0,0,1",
                                   "--poles", ",".join(map(str, range(1, 31))), "--t", "100")])
def test_a_level_past_the_bound_exits_2_before_any_work(argv):
    # without the bound the first three ran past 10 s or, at level 520, ended in a
    # RecursionError, and 30 poles would match at level 29.  A fresh process with a
    # timeout, so a run that does start fails the test instead of hanging it
    from heatode.algebra import MAX_LEVEL
    done = run_python("-m", "heatode", *argv, timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and f"past the bound of {MAX_LEVEL}" in done.stderr


def test_the_level_bound_admits_every_level_in_use(capsys):
    # verify detmatch --max-n 26 is the highest level the README runs
    from heatode.algebra import MAX_LEVEL
    assert MAX_LEVEL >= 26
    code, out, _ = run(capsys, "ode", "basis", "--n", str(MAX_LEVEL))
    assert code == 0 and out.startswith(f"level n={MAX_LEVEL}: dim = ")
    for argv in (("ode", "basis", "--n"), ("verify", "dims", "--max-n")):
        code, out, err = run(capsys, *argv, str(MAX_LEVEL + 1))
        assert (code, out) == (2, "") and f"level {MAX_LEVEL + 1} is past the bound" in err


def test_sl2_orbit_at_a_pole_of_the_action_exits_2(capsys):
    # c t + d = t + 1 vanishes at t = -1
    code, out, err = run(capsys, "sl2", "orbit", "--mobius", "1,0,1,1",
                         "--poles", "0,1", "--t=-1")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "vanishes" in err


def test_sl2_orbit_at_a_pole_of_the_solution_exits_2(capsys):
    # the identity sends t = 1 to itself, a pole of the pole sum
    code, out, err = run(capsys, "sl2", "orbit", "--mobius", "1,0,0,1",
                         "--poles", "0,1", "--t", "1")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "pole" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "dims", "--n", "5", "--json",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"]


def test_an_out_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "report.txt"):
        code, out, err = run(capsys, "ode", "basis", "--n", "2", "--out", str(target))
        assert code == 2
        assert out == "" and err.startswith(f"error: cannot write {str(target)!r}: ")


# -- the package as a program ----------------------------------------------------

def checkout_env():
    """The environment with this checkout's src/ first on the import path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args, timeout=120):
    """A fresh interpreter that imports heatode from this checkout."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=checkout_env(), timeout=timeout)


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "heatode", "ode", "basis", "--n", "4")
    assert done.returncode == 0, done.stderr
    assert "dim = 3" in done.stdout


def test_a_closed_pipe_ends_the_run_quietly():
    # the output (about 100 kB) overfills the pipe, so the reader's close
    # reaches a write in progress
    with subprocess.Popen([sys.executable, "-m", "heatode", "series", "sigma", "--K", "60"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=checkout_env()) as proc:
        assert len(proc.stdout.read(300)) == 300
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


def test_import_loads_only_the_standard_library():
    # heatode.cli loads every module of the package; modules loaded at
    # startup (.pth hooks such as _distutils_hack) are not heatode's
    script = """
import json, sys
before = set(sys.modules)
import heatode.cli
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(new - set(sys.stdlib_module_names) - {"heatode"})))
"""
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_conservation_integrals_run_without_scipy():
    # a None entry makes any import of scipy fail
    script = """
import math, sys
sys.modules["scipy"] = None
from heatode.heat import conserved_integral, fundamental_psi, gaussian_halfwidth
Z = gaussian_halfwidth(4.0)
value = conserved_integral(fundamental_psi(0.0), 2.0, Z)
assert abs(value - math.sqrt(2 * math.pi)) < 1e-10, value
for k in (1, 2, 3):
    assert abs(conserved_integral(fundamental_psi(0.0, k), 2.0, Z)) < 1e-10
print("ok")
"""
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
