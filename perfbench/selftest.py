"""Tests of the benchmark itself (not of heatode).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the tier-1 `pytest` collection; three
tests run the real command for one unit each, and the whole file takes
about 30 s.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import checkout

checkout.use_checkout_source()

import run  # noqa: E402
import workloads  # noqa: E402
from run import UnitRecord  # noqa: E402

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())

# Every metric the benchmark reports, with its unit.
END_TO_END = {"setup_s": "s", "wall_cal.p50": "cal", "wall_cal.tail": "cal", "peak_rss_mb": "MB"}
REPORT_ONLY = {"setup_raw_s": "s", "wall_s.p50": "s", "wall_s.tail": "s", "cal_s.p50": "s",
               "failed_ratio": "ratio"}
PER_LAYER = {
    **{f"{m}.self_s": "s" for m in (
        "algebra.solve_linear", "algebra.poly_mul", "algebra.poly_eval",
        "jets.match_pole_ode", "jets.hierarchy_ode", "jets.pole_sum_ode",
        "jets.closing_in_jets", "jets.jet_mul", "series.ansatz_series",
        "series.coeff_table", "series.series_from_table", "systems.integrate_rk4",
        "heat.series_heat_residual", "heat.grid_heat_residual",
        "mobius.act_on_psi", "mobius.transformed_h_jet")},
    **{f"suites.{s}.self_s": "s" for s in (
        "rational", "chazy", "phi-equiv", "sl2", "heat", "sigma", "hermite", "dims",
        "detmatch", "addendum")},
    **{m: "count" for m in (
        "algebra.solve_linear.calls", "algebra.solve_linear.cells", "algebra.poly_mul.calls",
        "algebra.poly_mul.term_pairs", "algebra.poly_eval.calls", "jets.jet_mul.calls",
        "jets.jet_mul.term_pairs", "series.coeff_table.entries",
        "systems.integrate_rk4.calls", "systems.integrate_rk4.steps",
        "systems.integrate_rk4.blowups", "systems.vector_field.calls", "heat.psi_calls",
        "trace.errors")},
    "algebra.coeff_bits.max": "bits",
    "systems.integrate_rk4.ref_error": "ratio",
    "systems.rk4.us_per_step": "us",
    "heat.trajectory.useful_step_ratio": "ratio",
    "cli.import_s": "s",
    "cli.ode_basis_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"jets.match_pole_ode.n{n:02d}_{t}": "s" for n in range(6, 17, 2) for t in ("s", "solve_s")},
    **{f"jets.match_pole_ode.n{n:02d}_{d}": "count" for n in range(6, 17, 2)
       for d in ("rows", "cols")},
    **{f"series.{f}.K{K}_s": "s" for f in ("ansatz_series", "coeff_table")
       for K in range(12, 33, 4)},
    **{f"systems.exact_rk4.steps{s}_s": "s" for s in range(1, 5)},
    **{f"systems.exact_rk4.steps{s}_bits": "bits" for s in range(1, 5)},
}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# -- inputs --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    make = workloads.WORKLOADS[name].make_input
    assert [make(5, i) for i in range(3)] == [make(5, i) for i in range(3)]
    assert [make(5, i) for i in range(3)] != [make(6, i) for i in range(3)]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


# -- output checks reject wrong outputs -------------------------------------------

def test_detmatch_check_rejects_perturbed_closing():
    levels = [3, 1, 4, 2]
    workloads.cold_caches()
    matches = workloads.detmatch_run(levels)
    assert workloads.detmatch_check(levels, matches)
    bad = dict(matches)
    bad[3] = dataclasses.replace(matches[3], closing=matches[3].closing.scale(2))
    assert not workloads.detmatch_check(levels, bad)
    assert not workloads.detmatch_check(levels + [5], matches)


def test_integrate_check_rejects_perturbed_final_state():
    cases = workloads.integrate_input(3, 0)
    finals = workloads.integrate_run(cases)
    assert workloads.integrate_check(cases, finals)
    assert workloads.integrate_max_error(cases, finals) < 1e-12
    s = finals[1]
    finals[1] = dataclasses.replace(s, h=s.h * (1 + 1e-7))
    assert not workloads.integrate_check(cases, finals)


def test_series_check_rejects_a_wrong_coefficient():
    case = workloads.series_input(3, 0)[:1]
    results = workloads.series_run(case)
    assert workloads.series_check(case, results)
    poly_route, table_route, residual = results[0]
    wrong = table_route.with_coeff(5, table_route.coeff(5).scale(3))
    assert not workloads.series_check(case, [(poly_route, wrong, residual)])


# -- failed units are counted, never timed ------------------------------------------

def test_failed_units_are_excluded_from_timing():
    records = [UnitRecord(0, 1.0, 0.5, True, False, 80.0),
               UnitRecord(1, 0.01, 0.5, False, False, 80.0),
               UnitRecord(2, 3.0, 0.5, True, False, 80.0)]
    metrics, _ = run.unit_metrics(records)
    assert metrics["wall_s.p50"][0] == 2.0
    assert metrics["wall_s.tail"][0] == 1.0
    assert metrics["wall_cal.p50"][0] == 4.0
    assert run.unit_metrics([dataclasses.replace(r, ok=False) for r in records]) == ({}, {})


def test_tail_has_ten_units_beyond_it():
    walls = [float(i) for i in range(40)]
    value, pct, beyond = run.tail(walls)
    assert (value, beyond) == (29.0, 10)
    assert pct == pytest.approx(100 * 29 / 39)
    assert run.tail([2.0, 1.0]) == (1.0, 0.0, 1)


def test_a_wrong_output_fails_the_run(monkeypatch, capsys):
    real = workloads.WORKLOADS["exact-series"]

    def perturbed(cases, results):
        poly_route, table_route, residual = results[0]
        wrong = table_route.with_coeff(7, table_route.coeff(7).scale(-1))
        return real.check(cases, [(poly_route, wrong, residual)] + results[1:])

    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "exact-series",
                        dataclasses.replace(real, check=perturbed))
    code = run.main(["--workload", "exact-series", "--seed", "2", "--seconds", "0",
                     "--trace", "0"])
    result = last_json_line(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
    assert "wall_s.p50" not in result["metrics"]


# -- every metric appears with its unit ------------------------------------------------

def test_benchmark_json_declares_every_metric():
    assert declared("end_to_end") == END_TO_END
    assert declared("per_layer") == PER_LAYER
    assert next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")["bound"] \
        == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_end_to_end_run_prints_every_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "exact-series", "--seed", "2", "--seconds", "0",
                     "--trace", "0"])
    out = capsys.readouterr().out
    result = last_json_line(out)
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in out.splitlines()[1:-1]}
    assert printed == {**END_TO_END, **REPORT_ONLY}


def test_traced_run_prints_every_layer_metric(capsys):
    code = run.main(["--workload", "exact-series", "--seed", "2", "--seconds", "0",
                     "--trace", "1"])
    result = last_json_line(capsys.readouterr().out)
    assert code == 0 and result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert result["metrics"]["series.coeff_table.entries"]["value"] > 0
    spans = Path(checkout.RESULTS / "exact-series-seed2-trace1-spans.jsonl").read_text()
    first = json.loads(spans.splitlines()[0])
    assert set(first) == {"id", "name", "unit", "parent", "start", "end"}
