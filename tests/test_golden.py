"""Exact command-line outputs compared byte for byte with committed goldens.

Each file in tests/golden/ is the stdout of one command with the JSON
timestamp line removed.  Only exact outputs are pinned: float digits depend
on the platform's libm.  To regenerate one after a deliberate change of output,
run the command and drop its `  "timestamp": ...` line, for example

    python -m heatode ode print --n 2 --json | grep -v '^  "timestamp": ' \\
        > tests/golden/ode_print_n2.out
"""

from pathlib import Path

import pytest

from heatode.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{f"ode_print_n{n}": ["ode", "print", "--n", str(n), "--json"] for n in range(2, 7)},
    # the text report of the closing basis, in the report order of closing_monomials
    "ode_basis_n6": ["ode", "basis", "--n", "6"],
    **{f"series_{kind}_n{n}_delta{d}": ["series", kind, "--n", str(n), "--delta", str(d),
                                       "--K", "12"]
       for kind in ("phi", "table") for n in (4, 6) for d in (0, 1)},
    # a fractional c and closing: the table's scaled recursion with D > 1
    **{f"series_{kind}_n4_delta1_c5_3": ["series", kind, "--n", "4", "--delta", "1",
                                         "--c", "5/3", "--p", "p0=1/2,p1=-3,p2=2/5",
                                         "--K", "10"]
       for kind in ("phi", "table")},
    "series_sigma_K12": ["series", "sigma", "--K", "12"],
    "series_psi_K10": ["series", "psi", "--K", "10"],
    # two steps of the README's level-2 example in exact rationals (a third step's
    # numerators pass the interpreter's 4300-digit limit for int -> str; test_cli checks it)
    "integrate_exact": ["integrate", "--n", "2", "--delta", "1", "--p", "c4=24",
                        "--state", "0,1/4,1/5,-3/20", "--t-end", "2/1000", "--step", "1/1000",
                        "--mode", "exact"],
    **{f"verify_{suite}": ["verify", suite, "--json"]
       for suite in ("rational", "chazy", "dims", "sigma", "hermite")},
    "verify_detmatch_n12": ["verify", "detmatch", "--max-n", "12", "--json"],
    # levels 7-10 of the pole-sum zero tests, pinned from the Fraction-jet path
    "verify_rational_n10_seed7": ["verify", "rational", "--max-n", "10", "--seed", "7", "--json"],
    # the README's orbit, and the same matrix on seven poles: the matched closing and its residual
    "sl2_orbit_n2": ["sl2", "orbit", "--mobius", "1,1/2,1/3,7/6", "--poles", "0,1,2", "--t", "5"],
    "sl2_orbit_n6": ["sl2", "orbit", "--mobius", "1,1/2,1/3,7/6", "--poles", "0,1,2,3,4,5,6",
                     "--t", "9"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_output_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith('  "timestamp": '))
    assert kept.encode() == (GOLDEN / f"{name}.out").read_bytes()
