"""Command-line surface: generation, integration and verification runs.

Commands
--------
  ode print      expanded family member for a level and closing
  ode basis      the closing-coefficient names and monomials at a level
  series phi     series coefficients by the polynomial recursion
  series table   scalar coefficients by the discrete recursion
  series sigma   Weierstrass sigma Taylor coefficients
  series psi     the wide-ansatz three-pole example series
  integrate      fixed-step trajectory of the reduced system (CSV/JSON)
  verify         run a named verification suite (exit 1 on failure)
  sl2 orbit      transformed jet of a pole-sum solution under a matrix

Exit codes: 0 success, 1 verification failure, 2 usage or validation
error.  A reader that closes the output pipe early ends the run with exit
1 and nothing on stderr, as the Python docs' note on SIGPIPE advises.
All reports are reproducible: the same configuration yields the same
bytes up to the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

from .algebra import GradedPoly, Q, closing_dim, closing_from_coeffs, closing_monomials, mono_text
from .jets import family_ode, hierarchy_ode, match_pole_ode
from .series import ansatz_series, bare_series, coeff_table, sigma_series, three_pole_flows
from .systems import BlowUp, PoleHit, SystemSpec, SystemState, default_c, integrate_rk4, pole_sum
from .mobius import Mobius, PoleOfAction, transformed_h_jet
from .suites import SUITES, run_all, run_suite

CLOSING_NAMES = {2: ["c4"], 3: ["c5"], 4: ["c62", "c63", "c64"]}


class CliError(ValueError):
    """Invalid command-line input (exit code 2)."""


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    shown = repr(text if len(text) <= 40 else text[:40] + "...")  # errors echo a bounded prefix
    if "." in text or "e" in text.lower():
        raise CliError(f"exact value expected, got {shown}; use integers or p/q")
    limit = sys.get_int_max_str_digits()
    if limit and any(sum(map(str.isdigit, part)) > limit for part in text.split("/")):
        raise CliError(f"rational {shown} has a part of over {limit} digits, the integer limit")
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse rational {shown}; use integers or p/q, q nonzero") from None


def parse_closing(n: int, text: str | None) -> GradedPoly | None:
    """Closing from `name=value` pairs tied to the basis order at level n.

    Each basis slot may be named once, by its name or its position.
    """
    if not text:
        return None
    names = CLOSING_NAMES.get(n, [])
    coeffs = [Q(0)] * closing_dim(n)
    seen: set[int] = set()
    for chunk in text.split(","):
        name, sep, value = chunk.partition("=")
        name = name.strip()
        if not sep:
            raise CliError(f"closing entry {chunk!r} is not name=value")
        if name in names:
            idx = names.index(name)
        elif name.startswith("p") and name[1:].isdigit():
            idx = int(name[1:])
        else:
            raise CliError(f"unknown closing coefficient {name!r} at level {n}")
        if idx >= len(coeffs):
            raise CliError(f"coefficient {name!r} is outside the level-{n} basis")
        if idx in seen:
            raise CliError(f"closing coefficient {name!r} sets slot p{idx} a second time")
        seen.add(idx)
        coeffs[idx] = parse_rational(value)
    return closing_from_coeffs(n, coeffs)


def _strict(value):
    """The payload with each non-finite float as the string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _emit(args, payload) -> None:
    if isinstance(payload, str):
        text = payload
    else:  # strict JSON: no bare NaN or Infinity tokens
        text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _stamped(command: str, config: dict, body: dict) -> dict:
    return {
        "command": command,
        "config": config,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        **body,
    }


# -- subcommands ------------------------------------------------------------------

def cmd_ode_print(args) -> int:
    closing = parse_closing(args.n, args.p)
    ode = family_ode(args.n, closing)
    if args.json:
        _emit(args, _stamped("ode print",
                             {"n": args.n, "p": args.p or ""},
                             {"ode": ode.to_json(), "text": ode.text()}))
    else:
        _emit(args, ode.text() + " = 0")
    return 0


def cmd_ode_basis(args) -> int:
    basis = closing_monomials(args.n)
    names = CLOSING_NAMES.get(args.n, [])
    rows = [{"index": i,
             "name": names[i] if i < len(names) else f"p{i}",
             "monomial": mono_text(m)}
            for i, m in enumerate(basis)]
    if args.json:
        _emit(args, _stamped("ode basis",
                             {"n": args.n},
                             {"dim": closing_dim(args.n), "basis": rows}))
    else:
        lines = [f"level n={args.n}: dim = {closing_dim(args.n)}"]
        lines += [f"  {r['name']:>4s} * {r['monomial']}" for r in rows]
        _emit(args, "\n".join(lines))
    return 0


def cmd_series(args) -> int:
    if args.kind in ("phi", "table"):
        closing = parse_closing(args.n, args.p)
        c = parse_rational(args.c) if args.c else default_c(args.delta)
        build = ansatz_series if args.kind == "phi" else coeff_table
        data = build(args.n, closing, c, args.delta, args.K).to_json()
    elif args.kind == "sigma":
        coeffs = sigma_series(args.K)
        data = {"K": args.K,
                "variables": {"x2": "g2", "x3": "g3"},
                "coeffs": [{"k": k, "poly": p.to_json()} for k, p in enumerate(coeffs)]}
    else:  # psi; argparse admits no other kind
        psi1 = GradedPoly.variable(1, parse_rational(args.seed_coeff))
        data = bare_series(three_pole_flows(), psi1, args.K).to_json()
        data["flows"] = "three-pole example"
    config = {k: v for k, v in vars(args).items()
              if k in ("kind", "n", "delta", "c", "p", "K", "seed_coeff") and v is not None}
    _emit(args, _stamped(f"series {args.kind}", config, {"series": data}))
    return 0


def cmd_integrate(args) -> int:
    exact = args.mode == "exact"
    closing = parse_closing(args.n, args.p)
    spec = SystemSpec.reduced(args.n, delta=args.delta, closing=closing)
    raw = args.state.split(",")
    if len(raw) != args.n + 2:
        raise CliError(f"state needs r,h and {args.n} coordinates")
    num = parse_rational if exact else float
    values = [num(v) for v in raw]
    t0, t_end, step = num(args.t0), num(args.t_end), num(args.step)
    s0 = SystemState(t0, values[0], values[1], tuple(values[2:]))
    blowup = None
    try:
        trajectory = integrate_rk4(spec, s0, t_end, step, h_bound=args.guard)
    except BlowUp as event:
        trajectory = event.trajectory
        blowup = event.t_star
    header = ["t", "r", "h"] + [f"x{k}" for k in range(2, args.n + 2)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # an exact state may have more digits than parse_rational takes
    try:
        rows = [[str(v) if exact else v for v in s.row()] for s in trajectory]
    finally:
        sys.set_int_max_str_digits(limit)
    if args.json:
        body = {
            "metadata": {
                "n": args.n, "delta": args.delta, "p": args.p or "",
                "step": str(args.step), "guard": args.guard, "mode": args.mode,
                "blowup_t": None if blowup is None else str(blowup),
            },
            "header": header,
            "rows": rows,
        }
        _emit(args, _stamped("integrate", {"state": args.state}, body))
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])  # a float as its repr
        if blowup is not None:
            buf.write(f"# blowup at t = {blowup}\n")
        _emit(args, buf.getvalue().rstrip("\n"))
    return 0


def cmd_verify(args) -> int:
    config = {"suite": args.suite, "seed": args.seed}
    if args.n is not None:
        if args.suite == "all":
            raise CliError("--max-n bounds the levels of one suite; `verify all` takes none")
        config["max_n"] = args.n
    report = run_all(seed=args.seed) if args.suite == "all" \
        else run_suite(args.suite, seed=args.seed, max_n=args.n)
    payload = _stamped(f"verify {args.suite}", config, report)
    if args.json or args.out:
        _emit(args, payload)
    else:
        cases = report.get("cases", [])
        lines = [f"suite {report['suite']}: {'PASS' if report['passed'] else 'FAIL'}"]
        for c in cases:
            lines.append(f"  [{'ok' if c.get('pass') else 'FAIL'}] {c.get('case')}")
        for sub in report.get("reports", []):
            lines.append(f"  {sub['suite']}: {'PASS' if sub['passed'] else 'FAIL'}")
        _emit(args, "\n".join(lines))
    return 0 if report["passed"] else 1


def cmd_sl2_orbit(args) -> int:
    parts = args.mobius.split(",")
    if len(parts) != 4:
        raise CliError("--mobius needs four rationals a,b,c,d")
    m = Mobius(*(parse_rational(v) for v in parts))
    m.require_unimodular()
    poles = [parse_rational(v) for v in args.poles.split(",")]
    n = len(poles) - 1
    ps = pole_sum(Q(n + 1), poles)
    t = parse_rational(args.t)
    order = args.order if args.order is not None else n + 1
    jet = transformed_h_jet(m, ps.jet, t, order)
    # only a jet long enough for the level-n member needs the matched closing
    match = match_pole_ode(n) if n >= 1 and order >= n + 1 else None
    body = {
        "n": n,
        "t": str(t),
        "mobius": [str(v) for v in (m.a, m.b, m.c, m.d)],
        "jet": [str(v) for v in jet],
    }
    if n == 0:
        body["residual"] = str(hierarchy_ode(1).eval(jet))
    elif match is not None and match.matched:
        ode = family_ode(n, match.closing)
        body["closing"] = match.closing.text() if match.closing else "0"
        body["residual"] = str(ode.eval(jet))
    _emit(args, _stamped("sl2 orbit", {"mobius": args.mobius, "poles": args.poles}, body))
    return 0


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--out", help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="heatode",
        description="Construct, integrate and verify the ODE family attached to the heat equation.")
    sub = parser.add_subparsers(dest="command", required=True)

    ode = sub.add_parser("ode", help="family members and closing bases")
    ode_sub = ode.add_subparsers(dest="ode_command", required=True)
    p = ode_sub.add_parser("print", parents=[common], help="expanded family member")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", help="closing coefficients, e.g. c4=24 or p0=1,p1=2")
    p.set_defaults(func=cmd_ode_print)
    p = ode_sub.add_parser("basis", parents=[common], help="closing basis at a level")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_ode_basis)

    ser = sub.add_parser("series", help="series coefficient generation")
    ser_sub = ser.add_subparsers(dest="kind", required=True)
    for kind in ("phi", "table"):
        p = ser_sub.add_parser(kind, parents=[common])
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--delta", type=int, choices=(0, 1), default=0)
        p.add_argument("--c", help="series normalisation, default -2(1+2*delta)")
        p.add_argument("--p", help="closing coefficients")
        p.add_argument("--K", type=int, required=True)
        p.set_defaults(func=cmd_series, kind=kind)
    p = ser_sub.add_parser("sigma", parents=[common])
    p.add_argument("--K", type=int, required=True)
    p.set_defaults(func=cmd_series, kind="sigma")
    # no abbreviations: "--seed" must not silently mean "--seed-coeff"
    p = ser_sub.add_parser("psi", parents=[common], allow_abbrev=False)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--seed-coeff", default="-1/2",
                   help="coefficient of x1 in the seed term")
    p.set_defaults(func=cmd_series, kind="psi")

    p = sub.add_parser("integrate", parents=[common], help="fixed-step trajectory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, choices=(0, 1), default=0)
    p.add_argument("--p", help="closing coefficients")
    p.add_argument("--state", required=True, help="initial r,h,x2,...")
    p.add_argument("--t0", default="0")
    p.add_argument("--t-end", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--guard", type=float, default=1e8, help="blow-up bound on |h|")
    p.add_argument("--mode", choices=("exact", "float"), default="float",
                   help="scalar mode: exact rationals or binary floats")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    p.add_argument("--max-n", "--n", dest="n", type=int,
                   help="highest level for rational, phi-equiv, dims or detmatch")
    p.set_defaults(func=cmd_verify)

    sl2 = sub.add_parser("sl2", help="matrix actions on solutions")
    sl2_sub = sl2.add_subparsers(dest="sl2_command", required=True)
    p = sl2_sub.add_parser("orbit", parents=[common])
    p.add_argument("--mobius", required=True, help="four rationals a,b,c,d with ad-bc=1")
    p.add_argument("--poles", required=True, help="comma-separated rational poles")
    p.add_argument("--t", required=True, help="rational evaluation time")
    p.add_argument("--order", type=int, help="jet order (default n+1)")
    p.set_defaults(func=cmd_sl2_orbit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the flush at exit would fail again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, PoleOfAction, PoleHit) as err:  # CliError and the library's typed errors
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
