"""Named verification suites behind the command-line `verify` command.

Each suite is a function (seed, **params) -> report dict with a boolean
"passed" and a list of per-case entries.  Suites are deterministic in
the seed: identical inputs give identical reports.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

from .algebra import (
    GradedPoly,
    Q,
    bare_monomials,
    closing_dim,
    closing_monomials,
    partition_count,
)
from .jets import (
    chazy12_parameter,
    family_ode,
    head_tail_coefficients,
    hierarchy_ode,
    match_pole_ode,
    necessary_pole_strength,
    pole_sum_ode,
    rescale_dependent,
    total_derivative,
)
from .mobius import ExactHeatValue, Mobius, PoleOfAction, act_on_h, act_on_psi, act_on_r, act_on_x, transformed_h_jet
from .series import (
    ansatz_series,
    bare_series,
    coeff_table,
    default_c,
    quartic_eigenfunction_check,
    series_from_table,
    sigma_l2,
    sigma_series,
    three_pole_flows,
)
from .systems import SystemSpec, SystemState, pole_sum, sigma_reduction
from .heat import (
    AnsatzSolution,
    WideSolution,
    grid_heat_residual,
    pole_state_provider,
    polynomial_solution_check,
    predicted_failure_order,
    series_heat_residual,
    series_sums,
    trajectory_provider,
)


class UnknownSuite(KeyError):
    """The requested verification suite does not exist."""


def _closing(n: int, coeffs) -> GradedPoly:
    return GradedPoly({m: Q(c) for m, c in zip(closing_monomials(n), coeffs)})


def _random_closing(rng: random.Random, n: int, bound: int = 5) -> GradedPoly:
    return _closing(n, [rng.randint(-bound, bound) for _ in closing_monomials(n)])


def _random_poles(rng: random.Random, count: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        v = Q(rng.randint(-24, 24), rng.randint(1, 8))
        if v not in out:
            out.append(v)
    return out


def _random_mobius(rng: random.Random, steps: int = 3) -> Mobius:
    m = Mobius.identity()
    for _ in range(steps):
        m = m @ Mobius(Q(1), Q(rng.randint(-3, 3), rng.randint(1, 4)), Q(0), Q(1))
        m = m @ Mobius(Q(1), Q(0), Q(rng.randint(-3, 3), rng.randint(1, 4)), Q(1))
    return m


def _report(name: str, seed: int, cases: list[dict]) -> dict:
    return {
        "suite": name,
        "seed": seed,
        "passed": all(c.get("pass", False) for c in cases),
        "cases": cases,
    }


# -- suites --------------------------------------------------------------------

def suite_rational(seed: int = 0, max_n: int = 6, trials: int = 20) -> dict:
    """Pole sums annihilate the determinant family exactly; wrong b does not."""
    rng = random.Random(seed)
    cases = []
    for n in range(max_n + 1):
        ode = pole_sum_ode(n, n + 1)
        off_odes = [pole_sum_ode(n, n) if n >= 1 else None, pole_sum_ode(n, n + 2)]
        zeros = 0
        perturbed_nonzero = 0
        perturbed_total = 0
        for _ in range(trials):
            ps = pole_sum(n + 1, _random_poles(rng, n + 1))
            t = Q(rng.randint(97, 300), rng.randint(1, 4))
            jet = ps.jet(t, n + 1)
            if ode.eval(jet) == 0:
                zeros += 1
            for off in off_odes:
                if off is None:
                    continue
                perturbed_total += 1
                if off.eval(jet) != 0:
                    perturbed_nonzero += 1
        cases.append({
            "case": f"pole-sum-n{n}",
            "mode": "exact",
            "zero_residuals": f"{zeros}/{trials}",
            "perturbed_nonzero": f"{perturbed_nonzero}/{perturbed_total}",
            "pass": zeros == trials and perturbed_nonzero >= perturbed_total - 1,
        })
    return _report("rational", seed, cases)


def suite_chazy(seed: int = 0) -> dict:
    """Rescaling identities, the Chazy-12 parameter and head/tail coefficients."""
    cases = []
    ode24 = family_ode(2, _closing(2, [24]))
    chazy3 = rescale_dependent(ode24, -6).monic
    expect3 = {((0, 1), (2, 1)): Q(-2), ((1, 2),): Q(3), ((3, 1),): Q(1)}
    cases.append({"case": "chazy3-form", "mode": "exact",
                  "pass": chazy3.terms == expect3})
    ode6 = family_ode(2, _closing(2, [6]))
    linear = rescale_dependent(ode6, -6).monic
    expect6 = {((3, 1),): Q(1), ((0, 1), (2, 1)): Q(-2),
               ((0, 2), (1, 1)): Q(1), ((0, 4),): Q(-1, 12)}
    cases.append({"case": "derivative-linear-form", "mode": "exact",
                  "pass": linear.terms == expect6})
    chazy4 = rescale_dependent(total_derivative(hierarchy_ode(2)), 2).monic
    expect4 = {((3, 1),): Q(1), ((0, 1), (2, 1)): Q(3),
               ((1, 2),): Q(3), ((0, 2), (1, 1)): Q(3)}
    cases.append({"case": "chazy4-form", "mode": "exact",
                  "pass": chazy4.terms == expect4})
    cases.append({"case": "chazy12-parameter", "mode": "exact",
                  "pass": chazy12_parameter(Q(-3)) == 4})
    ok = all(head_tail_coefficients(n) == (1, n * (n + 1), 2 ** (n - 1) * math.factorial(n))
             for n in range(2, 9))
    cases.append({"case": "head-tail-closed-form", "mode": "exact", "pass": ok})
    return _report("chazy", seed, cases)


def suite_phi_equiv(seed: int = 0, max_n: int = 4, K: int = 12, trials: int = 5) -> dict:
    """The polynomial and discrete series routes agree exactly; corollaries hold."""
    rng = random.Random(seed)
    cases = []
    for n in range(1, max_n + 1):
        for delta in (0, 1):
            agree = True
            for _ in range(trials):
                closing = _random_closing(rng, n)
                for c in (default_c(delta), Q(3)):
                    a = ansatz_series(n, closing, c, delta, K)
                    b = series_from_table(coeff_table(n, closing, c, delta, K))
                    if any(a.coeff(k) != b.coeff(k) for k in range(2, K + 1)):
                        agree = False
            cases.append({"case": f"cross-oracle-n{n}-delta{delta}", "mode": "exact",
                          "K": K, "pass": agree})
    nonneg = True
    integral = True
    for n in (2, 3):
        closing = _closing(n, [rng.randint(0, 4) for _ in closing_monomials(n)])
        table = coeff_table(n, closing, Q(3), 0, 8)
        nonneg &= all(a >= 0 for a in table.entries.values())
        for delta in (0, 1):
            closing2 = _random_closing(rng, n)
            table2 = coeff_table(n, closing2, Q(2 * (1 + 2 * delta)), delta, 8)
            integral &= all(a.denominator == 1 for a in table2.entries.values())
    cases.append({"case": "nonnegativity", "mode": "exact", "pass": nonneg})
    cases.append({"case": "integrality", "mode": "exact", "pass": integral})
    eigen = all(quartic_eigenfunction_check(8, delta).all_ok for delta in (0, 1))
    cases.append({"case": "quartic-eigenfunction", "mode": "exact", "pass": eigen})
    return _report("phi-equiv", seed, cases)


def suite_sl2(seed: int = 0, pairs: int = 20) -> dict:
    """Group law, preserved residuals and the state-versus-solution square."""
    rng = random.Random(seed)
    cases = []

    def sampler(z, t):
        return ExactHeatValue.plain(Q(1) / (1 + t * t) + z * z * t - z ** 4)

    checked = 0
    law_ok = True
    while checked < pairs:
        m1, m2 = _random_mobius(rng), _random_mobius(rng)
        z = Q(rng.randint(-3, 3), rng.randint(1, 5))
        t = Q(rng.randint(-9, 9), rng.randint(1, 5))
        try:
            lhs = act_on_psi(m2, lambda zz, tt: act_on_psi(m1, sampler, zz, tt), z, t)
            rhs = act_on_psi(m1 @ m2, sampler, z, t)
        except (PoleOfAction, ZeroDivisionError):
            continue
        law_ok &= lhs == rhs
        checked += 1
    cases.append({"case": "group-law", "mode": "exact", "pairs": pairs, "pass": law_ok})

    families = {0: hierarchy_ode(1), 1: hierarchy_ode(2),
                2: family_ode(2, _closing(2, [-3])), 3: family_ode(3, _closing(3, [-16]))}
    preserved = True
    for n, ode in families.items():
        done = 0
        while done < 5:
            ps = pole_sum(n + 1, _random_poles(rng, n + 1))
            m = _random_mobius(rng)
            t = Q(rng.randint(97, 240), rng.randint(1, 4))
            if m.denom(t) == 0:
                continue
            try:
                jet = transformed_h_jet(m, ps.jet, t, n + 1)
            except (PoleOfAction, ZeroDivisionError):
                continue
            preserved &= ode.eval(jet) == 0
            done += 1
    cases.append({"case": "transformed-residuals", "mode": "exact", "pass": preserved})

    worst = _consistency_square_error()
    cases.append({"case": "state-vs-solution", "mode": "float",
                  "max_gap": worst, "pass": worst <= 1e-10})
    return _report("sl2", seed, cases)


def _consistency_square_error() -> float:
    closing = _closing(2, [24])
    spec = SystemSpec.reduced(2, delta=1, closing=closing)
    series = ansatz_series(2, closing, default_c(1), 1, 10)
    provider = pole_state_provider(2, 3, [Q(-1), Q(-2), Q(-3)], 1)
    sol = AnsatzSolution(spec, series, provider)
    h = lambda t: float(provider(t).h)
    r = lambda t: float(provider(t).r)
    matrices = [Mobius(1.0, 1 / 3, 0.0, 1.0), Mobius(1.0, 0.0, 0.25, 1.0),
                Mobius(1.0, 0.5, 0.2, 1.1)]
    worst = 0.0
    for m in matrices:
        for t in (1.0, 1.4):
            for z in (0.1, 0.4):
                h_hat = act_on_h(m, h, t)
                r_hat = act_on_r(m, r, 1, t)
                x_hat = {k: act_on_x(m, (lambda kk: lambda s: float(provider(s).x[kk - 2]))(k), k, t)
                         for k in (2, 3)}
                total = series_sums(series, z, x_hat)[0]
                state_side = math.exp(-0.5 * h_hat * z * z + r_hat) * total
                psi_side = act_on_psi(m, sol.psi, z, t)
                worst = max(worst, abs(state_side - psi_side) / max(1.0, abs(psi_side)))
    return worst


def suite_heat(seed: int = 0, K: int = 8) -> dict:
    """Symbolic all-zero residuals, fault detection and the numeric grid case."""
    rng = random.Random(seed)
    cases = []
    symbolic = [(1, 0, None), (1, 1, None), (2, 1, [24]), (3, 0, [48]), (3, 1, [48])]
    for n, delta, coeffs in symbolic:
        closing = _closing(n, coeffs) if coeffs else None
        spec = SystemSpec.reduced(n, delta=delta, closing=closing)
        series = ansatz_series(n, closing, default_c(delta), delta, K)
        report = series_heat_residual(spec, series, case=f"n={n},delta={delta}")
        entry = report.to_json()
        entry["pass"] = report.all_ok
        cases.append(entry)

    from .algebra import monomial_basis
    spec = SystemSpec.reduced(2, delta=1, closing=_closing(2, [24]))
    series = ansatz_series(2, _closing(2, [24]), Q(-6), 1, K)
    fault_ok = True
    for k in (3, 4, 5):
        bump = GradedPoly({monomial_basis(k, 2, 3)[0]: Q(1)})
        bad = series.with_coeff(k, series.coeff(k) + bump)
        got = series_heat_residual(spec, bad).first_failure
        fault_ok &= got == predicted_failure_order(k, 1)
    cases.append({"case": "fault-detection", "mode": "symbolic", "pass": fault_ok})

    s0 = SystemState(0.0, rng.uniform(-0.1, 0.1), rng.uniform(-0.3, 0.3),
                     (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))
    sol = AnsatzSolution(spec, series, trajectory_provider(spec, s0, 2.5e-4))
    zg = [-0.5 + i / 10 for i in range(11)]
    tg = [0.05 + 0.0375 * i for i in range(5)]
    numeric = grid_heat_residual(sol, zg, tg, 1e-3, case="n=2,c4=24 trajectory")
    half = grid_heat_residual(sol, zg, tg, 5e-4, case="half step")
    ratio = numeric.max_residual / half.max_residual if half.max_residual else float("inf")
    entry = numeric.to_json()
    entry["fd_halving_ratio"] = ratio
    entry["pass"] = numeric.max_residual <= 1e-6 and 2.5 < ratio < 6
    cases.append(entry)
    return _report("heat", seed, cases)


def suite_sigma(seed: int = 0, K: int = 8) -> dict:
    """Sigma expansion: operator annihilation, scaling weights, the bridge."""
    cases = []
    S = sigma_series(K)
    g2 = GradedPoly.variable(2)
    annihilated = True
    for m in range(K - 1):
        prev = S[m - 1] if m >= 1 else GradedPoly.zero()
        residual = S[m + 1].scale(Q(1, 2)) \
            + (g2 * prev).scale(Q((2 * m + 1) * (2 * m), 24)) - sigma_l2(S[m])
        annihilated &= not residual
    cases.append({"case": "second-operator", "mode": "exact", "pass": annihilated})
    weights = all((not s) or s.weight == 2 * k for k, s in enumerate(S))
    cases.append({"case": "scaling-operator", "mode": "exact", "pass": weights})

    phi = ansatz_series(2, _closing(2, [24]), Q(-6), 1, 6)
    sub = {2: GradedPoly.variable(2, Q(1, 12)), 3: GradedPoly.variable(3, Q(1, 2))}
    bridge = all(phi.coeff(k).subst(sub) == S[k] for k in range(2, 7))
    cases.append({"case": "bridge-to-level-two", "mode": "exact", "K": 6, "pass": bridge})

    reductions = all(sigma_reduction(case).closing_constant == expect
                     for case, expect in ((2, 24), (3, 48)))
    cases.append({"case": "system-reductions", "mode": "exact", "pass": reductions})
    return _report("sigma", seed, cases)


def suite_hermite(seed: int = 0, max_k: int = 10) -> dict:
    """Gaussian-times-Hermite solutions, exactly, plus fault rejection."""
    cases = []
    for k in range(max_k + 1):
        cases.append({"case": f"hermite-k{k}", "mode": "exact",
                      "pass": polynomial_solution_check(k)})
    faults = all(not polynomial_solution_check(k, [Q(0)] * k + [Q(1)]) for k in (2, 3, 4))
    cases.append({"case": "monomial-fault-rejected", "mode": "exact", "pass": faults})
    return _report("hermite", seed, cases)


def suite_dims(seed: int = 0, max_n: int = 12) -> dict:
    """The closing-space dimension formula against direct enumeration."""
    cases = []
    expected_small = {0: 0, 1: 0, 2: 1, 3: 1, 4: 3}
    for n in range(max_n + 1):
        dim = closing_dim(n)
        count = len(closing_monomials(n))
        formula = partition_count(n + 2) - partition_count(n + 1) - 1
        ok = dim == count == formula
        if n in expected_small:
            ok &= dim == expected_small[n]
        cases.append({"case": f"n={n}", "mode": "exact", "dim": dim, "pass": ok})
    return _report("dims", seed, cases)


def suite_detmatch(seed: int = 0, max_n: int = 6) -> dict:
    """Match the determinant family against the closing space, level by level."""
    expected = {2: [-3], 3: [-16], 4: [-45, -26, -31]}
    cases = []
    for n in range(1, max_n + 1):
        match = match_pole_ode(n)
        entry = {
            "case": f"detmatch-n{n}",
            "mode": "exact",
            "b": str(match.b),
            "necessary_b": str(necessary_pole_strength(n)),
            "matched": match.matched,
        }
        if match.matched:
            entry["closing"] = match.closing.text()
            ok = family_ode(n, match.closing) == pole_sum_ode(n, n + 1)
        else:
            entry["residual"] = match.residual.text()
            ok = bool(match.residual)
        if n in expected:
            ok &= match.matched and match.closing == _closing(n, expected[n])
        ok &= necessary_pole_strength(n) == n + 1
        entry["pass"] = ok
        cases.append(entry)
    return _report("detmatch", seed, cases)


def suite_addendum(seed: int = 0) -> dict:
    """The wide-ansatz example: exact flow, numeric solution, dimension count."""
    rng = random.Random(seed)
    cases = []
    flow_ok = True
    for _ in range(5):
        poles = _random_poles(rng, 3)
        ps = pole_sum(3, poles)
        t = Q(rng.randint(97, 200), rng.randint(1, 3))
        x1, x2v, x3v, x3dot = ps.jet(t, 3)
        flow_ok &= x3dot == -3 * (4 * x1 * x3v + 3 * x2v ** 2 + 18 * x2v * x1 ** 2 + 9 * x1 ** 4)
    cases.append({"case": "three-pole-flow", "mode": "exact", "pass": flow_ok})

    series = bare_series(three_pole_flows(), GradedPoly.variable(1, Q(-1, 2)), 12)
    poles = [Q(-1), Q(-2), Q(-3)]
    ps = pole_sum(3, poles)

    def state(t):
        jet = ps.jet(t, 2)
        r = -sum(math.log(float(t - a)) for a in poles) / 12.0
        return r, {1: float(jet[0]), 2: float(jet[1]), 3: float(jet[2])}

    sol = WideSolution(series, state)
    zg = [-0.5 + i / 10 for i in range(11)]
    tg = [1.0 + 0.04 * i for i in range(6)]
    numeric = grid_heat_residual(sol, zg, tg, 1e-3, case="three-pole solution")
    entry = numeric.to_json()
    entry["pass"] = numeric.max_residual <= 1e-6
    cases.append(entry)

    counts = all(len(bare_monomials(n)) == partition_count(n + 2) - 1 for n in range(9))
    cases.append({"case": "wide-closing-count", "mode": "exact", "pass": counts})
    return _report("addendum", seed, cases)


SUITES: dict[str, Callable[..., dict]] = {
    "rational": suite_rational,
    "chazy": suite_chazy,
    "phi-equiv": suite_phi_equiv,
    "sl2": suite_sl2,
    "heat": suite_heat,
    "sigma": suite_sigma,
    "hermite": suite_hermite,
    "dims": suite_dims,
    "detmatch": suite_detmatch,
    "addendum": suite_addendum,
}


def run_suite(name: str, seed: int = 0, **params) -> dict:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](seed=seed, **params)


def run_all(seed: int = 0) -> dict:
    reports = [run_suite(name, seed=seed) for name in SUITES]
    return {
        "suite": "all",
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "reports": reports,
    }
