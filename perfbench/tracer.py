"""Span tracer for heatode's layers, attached from outside the package.

`Tracer.attach()` rebinds each traced public function in every heatode
module that holds a reference to it (and the `SUITES` table, and the
`GradedPoly`/`JetPoly` methods); `detach()` puts the originals back.
heatode's own files are never edited.

Every traced call pushes a frame.  When it returns, its net duration is
its wall time minus the tracer's own bookkeeping inside it, and its self
time is the net duration minus its children's net durations.  Spans
(id, name, unit, parent id, start, end) are kept in memory and written
out at the end of the run.  The three arithmetic leaves called hundreds
of thousands of times per unit (`algebra.poly_mul`, `algebra.poly_eval`,
`jets.jet_mul`) are aggregated in place instead of stored as spans, so
memory stays bounded; their time still leaves their parents' self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import heatode
from heatode import heat, suites
from heatode.algebra import GradedPoly
from heatode.jets import JetPoly

MAX_SPANS = 400_000

# (metric prefix, module, function) for each traced public function
TIMED_FUNCTIONS = [
    ("algebra.solve_linear", "algebra", "solve_linear"),
    ("jets.match_pole_ode", "jets", "match_pole_ode"),
    ("jets.hierarchy_ode", "jets", "hierarchy_ode"),
    ("jets.pole_sum_ode", "jets", "pole_sum_ode"),
    ("jets.closing_in_jets", "jets", "closing_in_jets"),
    ("series.ansatz_series", "series", "ansatz_series"),
    ("series.coeff_table", "series", "coeff_table"),
    ("series.series_from_table", "series", "series_from_table"),
    ("systems.integrate_rk4", "systems", "integrate_rk4"),
    ("heat.series_heat_residual", "heat", "series_heat_residual"),
    ("heat.grid_heat_residual", "heat", "grid_heat_residual"),
    ("mobius.act_on_psi", "mobius", "act_on_psi"),
    ("mobius.transformed_h_jet", "mobius", "transformed_h_jet"),
]

# (metric prefix, class, method) for the aggregated arithmetic leaves
LEAF_METHODS = [
    ("algebra.poly_mul", GradedPoly, "__mul__"),
    ("algebra.poly_eval", GradedPoly, "eval"),
    ("jets.jet_mul", JetPoly, "__mul__"),
]

SUITE_NAMES = list(suites.SUITES)

# Per-unit counters reported as they are.
REPORTED_COUNTERS = [
    "algebra.solve_linear.cells",
    "algebra.poly_mul.term_pairs",
    "jets.jet_mul.term_pairs",
    "series.coeff_table.entries",
    "systems.integrate_rk4.steps",
    "systems.integrate_rk4.blowups",
    "systems.vector_field.calls",
    "heat.psi_calls",
]


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit length among Fraction values."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


@dataclass
class UnitTrace:
    """What one traced unit did: per-function [self_s, net_s, calls, errors] and counters."""

    stats: dict[str, list]
    counts: Counter
    coeff_bits: int


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.unit: int | None = None
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.next_id = 0
        self.stats: dict[str, list] = {}     # cumulative over the run
        self.counts: Counter = Counter()     # cumulative over the run
        self.bits = 0                        # max over the current unit
        self.units: list[UnitTrace] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- wrappers ---------------------------------------------------------------
    def timed(self, name: str, fn: Callable, span: bool = True,
              after: Callable | None = None) -> Callable:
        """Wrap fn so each call made while active is a frame (and a span)."""
        tracer = self
        clock = time.perf_counter
        stat = self.stats.setdefault(name, [0.0, 0.0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = clock()
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sid = None
            if span:
                sid = tracer.next_id
                tracer.next_id = sid + 1
            frame = [0.0, 0.0, sid]   # children's net time, tracer time inside, span id
            stack.append(frame)
            result = error = None
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                t2 = clock()
                stack.pop()
                net = t2 - t1 - frame[1]
                stat[0] += net - frame[0]
                stat[1] += net
                stat[2] += 1
                if error is not None:
                    stat[3] += 1
                if after is not None:
                    after(args, result, error)
                if span:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((sid, name, tracer.unit,
                                             parent[2] if parent else None, t1, t2))
                    else:
                        tracer.dropped_spans += 1
                if parent is not None:
                    parent[0] += net
                    parent[1] += frame[1] + (t1 - t0) + (clock() - t2)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _provider(self, fn: Callable) -> Callable:
        """Wrap trajectory_provider to measure how many integrated steps were needed.

        A query t that misses the provider's cache integrates from s0;
        continuing from the nearest earlier queried time would need
        round((t - nearest) / step_hint) steps.
        """
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def provider(spec, s0, step_hint=1e-3):
            at = fn(spec, s0, step_hint)
            seen = {float(s0.t)}

            def traced_at(t):
                tf = float(t)
                if not tracer.active or tf in seen or tf < float(s0.t):
                    return at(t)
                before = counts["systems.integrate_rk4.steps"]
                state = at(t)
                nearest = max(v for v in seen if v <= tf)
                counts["heat.trajectory.needed_steps"] += max(1, round((tf - nearest) / step_hint))
                counts["heat.trajectory.integrated_steps"] += \
                    counts["systems.integrate_rk4.steps"] - before
                seen.add(tf)
                return state

            return traced_at

        return provider

    # -- counters attached to returns ---------------------------------------------
    def _after_solve(self, args, solution_and_residual, error):
        rows = args[0]
        if rows:
            self.counts["algebra.solve_linear.cells"] += len(rows) * len(rows[0])
        if solution_and_residual is not None and solution_and_residual[0] is not None:
            self.bits = max(self.bits, coeff_bits(solution_and_residual[0]))

    def _after_mul(self, counter: str):
        def after(args, product, error):
            if product is not None:
                self.counts[counter] += len(args[0].terms) * len(args[1].terms)
                self.bits = max(self.bits, coeff_bits(product.terms.values()))
        return after

    def _after_table(self, args, table, error):
        if table is not None:
            self.counts["series.coeff_table.entries"] += len(table.entries)
            self.bits = max(self.bits, coeff_bits(table.entries.values()))

    def _after_rk4(self, args, trajectory, error):
        if trajectory is not None:
            self.counts["systems.integrate_rk4.steps"] += len(trajectory) - 1
        elif hasattr(error, "trajectory"):   # BlowUp carries the states reached
            self.counts["systems.integrate_rk4.blowups"] += 1
            self.counts["systems.integrate_rk4.steps"] += len(error.trajectory) - 1

    # -- attach / detach ------------------------------------------------------------
    def _rebind_everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind every heatode module attribute that refers to `original`."""
        for name, module in list(sys.modules.items()):
            if name != "heatode" and not name.startswith("heatode."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original, False))

    def attach(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already attached")
        after = {
            "algebra.solve_linear": self._after_solve,
            "series.coeff_table": self._after_table,
            "systems.integrate_rk4": self._after_rk4,
        }
        for metric, module, attr in TIMED_FUNCTIONS:
            original = getattr(getattr(heatode, module), attr)
            self._rebind_everywhere(original, self.timed(metric, original, after=after.get(metric)))
        for metric, cls, attr in LEAF_METHODS:
            original = cls.__dict__[attr]
            counter = f"{metric}.term_pairs" if attr == "__mul__" else None
            wrapped = self.timed(metric, original, span=False,
                                 after=self._after_mul(counter) if counter else None)
            setattr(cls, attr, wrapped)
            self._patches.append((cls, attr, original, False))
        for suite in SUITE_NAMES:
            original = suites.SUITES[suite]
            wrapped = self.timed(f"suites.{suite}", original)
            suites.SUITES[suite] = wrapped
            self._patches.append((suites.SUITES, suite, original, True))
            self._rebind_everywhere(original, wrapped)
        vector_field = heatode.systems.vector_field
        self._rebind_everywhere(vector_field, self.counted("systems.vector_field.calls", vector_field))
        for cls in (heat.AnsatzSolution, heat.WideSolution):
            original = cls.__dict__["psi"]
            setattr(cls, "psi", self.counted("heat.psi_calls", original))
            self._patches.append((cls, "psi", original, False))
        provider = heat.trajectory_provider
        self._rebind_everywhere(provider, self._provider(provider))

    def detach(self) -> None:
        self.active = False
        for target, attr, original, is_item in reversed(self._patches):
            if is_item:
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- units ------------------------------------------------------------------------
    def run_unit(self, index: int, fn: Callable, arg: Any) -> Any:
        """Run fn(arg) traced as unit `index`, under a root span named "unit"."""
        before_stats = {k: list(v) for k, v in self.stats.items()}
        before_counts = Counter(self.counts)
        self.unit = index
        self.bits = 0
        self.active = True
        try:
            result = self.timed("unit", fn)(arg)
        finally:
            self.active = False
            stats = {k: [a - b for a, b in zip(v, before_stats.get(k, (0.0, 0.0, 0, 0)))]
                     for k, v in self.stats.items()}
            counts = Counter({k: v - before_counts[k] for k, v in self.counts.items()})
            self.units.append(UnitTrace(stats, counts, self.bits))
        return result

    # -- reporting -------------------------------------------------------------------
    def write_spans(self, path) -> None:
        names = ("id", "name", "unit", "parent", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(names, span))) + "\n")

    def function_totals(self) -> dict[str, dict]:
        """Per traced function over all traced units: self, net, calls, errors."""
        return {name: {"self_s": s[0], "net_s": s[1], "calls": s[2], "errors": s[3]}
                for name, s in sorted(self.stats.items())}


def layer_metrics(units: list[UnitTrace]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced units.

    Times are medians over units of per-unit self time.  Counts are the
    exact counts of the first traced unit, whose inputs depend only on
    the seed, so they repeat exactly for a given seed.
    """
    first = units[0]
    out: dict[str, tuple[float, str]] = {}

    def median_of(fn) -> float:
        return statistics.median(fn(u) for u in units)

    for name in [m for m, _, _ in TIMED_FUNCTIONS + LEAF_METHODS] \
            + [f"suites.{s}" for s in SUITE_NAMES]:
        out[f"{name}.self_s"] = (median_of(lambda u: u.stats.get(name, (0.0,))[0]), "s")

    for name in ("algebra.solve_linear", "algebra.poly_mul", "algebra.poly_eval",
                 "jets.jet_mul", "systems.integrate_rk4"):
        out[f"{name}.calls"] = (first.stats.get(name, (0, 0, 0))[2], "count")
    for counter in REPORTED_COUNTERS:
        out[counter] = (first.counts[counter], "count")
    out["algebra.coeff_bits.max"] = (first.coeff_bits, "bits")

    def us_per_step(u: UnitTrace) -> float:
        steps = u.counts["systems.integrate_rk4.steps"]
        return 1e6 * u.stats.get("systems.integrate_rk4", (0.0, 0.0))[1] / steps if steps else 0.0

    out["systems.rk4.us_per_step"] = (median_of(us_per_step), "us")
    integrated = first.counts["heat.trajectory.integrated_steps"]
    needed = first.counts["heat.trajectory.needed_steps"]
    out["heat.trajectory.useful_step_ratio"] = (needed / integrated if integrated else 0.0, "ratio")
    out["trace.errors"] = (sum(s[3] for k, s in first.stats.items() if k != "unit"), "count")
    return out
