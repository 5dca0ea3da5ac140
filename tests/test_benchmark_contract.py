"""The names the benchmark harness in perfbench/ reaches into heatode for.

perfbench/tracer.py rebinds functions and methods by name, the match
probe in perfbench/probes.py wraps jets.solve_linear,
perfbench/workloads.py clears two module caches and perfbench/selftest.py
perturbs a state with dataclasses.replace.  A refactor that renamed or
moved one of them would end a traced benchmark run as run_failed, so each
is checked here; perfbench/ itself is only read.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from heatode import heat, jets, suites, systems
from heatode.algebra import GradedPoly
from heatode.jets import JetPoly

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("metric, module, function", tracer.TIMED_FUNCTIONS,
                         ids=[metric for metric, _, _ in tracer.TIMED_FUNCTIONS])
def test_timed_function_exists(metric, module, function):
    assert callable(getattr(importlib.import_module(f"heatode.{module}"), function))


@pytest.mark.parametrize("metric, cls, method", tracer.LEAF_METHODS,
                         ids=[metric for metric, _, _ in tracer.LEAF_METHODS])
def test_leaf_method_is_in_its_class_dict(metric, cls, method):
    assert callable(cls.__dict__[method])


def test_match_probe_and_cold_cache_names_exist():
    assert callable(jets.solve_linear)
    for cached in (jets.hierarchy_ode, jets._pole_det):
        assert callable(cached.cache_clear)


def test_solve_linear_returns_what_the_tracer_reads():
    # tracer._after_solve takes item 0 of the returned pair as the solution and
    # reads each entry's numerator and denominator for the coefficient bits
    result = jets.solve_linear([[1, 2], [0, 1]], [5, 2])
    assert isinstance(result, tuple) and len(result) == 2
    solution = result[0]
    assert isinstance(solution, list) and len(solution) == 2
    assert all(hasattr(x, "numerator") and hasattr(x, "denominator") for x in solution)
    assert tracer.coeff_bits(solution) == 2  # the solution is [1, 2]


def heatode_names() -> dict:
    """Every name the tracer may rebind: module and patched class attributes, the suite table."""
    names = {(name, attr): value for name, module in sys.modules.items()
             if name == "heatode" or name.startswith("heatode.")
             for attr, value in vars(module).items()}
    names.update(((cls.__name__, attr), value)
                 for cls in (GradedPoly, JetPoly, heat.AnsatzSolution, heat.WideSolution)
                 for attr, value in cls.__dict__.items())
    names.update((("SUITES", name), suite) for name, suite in suites.SUITES.items())
    return names


def test_tracer_attach_wraps_and_detach_restores_the_pinned_names():
    before = heatode_names()
    traced = tracer.Tracer()
    try:
        traced.attach()
        during = heatode_names()
    finally:
        traced.detach()
    pinned = {("heatode.systems", "vector_field"), ("heatode.heat", "trajectory_provider"),
              ("heatode.suites", "trajectory_provider"), ("AnsatzSolution", "psi"),
              ("WideSolution", "psi"),
              *((f"heatode.{module}", function) for _, module, function in tracer.TIMED_FUNCTIONS),
              *((cls.__name__, method) for _, cls, method in tracer.LEAF_METHODS),
              *(("SUITES", name) for name in suites.SUITES)}
    assert pinned <= {key for key, value in before.items() if during[key] is not value}
    after = heatode_names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_state_takes_dataclasses_replace():
    state = systems.SystemState(0.0, 0.125, 0.3, (0.2, -0.1))
    moved = dataclasses.replace(state, h=0.5)
    assert type(moved) is systems.SystemState
    assert moved == systems.SystemState(0.0, 0.125, 0.5, (0.2, -0.1))
