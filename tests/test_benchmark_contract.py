"""The names the benchmark harness in perfbench/ reaches into heatode for.

perfbench/tracer.py rebinds functions and methods by name, the match
probe in perfbench/probes.py wraps jets.solve_linear, and
perfbench/workloads.py clears two module caches.  A refactor that renamed
or moved one of them would end a traced benchmark run as run_failed, so
each is checked here; perfbench/ itself is only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from heatode import jets

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
