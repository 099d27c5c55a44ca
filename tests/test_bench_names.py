"""The benchmark wraps library functions by name; those names must resolve."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from ultraball.ballean import enumerate_ballean
from ultraball.core import equidistant_space
from ultraball.dlps import GeometricTail, dlps_sample, dlps_space

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_tracing_targets_resolve():
    tracing = _tracing()
    missing = []
    for layer, names in tracing.TARGETS.items():
        module = importlib.import_module(f"ultraball.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{name}")
    assert not missing


def test_bench_size_functions_take_real_results():
    # The tracer applies each size function to what the traced function
    # returns, so a new return type must still have that size.
    sized = _tracing().SIZED
    results = {
        "ballean.enumerate_ballean": enumerate_ballean(equidistant_space(3, 1)),
        "dlps.dlps_sample": dlps_sample(dlps_space((2,), True, [(1, "1/2")]), 4, "1/8"),
        "dlps.GeometricTail.terms_at_least": GeometricTail(Fraction(1), Fraction(1, 2))
        .terms_at_least(Fraction(1, 8), 10),
    }
    assert set(sized) == set(results)
    assert {name: size(results[name]) for name, size in sized.items()} == {
        "ballean.enumerate_ballean": 4,
        "dlps.dlps_sample": 4,
        "dlps.GeometricTail.terms_at_least": 4,
    }
