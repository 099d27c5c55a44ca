"""The benchmark wraps library functions by name; those names must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_bench_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
