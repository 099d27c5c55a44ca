"""Tiny untraced runs of every benchmark workload, through bench/selftest.py."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = [w["name"] for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def _selftest():
    spec = importlib.util.spec_from_file_location("bench_selftest", BENCH / "selftest.py")
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    return selftest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_clean(workload):
    assert _selftest().check_run(workload, 0) == []
