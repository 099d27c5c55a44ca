import pytest

from ultraball.core import FiniteUltrametricSpace
from ultraball.harness import TrialConfig, run_suite


@pytest.fixture(scope="session")
def default_report():
    """The acceptance-scale verification run, shared across criteria."""
    return run_suite(TrialConfig())


@pytest.fixture
def split_calls(monkeypatch):
    """Every result of the space's split in this test, in order: one entry
    per run of the partition, not per read of the cached property."""
    prop = FiniteUltrametricSpace.__dict__["split"]
    split, calls = prop.func, []

    def counting(space):
        calls.append(split(space))
        return calls[-1]

    monkeypatch.setattr(prop, "func", counting)
    return calls
