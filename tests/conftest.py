import pytest

from ultraball import ballean, core
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


@pytest.fixture
def ballean_builds(monkeypatch):
    """Every space whose ballean was built in this test, in order: one entry
    per build, not per call of ``ballean_space``.  Holding the spaces keeps
    their ids distinct."""
    build, spaces = ballean._build_ballean, []

    def counting(space):
        spaces.append(space)
        return build(space)

    monkeypatch.setattr(ballean, "_build_ballean", counting)
    return spaces


@pytest.fixture
def ball_scans(monkeypatch):
    """(space, center, rank) of every row scan behind ``core._ball`` in this
    test, in order: one entry per scan, not per memoized answer."""
    scan, calls = core._scan_ball, []

    def counting(space, c, k):
        calls.append((space, c, k))
        return scan(space, c, k)

    monkeypatch.setattr(core, "_scan_ball", counting)
    return calls
