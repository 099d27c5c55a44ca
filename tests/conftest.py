from collections import Counter
from fractions import Fraction

import pytest

from ultraball import ballean, cli, core, dendrogram, dlps, harness
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
    """Every space whose ballean or tower was built in this test, in order:
    one entry per run of the one builder, ``_ballean_tower``, not per call
    of ``ballean_space``.  Holding the spaces keeps their ids distinct."""
    build, spaces = ballean._ballean_tower, []

    def counting(space, depth, cells):
        spaces.append(space)
        return build(space, depth, cells)

    monkeypatch.setattr(ballean, "_ballean_tower", counting)
    return spaces


@pytest.fixture
def ball_scans(monkeypatch):
    """(space, center, rank) of every row scan in this test, in order: the
    route of ``closed_ball`` and ``smallest_ball``, which the ball table's
    chains spare every lookup of a table ball."""
    scan, calls = core._scan_ball, []

    def counting(space, c, k):
        calls.append((space, c, k))
        return scan(space, c, k)

    monkeypatch.setattr(core, "_scan_ball", counting)
    return calls


@pytest.fixture
def checks_and_compares(monkeypatch):
    """Calls in this test, by name: ``Fraction`` rich comparisons (as
    ``"Fraction.__lt__"``) and the two ball and subset checks,
    ``require_canonical`` and ``_as_index_tuple``, patched in every module
    that binds them."""
    counts = Counter()

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in ("__lt__", "__gt__", "__le__", "__ge__", "__eq__"):
        monkeypatch.setattr(Fraction, name, counting(f"Fraction.{name}", getattr(Fraction, name)))
    for name in ("require_canonical", "_as_index_tuple"):
        real = getattr(core, name)
        for module in (core, ballean, cli, dendrogram, dlps, harness):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    return counts
