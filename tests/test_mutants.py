"""Mutation tests for `verify`: each library mutant must fail the checks named.

A check that no wrong program can fail proves nothing (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978).  Each mutant is patched in
the library module that defines it and in `ultraball.harness`, which
imports it by name.
"""

from dataclasses import replace

import pytest

from ultraball import ballean, dlps, harness
from ultraball.core import ZERO, FiniteUltrametricSpace
from ultraball.dlps import Singleton, Truncation
from ultraball.harness import TrialConfig, run_suite


def _patch(monkeypatch, module, name, mutant):
    for target in (module, harness):
        monkeypatch.setattr(target, name, mutant)


def _failed(config):
    return {c.check_id for c in run_suite(config).checks if c.failures}


def _with_ranks(space, rank):
    """``space`` with each off-diagonal rank k of balls s, t replaced by rank(s, t, k)."""
    rows = [[k if s == t else rank(s, t, k) for t, k in enumerate(row)] for s, row in enumerate(space.ranks)]
    return FiniteUltrametricSpace(space.labels, space.levels, tuple(map(tuple, rows)))


def test_a_ballean_matrix_with_wrong_ranks_fails_h2(monkeypatch):
    # Lowering every rank at or above zero + 2 keeps the axioms and the least
    # positive distance, so only H2's comparison with the tree route sees it.
    real = ballean.ballean_space

    def lowered(space):
        b = real(space)
        return _with_ranks(b, lambda s, t, k: k - 1 if k >= b.zero + 2 else k)

    _patch(monkeypatch, ballean, "ballean_space", lowered)
    assert _failed(TrialConfig(trials=60)) == {"H2"}


def test_a_zeroed_ballean_pair_fails_h11_and_h2(monkeypatch):
    real = ballean.ballean_space

    def zeroed(space):
        b = real(space)
        return _with_ranks(b, lambda s, t, k: b.zero if {s, t} == {0, 1} else k)

    _patch(monkeypatch, ballean, "ballean_space", zeroed)
    assert {"H2", "H11"} <= _failed(TrialConfig(trials=20))


def _analysis(change):
    real = dlps.dlps_ballean_analysis
    return lambda space: change(space, real(space))


def _negated(name):
    real = getattr(dlps, name)
    return name, lambda space: not real(space)


H10_MUTANTS = {
    "wrong accumulation ball": (
        "dlps_ballean_analysis",
        _analysis(lambda s, r: replace(r, ballean_acc=frozenset(Singleton(b.value + 1) for b in r.ballean_acc))),
    ),
    "truncation for singleton": (
        "dlps_ballean_analysis",
        _analysis(lambda s, r: replace(r, ballean_acc=frozenset(Truncation(b.value) for b in r.ballean_acc))),
    ),
    "metrically discrete ballean": (
        "dlps_ballean_analysis",
        _analysis(lambda s, r: replace(r, ballean_metrically_discrete=True)),
    ),
    "ballean discreteness negated": (
        "dlps_ballean_analysis",
        _analysis(lambda s, r: replace(r, ballean_discrete=not r.ballean_discrete)),
    ),
    "ballean discreteness from the tails": (
        "dlps_ballean_analysis",
        _analysis(lambda s, r: replace(r, ballean_discrete=not s.tails)),
    ),
    "zero always accumulates": (
        "dlps_acc",
        lambda space: frozenset({ZERO}) if space.has_zero else frozenset(),
    ),
    "discreteness negated": _negated("dlps_is_discrete"),
    "metrical discreteness negated": _negated("dlps_is_metrically_discrete"),
    "local finiteness negated": _negated("dlps_is_locally_finite"),
    "bounded compactness negated": _negated("dlps_is_boundedly_compact"),
    "ball counts always infinite": ("dlps_ball_count_at_most", lambda space, threshold: None),
}


@pytest.mark.parametrize("mutant", list(H10_MUTANTS))
def test_h10_catches_each_mutant_of_the_symbolic_model(mutant, monkeypatch):
    name, replacement = H10_MUTANTS[mutant]
    _patch(monkeypatch, dlps, name, replacement)
    assert _failed(TrialConfig(checks=("H10",))) == {"H10"}
