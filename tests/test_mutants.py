"""Mutation tests for `verify`: each library mutant must fail the checks named.

A check that no wrong program can fail proves nothing (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978).  Each mutant is patched in
the library module that defines it and in every module that imports it by
name.  Every check id H1-H12 is in the failing set of some mutant.
"""

from bisect import bisect_right
from dataclasses import replace

import pytest

from ultraball import ballean, core, dendrogram, dlps, harness
from ultraball.ballean import _cases_rank, ballean_space, smallest_ball_distance
from ultraball.core import ZERO, Ball, BallRelation, FiniteUltrametricSpace, _relation, _scan_ball, parse_rational
from ultraball.dendrogram import _balls
from ultraball.dlps import Singleton, Truncation
from ultraball.harness import CHECKS, TrialConfig, run_suite


def _patch(monkeypatch, owner, name, mutant):
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, mutant)
    for target in (core, ballean, dendrogram, dlps, harness):
        if getattr(target, name, None) is real:
            monkeypatch.setattr(target, name, mutant)


def _failed(config):
    return {c.check_id for c in run_suite(config).checks if c.failures}


def _with_ranks(space, rank):
    """``space`` with each off-diagonal rank k of balls s, t replaced by rank(s, t, k)."""
    rows = [[k if s == t else rank(s, t, k) for t, k in enumerate(row)] for s, row in enumerate(space.ranks)]
    return FiniteUltrametricSpace(space.labels, space.levels, tuple(map(tuple, rows)))


def test_a_ballean_matrix_with_wrong_ranks_fails_h2(monkeypatch):
    # Lowering every rank at or above zero + 2 keeps the axioms and the least
    # positive distance, so only the comparisons with other routes see it:
    # H1's with the sup-inf definition and H2's with the rows read off the
    # space's merges, which the mutant changes after they are read.
    real = ballean.ballean_space

    def lowered(space):
        b = real(space)
        return _with_ranks(b, lambda s, t, k: k - 1 if k >= b.zero + 2 else k)

    _patch(monkeypatch, ballean, "ballean_space", lowered)
    assert _failed(TrialConfig(trials=60)) == {"H1", "H2"}


def _pair_0_1_zeroed(b):
    return _with_ranks(b, lambda s, t, k: b.zero if {s, t} == {0, 1} else k)


def test_a_zeroed_ballean_pair_fails_h11_and_h2(monkeypatch):
    real = ballean.ballean_space
    _patch(monkeypatch, ballean, "ballean_space", lambda space: _pair_0_1_zeroed(real(space)))
    assert {"H2", "H11"} <= _failed(TrialConfig(trials=20))


def _union_for_smallest_ball(space, b1, b2):
    # The union of two disjoint balls is mostly no ball; the value stays right,
    # so only H3's comparison with the smallest table ball sees it.
    bstar, value = smallest_ball_distance(space, b1, b2)
    return Ball(tuple(sorted({*b1.members, *b2.members})), value), value


def _smaller_rank_when_nested(space, m1, k1, m2, k2):
    if _relation(m1, m2) in (BallRelation.EQUAL, BallRelation.DISJOINT):
        return _cases_rank(space, m1, k1, m2, k2)
    return min(k1, k2)


def _min_for_the_first_sup(space, a, b):
    # The sup-inf with its first outer max turned into a min.  On a nested
    # pair with the smaller ball first, that half is 0 either way.
    block = [tuple(map(space.ranks[x].__getitem__, b)) for x in a]
    return max(min(map(min, block)), max(map(min, zip(*block))))


def _least_rank_for_diam(space, idx):
    return min(map(space.ranks[idx[0]].__getitem__, idx))


def _balls_by_reversed_members(n, merges):
    balls = _balls(n, merges)
    return balls[:n] + sorted(balls[n:], key=lambda ball: (len(ball[0]), ball[0][::-1]))


def _one_rank_too_far(space, center, radius):
    return _scan_ball(space, center, bisect_right(space.levels, parse_rational(radius)))


def _min_positive_skipping_row_0(space):
    upper = [k for i, row in enumerate(space.ranks) if i for k in row[i + 1 :] if k > space.zero]
    return space.levels[min(upper)] if upper else None


_restrict = FiniteUltrametricSpace.restrict


def _reversed_restrict(space, indices):
    return _restrict(space, tuple(indices)[::-1])


def _zeroed_above_12_points(space):
    b = ballean_space(space)
    return b if space.n <= 12 else _pair_0_1_zeroed(b)


def _levels_doubled(space):
    # Same ranks, every distance twice as far: still ultrametric, so only
    # H1's and H2's levels comparisons and the distances H7 and H8 read see it.
    b = ballean_space(space)
    return FiniteUltrametricSpace(b.labels, tuple(2 * v for v in b.levels), b.ranks)


def _raising(*args):
    raise AssertionError("mutant raised")


# name: (owner, attribute, mutant, the checks it fails at TrialConfig(trials=20)).
# Each mutant calls the real functions, bound here at import.
FINITE_MUTANTS = {
    "union for the smallest ball": (ballean, "smallest_ball_distance", _union_for_smallest_ball, {"H3"}),
    "nested balls at the smaller diameter": (ballean, "_cases_rank", _smaller_rank_when_nested, {"H1"}),
    "sup-inf with a min for the first sup": (ballean, "_oracle_rank", _min_for_the_first_sup, {"H1"}),
    "diameter as the least distance": (core, "_diam_rank", _least_rank_for_diam, {"H4"}),
    # The ballean's rows follow the walk's order, so H1's sup-inf cells, in table order, see it.
    "walk by reversed members": (dendrogram, "_balls", _balls_by_reversed_members, {"H1", "H5"}),
    # bisect_left instead is equivalent at radius 0, the one radius verify asks for.
    "closed ball one rank too far": (core, "closed_ball", _one_rank_too_far, {"H6"}),
    "least distance skipping row 0": (ballean, "min_positive_distance", _min_positive_skipping_row_0, {"H7", "H10"}),
    "isometric always": (dendrogram, "are_isometric", lambda s1, s2: True, {"H8"}),
    "isometry test raises": (dendrogram, "are_isometric", _raising, {"H8"}),
    "restriction reversed": (FiniteUltrametricSpace, "restrict", _reversed_restrict, {"H9"}),
    "ballean pair zeroed above 12 points": (ballean, "ballean_space", _zeroed_above_12_points, {"H12"}),
    "ballean levels doubled": (ballean, "ballean_space", _levels_doubled, {"H1", "H2", "H7", "H8"}),
}


@pytest.mark.parametrize("mutant", list(FINITE_MUTANTS))
def test_each_finite_mutant_fails_the_checks_named(mutant, monkeypatch):
    owner, name, replacement, expected = FINITE_MUTANTS[mutant]
    _patch(monkeypatch, owner, name, replacement)
    assert _failed(TrialConfig(trials=20)) == expected


def test_every_check_fails_on_some_mutant():
    caught = {"H2", "H11", "H10"}.union(*(expected for *_, expected in FINITE_MUTANTS.values()))
    assert caught == set(CHECKS)


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
    "symbolic distance raises": ("dlps_hausdorff", _raising),
}


@pytest.mark.parametrize("mutant", list(H10_MUTANTS))
def test_h10_catches_each_mutant_of_the_symbolic_model(mutant, monkeypatch):
    name, replacement = H10_MUTANTS[mutant]
    _patch(monkeypatch, dlps, name, replacement)
    assert _failed(TrialConfig(checks=("H10",))) == {"H10"}
