"""The ballean of a finite ultrametric space and exact Hausdorff distances.

The ballean is the set of all distinct closed balls.  Between two distinct
balls the Hausdorff distance collapses to the diameter of their union; this
module also carries the raw sup-inf definition and the disjoint/nested case
split so the three routes can be checked against each other.  The ballean
as a space, and its iterates, are read off the space's merges alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .core import (
    ZERO,
    BadParamsError,
    Ball,
    BallRelation,
    EqualBallsError,
    FamilyTooSmallError,
    FiniteUltrametricSpace,
    Members,
    _as_index_tuple,
    _ball,
    _diam_rank,
    _relation,
    ball_labels,
    closed_ball,
    require_canonical,
)
from .dendrogram import T, _ballean_merges, _ballean_rows


def enumerate_ballean(space: FiniteUltrametricSpace) -> tuple[Ball, ...]:
    """Every closed ball of the space, one entry per distinct member set,
    sorted by (size, members): the space's ball table.  There are at most
    2n-1 of them; check H5 tests that bound."""
    return space.ball_table.balls


def hausdorff_oracle(
    space: FiniteUltrametricSpace, a: Iterable[int], b: Iterable[int]
) -> Fraction:
    """Hausdorff distance between two nonempty point sets, straight from the
    two-sided sup-inf definition.  Works on arbitrary subsets, not only balls."""
    return space.levels[_oracle_rank(space, _as_index_tuple(space, a), _as_index_tuple(space, b))]


def _oracle_rank(space: FiniteUltrametricSpace, a: Sequence[int], b: Sequence[int]) -> int:
    """:func:`hausdorff_oracle`'s rank: the sup-inf over every cell of the
    a x b block of ranks, both ways, with no ultrametric shortcut."""
    block = [tuple(map(space.ranks[x].__getitem__, b)) for x in a]
    return max(max(map(min, block)), max(map(min, zip(*block))))


def hausdorff_by_cases(space: FiniteUltrametricSpace, b1: Ball, b2: Ball) -> Fraction:
    """Hausdorff distance via :func:`ball_relation`'s case split: zero for equal
    balls, the larger diameter for nested ones, the gap between disjoint ones."""
    k1, k2 = require_canonical(space, b1), require_canonical(space, b2)
    return space.levels[_cases_rank(space, b1.members, k1, b2.members, k2)]


def _cases_rank(space: FiniteUltrametricSpace, m1: Members, k1: int, m2: Members, k2: int) -> int:
    """:func:`hausdorff_by_cases`'s rank for balls with members m1, m2 and diameter ranks k1, k2."""
    relation = _relation(m1, m2)
    if relation is BallRelation.EQUAL:
        return space.zero
    if relation is not BallRelation.DISJOINT:
        return max(k1, k2)
    return min(min(map(space.ranks[x].__getitem__, m2)) for x in m1)


def hausdorff_balls(space: FiniteUltrametricSpace, b1: Ball, b2: Ball) -> Fraction:
    """Hausdorff distance between two balls: the diameter of their union."""
    k1, k2 = require_canonical(space, b1), require_canonical(space, b2)
    return space.levels[_union_rank(space, b1.members, k1, b2.members, k2)]


def _union_rank(space: FiniteUltrametricSpace, m1: Members, k1: int, m2: Members, k2: int) -> int:
    """:func:`hausdorff_balls`'s rank for balls with members m1, m2 and diameter ranks k1, k2:
    in an ultrametric space diam(A | B) = max(diam A, diam B, d(a, b)) for any a in A, b in B."""
    if m1 == m2:
        return space.zero
    return max(k1, k2, space.ranks[m1[0]][m2[0]])


def smallest_ball_distance(
    space: FiniteUltrametricSpace, b1: Ball, b2: Ball
) -> tuple[Ball, Fraction]:
    """The smallest ball containing two distinct balls, with its diameter.

    The diameter equals the Hausdorff distance between the balls.
    """
    k1, k2 = require_canonical(space, b1), require_canonical(space, b2)
    if b1.members == b2.members:
        raise EqualBallsError("the two balls must be distinct")
    # Every point of b1 is a center of the ball of radius diam(b1 | b2).
    bstar = _ball(space, b1.members[0], _union_rank(space, b1.members, k1, b2.members, k2))
    return bstar, bstar.diameter


def ballean_space(space: FiniteUltrametricSpace) -> FiniteUltrametricSpace:
    """The ballean as a space of its own: points are balls, distances are
    Hausdorff distances.

    Every Hausdorff distance between balls is a distance of the space, and
    each positive distance is one: the diameter of the smallest ball holding
    its two points, which is that far from a maximal proper sub-ball.  So the
    result keeps the space's levels.  Its rows are read off the space's merges
    and not revalidated here, so validating it tests that reading; check H1
    compares the cells it samples with the sup-inf definition.  It is built
    once per space and cached on it, as the ball table is.
    """
    cache = space.__dict__
    if "_ballean" not in cache:
        cache["_ballean"] = _ballean_of(space, 1)
    return cache["_ballean"]


_MAX_DEPTH = 3


def iterate_ballean(space: FiniteUltrametricSpace, depth: int) -> FiniteUltrametricSpace:
    """Apply the ballean-space construction `depth` times, for 0 <= depth <= 3.

    Each round adds one point per internal node of the merge tree (a binary
    10-point space grows 10, 19, 28, 37), so a round costs more than the
    last; deeper towers raise BadParamsError.  :func:`dendrogram.ballean_tree`
    builds the towers' merge trees at any depth, without matrices.
    """
    if not 0 <= depth <= _MAX_DEPTH:
        raise BadParamsError(f"iteration depth must be between 0 and {_MAX_DEPTH}, got {depth}")
    if depth < 2:
        return ballean_space(space) if depth else space
    return _ballean_of(space, depth)


def _ballean_of(space: FiniteUltrametricSpace, depth: int) -> FiniteUltrametricSpace:
    labels, balls, rows = _ballean_tower(space, depth, range(len(space.levels)))
    return FiniteUltrametricSpace(ball_labels(labels, balls), space.levels, tuple(rows))


def _ballean_tower(
    space: FiniteUltrametricSpace, depth: int, cells: Sequence[T]
) -> tuple[tuple[str, ...], list[Members], list[tuple[T, ...]]]:
    """The labels of the (depth-1)-th ballean, for depth >= 1, and the balls and
    rows of its ballean, each rank k written as ``cells[k]``: every ballean
    builder's core.  Each level's merges are the last level's with each node's
    own ball as a last child."""
    labels, merges = space.labels, space.split[0]
    for _ in range(depth - 1):  # merge lists by construction: nothing to check
        labels, merges = _ballean_merges(labels, merges)
    return (labels, *_ballean_rows(len(labels), merges, cells))


def family_diameters(
    space: FiniteUltrametricSpace, family: Iterable[Ball]
) -> tuple[Fraction, Fraction, Fraction]:
    """Three diameters of a family of at least two distinct balls.

    Returns (diameter of the family under the Hausdorff distance, diameter
    of the union of the balls, diameter of the smallest ball containing the
    union).  The three are provably equal and the function insists on it.
    """
    by_members = {b.members: b for b in family}
    distinct = sorted(by_members)  # member tuples; the first foreign one is reported
    if len(distinct) < 2:
        raise FamilyTooSmallError(
            "need at least two distinct balls; for a lone ball the three "
            "diameters agree only when the ball is a singleton"
        )
    tops = [require_canonical(space, by_members[members]) for members in distinct]
    return tuple(map(space.levels.__getitem__, _family_ranks(space, list(zip(distinct, tops)))))


def _family_ranks(space: FiniteUltrametricSpace, family: Sequence[tuple[Members, int]]) -> tuple[int, int, int]:
    """:func:`family_diameters`'s three ranks for distinct balls given as
    (members, diameter rank) pairs; AssertionError, naming the levels,
    unless they are equal."""
    # The max over pairs of _union_rank, reading each ball's rank once.
    ranks, firsts = space.ranks, [members[0] for members, _ in family]
    hd = max([ranks[x][y] for x, y in combinations(firsts, 2)] + [k for _, k in family])
    union = sorted(set().union(*(members for members, _ in family)))
    ud = _diam_rank(space, union)
    sd = _diam_rank(space, _ball(space, union[0], ud).members)  # smallest_ball's
    if not hd == ud == sd:
        hd, ud, sd = (space.levels[k] for k in (hd, ud, sd))  # the message names levels
        raise AssertionError(f"family diameters disagree: hausdorff={hd}, union={ud}, smallest-ball={sd}")
    return hd, ud, sd


def singleton_embedding(space: FiniteUltrametricSpace) -> dict[int, Ball]:
    """Map each point index to its singleton ball and check the map is an isometry."""
    mapping = {i: closed_ball(space, i, ZERO) for i in range(space.n)}
    labels = space.labels
    for i in range(space.n):
        for j in range(i + 1, space.n):
            h, d = hausdorff_balls(space, mapping[i], mapping[j]), space.d(i, j)
            if h is not d and h != d:
                raise AssertionError(
                    f"singleton embedding failed to preserve d({labels[i]},{labels[j]})"
                )
    return mapping


def min_positive_distance(space: FiniteUltrametricSpace) -> Fraction | None:
    """Smallest positive pairwise distance, or None for a one-point space."""
    upper = (k for i, row in enumerate(space.ranks) for k in row[i + 1 :] if k > space.zero)
    k = min(upper, default=None)
    return None if k is None else space.levels[k]
