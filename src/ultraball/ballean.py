"""The ballean of a finite ultrametric space and exact Hausdorff distances.

The ballean is the set of all distinct closed balls.  Between two distinct
balls the Hausdorff distance collapses to the diameter of their union; this
module also carries the raw sup-inf definition and the disjoint/nested case
split so the three routes can be checked against each other.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .core import (
    ZERO,
    BadParamsError,
    Ball,
    BallRelation,
    EqualBallsError,
    FamilyTooSmallError,
    FiniteUltrametricSpace,
    _as_index_tuple,
    _ball,
    ball_labels,
    ball_relation,
    closed_ball,
    diam,
    require_canonical,
    smallest_ball,
)

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
    a_idx = _as_index_tuple(space, a)
    b_idx = _as_index_tuple(space, b)
    dist = space.dist
    forward = max(min(dist[x][y] for y in b_idx) for x in a_idx)
    backward = max(min(dist[x][y] for x in a_idx) for y in b_idx)
    return max(forward, backward)


def hausdorff_by_cases(space: FiniteUltrametricSpace, b1: Ball, b2: Ball) -> Fraction:
    """Hausdorff distance via :func:`ball_relation`'s case split: zero for equal
    balls, the larger diameter for nested ones, the gap between disjoint ones."""
    relation = ball_relation(space, b1, b2)
    if relation is BallRelation.EQUAL:
        return ZERO
    if relation is not BallRelation.DISJOINT:
        return max(b1.diameter, b2.diameter)
    dist = space.dist
    return min(dist[x][y] for x in b1.members for y in b2.members)


def hausdorff_balls(space: FiniteUltrametricSpace, b1: Ball, b2: Ball) -> Fraction:
    """Hausdorff distance between two balls: the diameter of their union."""
    k1, k2 = require_canonical(space, b1), require_canonical(space, b2)
    if b1.members == b2.members:
        return space.levels[space.zero]
    # In an ultrametric space diam(A | B) = max(diam A, diam B, d(a, b))
    # for any a in A and b in B.
    return space.levels[max(k1, k2, space.ranks[b1.members[0]][b2.members[0]])]


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
    bstar = _ball(space, b1.members[0], max(k1, k2, space.ranks[b1.members[0]][b2.members[0]]))
    return bstar, bstar.diameter


def ballean_space(space: FiniteUltrametricSpace) -> FiniteUltrametricSpace:
    """The ballean as a space of its own: points are balls, distances are
    Hausdorff distances.

    Every Hausdorff distance between balls is a distance of the space, and
    each positive distance is one: the diameter of the smallest ball holding
    its two points, which is that far from a maximal proper sub-ball.  So the
    result keeps the space's levels.  It is built directly from the ball list
    and not revalidated here, so checking it against the ultrametric axioms
    stays a meaningful test rather than a tautology.  It is built once per
    space and cached on it, as the ball table is.
    """
    cache = space.__dict__
    if "_ballean" not in cache:
        cache["_ballean"] = _build_ballean(space)
    return cache["_ballean"]


def _build_ballean(space: FiniteUltrametricSpace) -> FiniteUltrametricSpace:
    balls = enumerate_ballean(space)
    labels = ball_labels(space.labels, [b.members for b in balls])
    m = len(balls)
    # hausdorff_balls's rank of each pair, reading each ball's rank and first point
    # once.  Balls come by (size, members): for i < j ball i lies in ball j or
    # misses it, so top_i <= max(top_j, d(f_i, f_j)) and one comparison does.
    rank, ranks = space.ball_table.rank, space.ranks
    tops, firsts = [rank[b.members] for b in balls], [b.members[0] for b in balls]
    rows = [[space.zero] * m for _ in range(m)]
    for i in range(m):
        at, row = ranks[firsts[i]], rows[i]
        for j in range(i + 1, m):
            k, t = at[firsts[j]], tops[j]
            if k < t:
                k = t
            row[j] = rows[j][i] = k
    return FiniteUltrametricSpace(labels, space.levels, tuple(map(tuple, rows)))


_MAX_DEPTH = 3


def iterate_ballean(space: FiniteUltrametricSpace, depth: int) -> FiniteUltrametricSpace:
    """Apply the ballean-space construction `depth` times, for 0 <= depth <= 3.

    Each round adds one point per internal node of the merge tree (a binary
    10-point space grows 10, 19, 28, 37), so a round costs more than the
    last; deeper towers raise BadParamsError.  :func:`dendrogram.ballean_tree`
    builds towers of any depth from the merge tree, without matrices.
    """
    if not 0 <= depth <= _MAX_DEPTH:
        raise BadParamsError(f"iteration depth must be between 0 and {_MAX_DEPTH}, got {depth}")
    out = space
    for _ in range(depth):
        out = ballean_space(out)
    return out


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
    # The max over pairs of hausdorff_balls's rank, reading each ball's rank once.
    ranks, firsts = space.ranks, [members[0] for members in distinct]
    hd = space.levels[max(max(tops), max(ranks[x][y] for x, y in combinations(firsts, 2)))]
    union = set().union(*distinct)  # diam and smallest_ball each sort it
    ud = diam(space, union)
    sd = smallest_ball(space, union).diameter
    # Levels of one space: equal ones are mostly one object, and `is` spares
    # Fraction.__eq__; a mismatch still compares by value.
    if not ((hd is ud or hd == ud) and (ud is sd or ud == sd)):
        raise AssertionError(
            f"family diameters disagree: hausdorff={hd}, union={ud}, smallest-ball={sd}"
        )
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
