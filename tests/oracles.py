"""Independent brute-force reference implementations, used only by tests.

These deliberately avoid the shortcuts the library takes: diameters are
full pairwise maxima, isometry is a search over all bijections, and ball
detection scans every subset.  They stay slow so they stay trustworthy.
The per-call ball routes at the end are the ones the ball table replaced;
they rebuild every ball from ``closed_ball`` on every call.
"""

from itertools import combinations, permutations

from ultraball.core import (
    ZERO,
    FiniteUltrametricSpace,
    ForeignBallError,
    _as_index_tuple,
    closed_ball,
)


def diam_pairwise(space: FiniteUltrametricSpace, subset) -> object:
    idx = sorted(set(subset))
    if len(idx) == 1:
        return ZERO
    return max(space.dist[i][j] for i, j in combinations(idx, 2))


def brute_isometric(s1: FiniteUltrametricSpace, s2: FiniteUltrametricSpace) -> bool:
    if s1.n != s2.n:
        return False
    n = s1.n
    for perm in permutations(range(n)):
        if all(
            s1.dist[i][j] == s2.dist[perm[i]][perm[j]]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def balls_by_subset_scan(space: FiniteUltrametricSpace) -> set:
    """Member sets of all balls, by testing every subset.

    A nonempty subset S is a ball exactly when, from every one of its
    points, the points within diam(S) are precisely S.
    """
    n = space.n
    found = set()
    for bits in range(1, 2**n):
        subset = tuple(i for i in range(n) if bits >> i & 1)
        radius = diam_pairwise(space, subset)
        if all(
            tuple(x for x in range(n) if space.dist[c][x] <= radius) == subset
            for c in subset
        ):
            found.add(subset)
    return found


def enumerate_ballean_reference(space: FiniteUltrametricSpace) -> tuple:
    """Balls sorted by (size, members), one closed_ball per center and radius."""
    by_members = {}
    for c in range(space.n):
        radii = set(space.dist[c])
        radii.add(ZERO)
        for r in radii:
            b = closed_ball(space, c, r)
            by_members[b.members] = b
    balls = tuple(sorted(by_members.values(), key=lambda b: (len(b.members), b.members)))
    if len(balls) > 2 * space.n - 1:
        raise AssertionError("ballean exceeded the 2n-1 bound")
    return balls


def require_canonical_reference(space: FiniteUltrametricSpace, ball) -> None:
    """Raise ForeignBallError unless closed_ball rebuilds the ball from its first member."""
    if not ball.members:
        raise ForeignBallError("a ball must have at least one member")
    members = _as_index_tuple(space, ball.members)
    if members != tuple(ball.members):
        raise ForeignBallError(f"ball members must be sorted distinct indices: {ball.members}")
    if closed_ball(space, members[0], ball.diameter) != ball:
        raise ForeignBallError(f"{ball} is not a canonical ball of this space")
