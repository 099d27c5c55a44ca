"""The ball table against the per-call routes it replaced.

Matrices here are arbitrary square integer matrices, not only ultrametric
ones: nonzero diagonals, negative and asymmetric entries all reach the
table through replayed spaces, and there it must fail exactly as the
per-call routes did.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import diam_pairwise, enumerate_ballean_reference, require_canonical_reference
from ultraball.ballean import enumerate_ballean, hausdorff_balls
from ultraball.core import Ball, require_canonical, space_from_json_dict
from ultraball.dendrogram import random_space

POOL = ("1", "3/2", "2", "3", "7/2", "4")

# Half the matrices draw no negative entry, so that the runs past the
# radius errors (and the 2n-1 bound) get exercised too.
square_matrices = st.tuples(st.integers(1, 6), st.sampled_from((-1, 0))).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(shape[1], 4), min_size=shape[0], max_size=shape[0]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


def _space(matrix):
    labels = [f"p{i}" for i in range(len(matrix))]
    return space_from_json_dict({"labels": labels, "matrix": matrix}, validate=False)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the verdicts under comparison include the error type
        return (type(exc).__name__, str(exc))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(matrix=square_matrices)
def test_enumerate_ballean_matches_per_center_loop(matrix):
    space = _space(matrix)
    got = _outcome(lambda s: enumerate_ballean(s).balls, space)
    assert got == _outcome(enumerate_ballean_reference, space)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(matrix=square_matrices, data=st.data())
def test_require_canonical_matches_per_call_check(matrix, data):
    space = _space(matrix)
    n = space.n
    # A float diameter and list members: the wrong field types.
    candidates = list(space.ball_table.balls) + [Ball((0,), 0.0), Ball([0], Fraction(0))]
    for _ in range(8):
        members = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 1))
        if data.draw(st.booleans()):
            members = sorted(set(members))
        candidates.append(Ball(tuple(members), Fraction(data.draw(st.integers(-1, 4)))))
    for ball in candidates:
        got = _outcome(require_canonical, space, ball)
        assert got == _outcome(require_canonical_reference, space, ball), ball


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 9))
def test_hausdorff_balls_is_union_diameter(seed, n):
    space = random_space(seed, n, POOL)
    balls = enumerate_ballean(space).balls
    for b1, b2 in combinations(balls, 2):
        expected = diam_pairwise(space, b1.members + b2.members)
        assert hausdorff_balls(space, b1, b2) == expected
        assert hausdorff_balls(space, b2, b1) == expected
