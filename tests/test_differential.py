"""The ball table and the integer-rank routes against the routes they
replaced.

Parsing, ranks, ``closed_ball``, ``diam``, ``smallest_ball`` and H3's body
take arbitrary square rational matrices here (nonzero diagonals, negative
and asymmetric entries), loaded without validation as a replay is, and must
answer or fail exactly as the routes they replaced.  The ball table is
defined on ultrametric spaces only, so the routes that read it are compared
on generated spaces.
"""

import random
import re
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    build_dendrogram_reference,
    caterpillar,
    caterpillar_tree,
    closed_ball_reference,
    diam_pairwise,
    diam_reference,
    enumerate_ballean_reference,
    family_diameters_reference,
    body_h3_reference,
    body_h9_reference,
    body_h11_reference,
    ballean_walk_reference,
    canonical_code_reference,
    dendrogram_to_space_reference,
    find_violation_reference,
    format_dendrogram_reference,
    hausdorff_by_cases_reference,
    hausdorff_oracle_reference,
    is_binary_reference,
    node_leaf_sets_reference,
    parse_space_reference,
    random_binary_space_reference,
    random_space_reference,
    require_canonical_reference,
    smallest_ball_reference,
    triangle_scan_reference,
)
from ultraball import ballean as ballean_module
from ultraball.ballean import (
    _cases_rank,
    ballean_space,
    enumerate_ballean,
    family_diameters,
    hausdorff_balls,
    hausdorff_by_cases,
    hausdorff_oracle,
    iterate_ballean,
    singleton_embedding,
    smallest_ball_distance,
)
from ultraball.core import (
    Ball,
    BadParamsError,
    EqualBallsError,
    FiniteUltrametricSpace,
    _ball,
    _diam_rank,
    _parse_space,
    _scan_ball,
    _parse_space_json,
    closed_ball,
    diam,
    equidistant_space,
    find_violation,
    parse_rational,
    require_canonical,
    smallest_ball,
)
from ultraball import dendrogram, harness
from ultraball.harness import DEFAULT_LEVEL_POOL, _body_h3, _body_h9, _body_h11
from ultraball.dendrogram import (
    Dendrogram,
    Leaf,
    Merge,
    _ballean_merges,
    _ballean_rows,
    _balls,
    _bracket,
    _code,
    _fold_merges,
    _parse_pool,
    _space_text,
    _walk,
    are_isometric,
    ballean_tree,
    build_dendrogram,
    canonical_code,
    dendrogram_to_space,
    format_dendrogram,
    random_binary_space,
    random_space,
)

POOL = ("1", "3/2", "2", "3", "7/2", "4")


def _entries(low):
    return st.sampled_from(list(range(low, 5)) + ([Fraction(-1, 2)] if low < 0 else []))


# Half the matrices draw no negative entry, so that radii past the
# negative-radius errors get exercised too.
square_matrices = st.tuples(st.integers(1, 6), st.sampled_from((-3, 0))).flatmap(
    lambda shape: st.lists(
        st.lists(_entries(shape[1]), min_size=shape[0], max_size=shape[0]),
        min_size=shape[0],
        max_size=shape[0],
    )
)

RATIONALS = tuple(
    Fraction(v) for v in ("-3", "-1/2", "0", "1/3", "1/2", "1", "3/2", "2", "7/3", "4")
)


@st.composite
def rational_matrices(draw):
    """Square rational matrices, made symmetric or given a zero diagonal
    often enough that every axiom scan, up to the strong triangle, is reached."""
    n = draw(st.integers(1, 6))
    values = st.sampled_from(RATIONALS)
    if draw(st.booleans()):
        values = st.sampled_from([v for v in RATIONALS if v > 0])
    rows = [[draw(values) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = Fraction(0)
    return rows


def _space(matrix):
    labels = [f"p{i}" for i in range(len(matrix))]
    return _parse_space_json({"labels": labels, "matrix": matrix})


# Generated spaces are ultrametric by construction.
valid_spaces = st.builds(
    lambda seed, n, binary: random_binary_space(seed, n) if binary else random_space(seed, n, POOL),
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.booleans(),
)


@st.composite
def table_spaces(draw):
    """Spaces on which the ball table skips many centers: the generated ones
    above, binary and shallow ones up to 40 points, caterpillars, and
    balleans, towers and restrictions, which rank into a base's levels."""
    kind = draw(st.sampled_from(("small", "large", "caterpillar", "ballean", "tower", "restrict")))
    if kind == "large":
        seed, n = draw(st.integers(0, 10**6)), draw(st.integers(9, 40))
        return random_binary_space(seed, n) if draw(st.booleans()) else random_space(seed, n, POOL)
    if kind == "caterpillar":
        return caterpillar(draw(st.integers(1, 40)))
    base = draw(valid_spaces)
    if kind == "ballean":
        return ballean_space(base)
    if kind == "tower":
        return iterate_ballean(base, 2)
    if kind == "restrict":  # in drawn order, so a ball's smallest member moves
        return base.restrict(draw(st.permutations(range(base.n)))[: draw(st.integers(1, base.n))])
    return base


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the verdicts under comparison include the error type
        return (type(exc).__name__, str(exc))


def _body_verdict(body, space):
    """A check body's outcome on a space, a failure text reduced to True:
    two bodies that test one claim may word or order their failures apart."""
    kind, value = _outcome(body, space, lambda: random.Random(0))
    return (kind, value is not None) if kind == "ok" else (kind, value)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(space=table_spaces())
def test_enumerate_ballean_matches_per_center_loop(space):
    got = _outcome(enumerate_ballean, space)
    assert got == _outcome(enumerate_ballean_reference, space)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(space=table_spaces(), data=st.data())
def test_require_canonical_matches_per_call_check(space, data):
    n = space.n
    # A float or bool diameter, list members and float members equal to a
    # table ball's: the wrong field types.  An int diameter is a rational, as
    # everywhere else, and bool members are ints.
    balls = space.ball_table.balls
    candidates = list(balls) + [Ball((0,), 0.0), Ball((0,), False), Ball([0], Fraction(0))]
    candidates += [Ball(tuple(map(float, b.members)), b.diameter) for b in balls[:3]]
    candidates += [Ball(tuple(map(bool, b.members)), b.diameter) for b in balls if b.members in ((0,), (1,))]
    candidates += [Ball(b.members, int(b.diameter)) for b in balls if b.diameter.denominator == 1]
    for _ in range(8):
        members = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 1))
        if data.draw(st.booleans()):
            members = sorted(set(members))
        diameter = data.draw(st.integers(-1, 4))
        candidates.append(Ball(tuple(members), data.draw(st.sampled_from((diameter, Fraction(diameter))))))
    for ball in candidates:
        got = _outcome(require_canonical, space, ball)
        want = _outcome(require_canonical_reference, space, ball)
        if want == ("ok", None):  # the check hands back the rank of the diameter
            want = ("ok", space.ball_table.rank[ball.members])
        assert got == want, ball


@settings(max_examples=400, deadline=None, derandomize=True)
@given(space=table_spaces())
def test_table_balls_bisected_from_the_chains_match_the_row_scan(space):
    # _ball answers with the table's own ball, where closed_ball and
    # smallest_ball scan the center's row; below rank 0 both raise.
    table = {id(b) for b in space.ball_table.balls}
    for c in range(space.n):
        for k in range(space.zero - 1, len(space.levels)):
            got = _outcome(_ball, space, c, k)
            assert got == _outcome(_scan_ball, space, c, k), (c, k)
            assert got[0] == "EmptySubsetError" if k < space.zero else id(got[1]) in table, (c, k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(space=table_spaces())
def test_smallest_ball_distance_matches_the_union_scan(space):
    # The smallest ball is built from the two balls' checked ranks; the
    # reference sorts their union and scans it as Fractions.
    balls = space.ball_table.balls
    for b1, b2 in combinations(balls, 2):
        for x, y in ((b1, b2), (b2, b1)):
            bstar, value = smallest_ball_distance(space, x, y)
            assert bstar == smallest_ball_reference(space, x.members + y.members), (x, y)
            assert value == hausdorff_oracle(space, x.members, y.members), (x, y)
    for b in balls:
        with pytest.raises(EqualBallsError):
            smallest_ball_distance(space, b, b)
    # Too wide a radius, repeated members, no members, a point out of range.
    foreign = [Ball(b.members, b.diameter + 1) for b in balls]
    foreign += [Ball((0, 0), Fraction(0)), Ball((), Fraction(0)), Ball((space.n,), Fraction(0))]
    for ball in foreign:
        want = _outcome(require_canonical_reference, space, ball)
        assert want[0] != "ok", ball
        assert _outcome(smallest_ball_distance, space, ball, balls[0]) == want
        assert _outcome(smallest_ball_distance, space, balls[0], ball) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 9))
def test_hausdorff_balls_is_union_diameter(seed, n):
    space = random_space(seed, n, POOL)
    balls = enumerate_ballean(space)
    for b1, b2 in combinations(balls, 2):
        expected = diam_pairwise(space, b1.members + b2.members)
        assert hausdorff_balls(space, b1, b2) == expected
        assert hausdorff_balls(space, b2, b1) == expected


def _rank_core_spaces():
    """Seeded generated spaces, binary or not, caterpillars, and a hand-built
    triple whose lowest level is negative and unused (no constructor makes
    one: see ``test_an_unused_negative_level_keeps_its_verdict``)."""
    spaces = {f"random-{seed}-{n}": random_space(seed, n, POOL) for seed in range(4) for n in (1, 4, 9)}
    spaces.update({f"binary-{seed}-{n}": random_binary_space(seed, n) for seed in range(4) for n in (2, 7, 12)})
    spaces.update({f"caterpillar-{n}": caterpillar(n) for n in (1, 3, 10)})
    levels = (Fraction(-1), Fraction(0), Fraction(1))
    spaces["negative-level"] = FiniteUltrametricSpace(("a", "b"), levels, ((1, 2), (2, 1)))
    return spaces


@pytest.mark.parametrize("name", list(_rank_core_spaces()))
def test_rank_cores_match_the_fraction_routes(name):
    # Each public wrapper is its check, a core that compares ranks, and one
    # level lookup; each reference compares the Fractions themselves.
    space = _rank_core_spaces()[name]
    balls = enumerate_ballean(space)
    for b1, b2 in product(balls, repeat=2):
        want = hausdorff_oracle_reference(space, b1.members, b2.members)
        assert hausdorff_oracle(space, b1.members, b2.members) == want, (b1, b2)
        assert hausdorff_balls(space, b1, b2) == want, (b1, b2)
        assert hausdorff_by_cases(space, b1, b2) == hausdorff_by_cases_reference(space, b1, b2) == want, (b1, b2)
    rng = random.Random(name)
    subsets = [rng.sample(range(space.n), rng.randint(1, space.n)) for _ in range(10)]
    for a, b in product(subsets, repeat=2):  # mostly not balls
        assert hausdorff_oracle(space, a, b) == hausdorff_oracle_reference(space, a, b), (a, b)
    for subset in subsets:
        assert diam(space, subset) == diam_reference(space, subset), subset
    for _ in range(20 if len(balls) > 1 else 0):
        family = rng.sample(balls, rng.randint(2, min(8, len(balls))))
        assert family_diameters(space, family) == family_diameters_reference(space, family), family


def _verdict(violation):
    return None if violation is None else (violation.axiom, violation.witness)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(matrix=rational_matrices())
def test_find_violation_matches_lcm_rescale(matrix):
    assert _verdict(find_violation(matrix)) == _verdict(find_violation_reference(matrix))


@st.composite
def near_ultrametric_matrices(draw):
    """Generated spaces of up to 64 points, valid or with one symmetric pair
    moved to another level or to a fresh value, so that the split walk both
    accepts and refuses before the witness scan runs."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(13, 64)))
    seed = draw(st.integers(0, 10**6))
    space = random_binary_space(seed, n) if draw(st.booleans()) else random_space(seed, n, POOL)
    rows = [list(row) for row in space.dist]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        fresh = (Fraction(1, 7), Fraction(5, 4), max(space.levels) + 1)
        rows[i][j] = rows[j][i] = draw(st.sampled_from(space.levels[1:] + fresh))
    return rows


@settings(max_examples=120, deadline=None, derandomize=True)
@given(matrix=near_ultrametric_matrices())
def test_find_violation_on_near_ultrametric_spaces_matches_lcm_rescale(matrix):
    assert _verdict(find_violation(matrix)) == _verdict(find_violation_reference(matrix))


@st.composite
def planted_violations(draw):
    """Binary, caterpillar and default-pool spaces of 3 to 40 points with one
    or several symmetric entries moved to another level or to a fresh value,
    all among the first six points or all among the last six."""
    n, seed = draw(st.integers(3, 40)), draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(("binary", "caterpillar", "pool")))
    if kind == "binary":
        space = random_binary_space(seed, n)
    else:
        space = caterpillar(n) if kind == "caterpillar" else random_space(seed, n, DEFAULT_LEVEL_POOL)
    rows = [list(row) for row in space.dist]
    near = range(min(6, n)) if draw(st.booleans()) else range(max(0, n - 6), n)
    fresh = (Fraction(1, 7), (space.levels[1] + space.levels[-1]) / 2, space.levels[-1] + 1)
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.lists(st.sampled_from(near), min_size=2, max_size=2, unique=True))
        rows[i][j] = rows[j][i] = draw(st.sampled_from(space.levels[1:] + fresh))
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrix=planted_violations())
def test_planted_violations_name_the_cubic_scans_witness(matrix):
    space = _parse_space(matrix, None)
    witness = triangle_scan_reference(space.ranks)
    want = None if witness is None else ("StrongTriangleViolation", witness)
    assert _verdict(find_violation(matrix)) == want
    assert want == _verdict(find_violation_reference(matrix))


def test_planted_violation_on_64_points_names_the_first_triple():
    # One pair pushed above every other distance: only the triples (i, j, k)
    # and (j, i, k) break the strong triangle, so the witness is (i, j, 0).
    space = random_binary_space(7, 64)
    rows = [list(row) for row in space.dist]
    rows[17][42] = rows[42][17] = max(space.levels) + 1
    assert _verdict(find_violation(rows)) == ("StrongTriangleViolation", (17, 42, 0))
    assert _verdict(find_violation(rows)) == _verdict(find_violation_reference(rows))


# Each axiom broken once in a 64-point space, in a cell past the first rows,
# so that the whole-matrix tests fail and the cell scans must find it.
@pytest.mark.parametrize("axiom", [
    "AsymmetricEntry", "NonzeroDiagonal", "NegativeEntry", "ZeroOffDiagonal",
    "StrongTriangleViolation",
])
def test_planted_violation_of_each_axiom_on_64_points(axiom):
    space = random_binary_space(11, 64)
    rows = [list(row) for row in space.dist]
    i, j = 37, 52
    if axiom == "AsymmetricEntry":
        rows[j][i] += 1
    elif axiom == "NonzeroDiagonal":
        # With one zero pair off the diagonal the matrix still holds n zeros.
        rows[i][i] = rows[j][j] = Fraction(1, 2)
        rows[i][j] = rows[j][i] = 0
    elif axiom == "NegativeEntry":
        rows[i][j] = rows[j][i] = -rows[i][j]
    elif axiom == "ZeroOffDiagonal":
        rows[i][j] = rows[j][i] = 0
    else:
        rows[i][j] = rows[j][i] = max(space.levels) + 1
    got = _verdict(find_violation(rows))
    assert got[0] == axiom
    assert got == _verdict(find_violation_reference(rows))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(matrix=square_matrices, valid=valid_spaces, data=st.data())
def test_smallest_ball_and_family_diameters_match_fraction_scans(matrix, valid, data):
    # Each query is asked twice of one space, the second time in shuffled
    # order, so memoized balls are checked too.  Indices that are not ints
    # are refused, also after their int twin is memoized.
    space = _space(matrix)
    subsets = [data.draw(st.lists(st.integers(-1, space.n), max_size=space.n)) for _ in range(4)]
    subsets += [[0], [0.0], [1.0], ["a"], [None], [0, "a"], [[0]]]
    for subset in subsets + data.draw(st.permutations(subsets)):
        got = _outcome(smallest_ball, space, subset)
        assert got == _outcome(smallest_ball_reference, space, subset), subset
        assert got[0] == "BadParamsError" or all(type(p) is int for p in subset), subset
    balls = valid.ball_table.balls
    if len(balls) > 1:
        families = []
        for _ in range(4):
            family = data.draw(st.lists(
                st.sampled_from(balls), min_size=2, max_size=5, unique_by=lambda b: b.members
            ))
            families.append(family + [family[0]])  # a repeated ball counts once
        for family in families + data.draw(st.permutations(families)):
            got = _outcome(family_diameters, valid, family)
            assert got == _outcome(family_diameters_reference, valid, family), family


@settings(max_examples=400, deadline=None, derandomize=True)
@given(matrix=square_matrices, data=st.data())
def test_closed_ball_and_diam_match_fraction_scan(matrix, data):
    space = _space(matrix)
    values = sorted({v for row in space.dist for v in row} | {Fraction(0)})
    between = [(a + b) / 2 for a, b in zip(values, values[1:])]
    # On a level, between levels, below every level, and negative.
    radii = values + between + [values[0] - 1, Fraction(-1, 3)]
    # Every query twice on one space, the second time shuffled, so memoized
    # balls are checked too; centers of other types first come after their int twins.
    queries = [(center, r) for center in range(space.n) for r in radii]
    queries += [(center, r) for center in (True, 0.0, 1.0, "1", None) for r in radii]
    for center, r in queries + data.draw(st.permutations(queries)):
        got = _outcome(closed_ball, space, center, r)
        assert got == _outcome(closed_ball_reference, space, center, r), (center, r)
    subsets = [data.draw(st.lists(st.integers(0, space.n - 1), max_size=space.n)) for _ in range(4)]
    for subset in subsets:
        assert _outcome(diam, space, subset) == _outcome(diam_reference, space, subset)
    for subset in ([1.0], ["a"], [None]):
        assert _outcome(diam, space, subset)[0] == "BadParamsError"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    n=st.one_of(st.integers(1, 12), st.integers(13, 64)),
    kind=st.sampled_from(("random", "binary", "equidistant")),
)
def test_build_dendrogram_matches_per_level_scan(seed, n, kind):
    if kind == "equidistant":
        space = equidistant_space(n, Fraction(seed % 7 + 1, 3))
    else:
        space = random_binary_space(seed, n) if kind == "binary" else random_space(seed, n, POOL)
    assert build_dendrogram(space) == build_dendrogram_reference(space)


# The reference scans the whole matrix once per level: about 3 s at 200
# points on a 2-vCPU machine.
@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 200])
def test_recursive_split_matches_union_find_on_caterpillars(n):
    # Shuffled, so that the smallest leaf of a subtree is not its first point.
    order = list(range(n))
    random.Random(n).shuffle(order)
    space = caterpillar(n).restrict(order)
    assert build_dendrogram(space) == build_dendrogram_reference(space)


def test_ranks_order_huge_near_equal_rationals():
    scale = 10**300
    a, b, c, d = (Fraction(scale + k, scale) for k in range(4))
    matrix = [[0, a, c, d], [a, 0, c, d], [c, c, 0, d], [d, d, d, 0]]
    space = _space(matrix)
    levels, ranks = space.levels, space.ranks
    assert list(levels) == [0, a, c, d]
    cells = [(i, j) for i in range(4) for j in range(4)]
    for p, q in cells:
        for s, t in cells:
            assert (ranks[p][q] < ranks[s][t]) == (space.dist[p][q] < space.dist[s][t])
    assert find_violation(matrix) is None
    for center in range(4):
        for r in (a, b, c, d, (a + b) / 2):
            assert closed_ball(space, center, r) == closed_ball_reference(space, center, r)
    assert [ball.diameter for ball in enumerate_ballean(space)][-3:] == [a, c, d]
    # Raising d(0, 1) by 1/10**300 past d(0, 2) = c breaks the strong triangle.
    broken = [row[:] for row in matrix]
    broken[0][1] = broken[1][0] = d
    assert _verdict(find_violation(broken)) == ("StrongTriangleViolation", (0, 1, 2))
    assert _verdict(find_violation(broken)) == _verdict(find_violation_reference(broken))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 9),
    k=st.integers(1, 3),
    kind=st.sampled_from(("random", "binary", "equidistant")),
)
def test_ballean_tree_tower_matches_iterated_ballean(seed, n, k, kind):
    if kind == "equidistant":
        space = equidistant_space(n, Fraction(seed % 7 + 1, 3))
    else:
        space = random_binary_space(seed, n) if kind == "binary" else random_space(seed, n, POOL)
    tree = build_dendrogram(space)
    for _ in range(k - 1):
        tree = ballean_tree(tree)
    balls, levels, rows = _ballean_ranks(tree)
    tree = ballean_tree(tree)
    below = oracles.iterate_ballean_pairwise_reference(space, k - 1)
    expected = oracles.ballean_space_pairwise_reference(below)
    assert dendrogram_to_space(tree) == expected == iterate_ballean(space, k)
    assert balls == [b.members for b in enumerate_ballean(below)]
    assert (levels, tuple(rows)) == (expected.levels, expected.ranks)
    assert canonical_code(tree) == canonical_code(build_dendrogram(expected))


def _ballean_ranks(tree):
    """The balls of a hand-built tree, and the levels and rank rows of its
    ballean: :func:`_ballean_rows` read off :func:`_walk`."""
    levels, merges = _walk(tree)
    balls, rows = _ballean_rows(tree.n, merges, range(len(levels)))
    return balls, levels, rows


def test_ballean_ranks_of_a_hand_built_tree_with_distinct_equal_levels():
    # Equal levels are distinct Fraction objects here, which no generated
    # tree has, and the levels below the root share their integer part, 1.
    f = Fraction
    tree = Dendrogram(
        Merge(f(2), (
            Merge(f(3, 2), (Merge(f(5, 4), (Leaf(0), Leaf(1))), Leaf(2))),
            Merge(f(4, 3), (Leaf(3), Merge(f(5, 4), (Leaf(4), Leaf(5), Leaf(6))))),
            Merge(f(10, 8), (Leaf(7), Leaf(8))),
        )),
        tuple("abcdefghi"),
    )
    balls, levels, rows = _ballean_ranks(tree)
    expected = dendrogram_to_space(ballean_tree(tree))
    assert levels == (0, f(5, 4), f(4, 3), f(3, 2), 2)
    assert (levels, tuple(rows)) == (expected.levels, expected.ranks)
    assert balls == [b.members for b in enumerate_ballean(dendrogram_to_space(tree))]
    assert dendrogram_to_space(tree) == dendrogram_to_space_reference(tree)


# Strings as JSON carries them, padded, decimal, unparsable or too long, and
# text near the digit-only shortcut: leading zeros, unreduced, underscores,
# a sign, non-ASCII digits, a stray slash, and integers of exactly the digit
# limit and one digit more; then distinct values that share an integer part,
# equal ones written two ways, and negatives, which the ranking orders.
STRINGS = st.sampled_from(
    ["0", "1", "2", "3/2", "1.5", "1.50", " 1", "2 ", "\t3/2", "0.0", "-1", "1/0", "x", "", "1e-60000",
     "007", "0/5", "14/2", "1_0", "+5", "\u0663", "\u00b2", "1/", "/2", "3//2",
     "5/3", "7/4", "1/3", "2/6", "-1/2", "-3/2",
     "9" * sys.get_int_max_str_digits(), "9" * (sys.get_int_max_str_digits() + 1)]
)
ODD = st.sampled_from([0, 1, 2, True, False, Fraction(3, 2), Fraction(1), 1.5, None, [1], "1"])


def _square(entry):
    return st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix=st.one_of(_square(STRINGS), _square(st.one_of(STRINGS, ODD))))
# 1, True, 1.0 and Fraction(1) are one set element: only str entries may
# take the set route.
@example(matrix=[["0", 1], [True, "0"]])
@example(matrix=[["0", 0], [False, "0"]])
@example(matrix=[["0", Fraction(1)], [1, "0"]])
@example(matrix=[["0", 1.0], [1, "0"]])
def test_parse_by_set_matches_the_entry_loop(matrix):
    outcomes = []
    for parse in (_parse_space, parse_space_reference):
        try:
            space = parse(matrix, None)
        except BadParamsError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((space.labels, space.levels, space.ranks))
    assert outcomes[0] == outcomes[1]


def _h3_corpus():
    """Valid spaces, and spaces with one symmetric pair moved to another level."""
    rng = random.Random(3)
    for k in range(60):
        n = rng.randint(2, 7)
        space = random_binary_space(k, n) if k % 2 else random_space(k, n, POOL)
        yield space
        data = {"labels": list(space.labels), "matrix": [[str(v) for v in row] for row in space.dist]}
        i, j = rng.sample(range(n), 2)
        data["matrix"][i][j] = data["matrix"][j][i] = rng.choice(POOL + ("1/2", "5"))
        yield _parse_space_json(data)


# One level; unsorted with duplicates; non-integers and decimals.
GENERATOR_POOLS = [("2",), POOL, ("2", "1", "2/1"), ("7/3", "0.5", "1/4", "9", "13/2", "3", "1/4")]


def test_random_space_fills_the_ranks_of_the_tree_route():
    for pool in GENERATOR_POOLS:
        for seed in range(1200):
            n = 1 + seed % 20
            assert random_space(seed, n, pool) == random_space_reference(seed, n, pool), (seed, n, pool)


def test_random_binary_space_fills_the_ranks_of_the_tree_route():
    for n in range(1, 65):
        for seed in range(8):
            assert random_binary_space(seed, n) == random_binary_space_reference(seed, n), (seed, n)


def _h11_outcomes(spaces):
    """The reference's outcomes, asserting that the library passes exactly
    where the reference does and that each library failure names a pair."""
    outcomes = []
    for space in spaces:
        expected, got = body_h11_reference(space), _body_h11(space, lambda: random.Random(0))
        assert (got is None) == (expected is None), (got, expected)
        assert got is None or re.fullmatch(r"balls \d+ and \d+ of the ballean are not at a positive distance", got)
        outcomes.append(expected)
    return outcomes


def _replayed(space):
    return _space([[str(v) for v in row] for row in space.dist])


def test_h11_closed_form_matches_the_subset_scan():
    generated = [random_space(seed, 1 + seed % 4, POOL) for seed in range(120)]
    generated += [random_binary_space(seed, n) for seed in range(5) for n in (1, 2, 3, 4)]
    assert _h11_outcomes(generated) == [None] * len(generated)
    candidates = [random_space(seed, n, POOL) for seed in range(12) for n in range(5, 11)]
    replays = [_replayed(s) for s in candidates if len(enumerate_ballean(s)) <= oracles.H11_SCAN_MAX_BALLS]
    assert {len(enumerate_ballean(s)) for s in replays} >= {9, 10, 11}
    assert _h11_outcomes(replays) == [None] * len(replays)
    # Past the reference's scan limit the closed form still decides.
    assert _body_h11(_replayed(random_binary_space(0, 7)), lambda: random.Random(0)) is None  # 13 balls


class _ZeroAndAbove(int):
    """A rank that reads as both zero and above it: no integer rank can put
    a ball in a subset's isolated and accumulation points at once."""

    def __gt__(self, other):
        return True

    def __eq__(self, other):
        return True

    __hash__ = int.__hash__


def test_h11_closed_form_matches_the_subset_scan_on_crafted_balleans(monkeypatch):
    # Every 2- and 3-ball matrix over ranks below, at and above zero (rank 1
    # of the levels -1, 0, 1), plus one rank that is both, as the ballean of
    # a one-point space.
    crafted, levels = [], (Fraction(-1), Fraction(0), Fraction(1))
    for m in (2, 3):
        cells = [(i, j) for i in range(m) for j in range(m) if i != j]
        for values in product((0, 1, 2, _ZeroAndAbove(1)), repeat=len(cells)):
            rows = [[1] * m for _ in range(m)]
            for (i, j), v in zip(cells, values):
                rows[i][j] = v
            crafted.append(FiniteUltrametricSpace(tuple(f"b{i}" for i in range(m)), levels, tuple(map(tuple, rows))))
    base, outcomes = equidistant_space(1, 1), []
    for bspace in crafted:
        for module in (harness, oracles):
            monkeypatch.setattr(module, "ballean_space", lambda space, b=bspace: b)
        outcomes += _h11_outcomes([base])
    details = (
        "iso and acc intersect for subset",
        "iso+acc covers the space but subset",
        "dense discrete subsets are not unique",
    )
    assert {next((d for d in details if o and o.startswith(d)), o) for o in outcomes} == {None, *details}


# Walks that take any tree, malformed ones included: each refuses a tree
# that the reference tree check refuses, with the same error, and otherwise
# matches its recursive reference.  _walk, the one entry of every hand-built
# tree, refuses the same trees; its values are held to the recursive walk by
# _assert_ballean_walk_matches, and the ballean rows it feeds to the pairwise
# fill by the tower test above.
TREE_WALKS = [
    (dendrogram_to_space, dendrogram_to_space_reference),
    (canonical_code, canonical_code_reference),
    (format_dendrogram, format_dendrogram_reference),
]


def _assert_walks_match(tree):
    refused = _outcome(dendrogram_to_space_reference, tree)
    if refused[0] != "MalformedTreeError":
        refused = None
    for walk, reference in TREE_WALKS:
        assert _outcome(walk, tree) == (refused or _outcome(reference, tree)), walk.__name__
    if refused:
        assert _outcome(_walk, tree) == refused


def _assert_ballean_walk_matches(tree):
    """The merge walk, on a well-formed tree, against the recursive walk,
    the node leaf sets and the two-part test."""
    levels, merges = _walk(tree)
    balls = _balls(tree.n, merges)
    assert ([(m, levels[k], parts) for m, k, parts in merges], balls) == ballean_walk_reference(tree)
    assert set(balls) == node_leaf_sets_reference(tree)
    assert all(len(parts) == 2 for _, _, parts in merges) == is_binary_reference(tree)


def test_tree_walks_match_the_recursive_walks_on_generated_trees():
    trees = []
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200):
        for seed in range(3):
            trees.append(build_dendrogram(random_space(seed, n, POOL)))
            trees.append(build_dendrogram(random_binary_space(seed, n)))
    for n in (1, 4, 12, 50):
        tree = build_dendrogram(random_space(n, n, POOL))
        for _ in range(3):
            tree = ballean_tree(tree)
            trees.append(tree)
    trees.append(build_dendrogram(caterpillar(900)))
    for tree in trees:
        _assert_walks_match(tree)
        _assert_ballean_walk_matches(tree)


def _malformed_trees():
    f = Fraction
    leaf = Leaf(0)
    one_fault = [
        (Merge(f(1), ()), ()),
        (Merge(f(2), (Merge(f(1), ()), Leaf(0))), ("a",)),
        (Merge(f(1), (Leaf(0),)), ("a",)),
        (Merge(f(2), (Merge(f(1), (Leaf(0),)), Leaf(1))), ("a", "b")),
        (Merge(f(0), (Leaf(0), Leaf(1))), ("a", "b")),
        (Merge(f(-1), (Leaf(0), Leaf(1))), ("a", "b")),
        (Merge(f(2), (Merge(f(-1, 2), (Leaf(0), Leaf(1))), Leaf(2))), ("a", "b", "c")),
        (Merge(f(1), (Merge(f(1), (Leaf(0), Leaf(1))), Leaf(2))), ("a", "b", "c")),
        (Merge(f(1), (Merge(f(2), (Leaf(0), Leaf(1))), Leaf(2))), ("a", "b", "c")),
        (Merge(f(1), (Leaf(0), Leaf(2))), ("a", "b")),
        (Merge(f(1), (Leaf(1), Leaf(2))), ("a", "b")),
        (Merge(f(1), (Leaf(-1), Leaf(0))), ("a", "b")),
        (Merge(f(1), (Leaf(0), Leaf(0))), ("a", "b")),
        (Merge(f(2), (Merge(f(1), (leaf, Leaf(1))), leaf)), ("a", "b")),
        (Merge(f(1), (leaf, leaf)), ("a",)),
        (Merge(f(1), (Leaf(0), Leaf(1))), ("a",)),
        (Merge(f(1), (Leaf(0), Leaf(1))), ("a", "b", "c")),
        (Merge(f(1), (Leaf(0), Leaf(1))), ("a", "a")),
        (Leaf(1), ("a",)),
        (Leaf(0), ()),
    ]
    two_faults = [
        (Merge(f(2), (Merge(f(0), (Leaf(0), Leaf(1))), Merge(f(1), (Leaf(2),)))), ("a", "b", "c")),
        (Merge(f(2), (Merge(f(1), (Leaf(0),)), Merge(f(3), (Leaf(1), Leaf(2))))), ("a", "b", "c")),
        (Merge(f(1), (Merge(f(2), (Leaf(0),)), Leaf(1))), ("a", "b")),
        (Merge(f(1), (Merge(f(2), (Merge(f(0), (Leaf(0), Leaf(1))), Leaf(2))), Leaf(3))), ("a", "b", "c", "d")),
        (Merge(f(-1), (Merge(f(-2), (Leaf(0),)), Leaf(1))), ("a", "b")),
        (Merge(f(0), (Leaf(0), Leaf(2))), ("a", "b")),
        (Merge(f(1), (Leaf(0), Leaf(2))), ("a",)),
        (Merge(f(1), (Leaf(0), Leaf(1))), ("a", "a", "a")),
        (Merge(f(1), (Merge(f(1), (leaf, Leaf(1))), leaf)), ("a", "b")),
        (Merge(f(1), (Merge(f(1), ()), Leaf(0))), ("a",)),
        # The first fault in pre-order comes before a subtree whose level
        # cannot be compared at all.
        (Merge(1, (Merge(1, (Leaf(0), Leaf(1))), Merge(None, (Leaf(2), Leaf(3))))), tuple("abcd")),
    ]
    # 900 deep: a level too high at point 5 and a zero level at point 700,
    # which comes first in pre-order; a one-child merge at point 3.
    deep = caterpillar_tree(900, level=lambda k: f({5: 7, 700: 0}.get(k, k)))
    unary = caterpillar_tree(900, children=lambda node, k: (node,) if k == 3 else (node, Leaf(k)))
    labels = tuple(f"p{i}" for i in range(900))
    return one_fault + two_faults + [(deep, labels), (unary, labels[:899])]


def _random_hand_built(rng, leaves, level, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    width = rng.choice((0, 1, 2, 2, 2, 3))
    below = level - rng.choice((-1, 0, 1, 1, 1, 2))
    return Merge(level, tuple(_random_hand_built(rng, leaves, below, depth - 1) for _ in range(width)))


def _hand_built_trees():
    """The malformed trees, then 3,000 random hand-built ones."""
    trees = [Dendrogram(root, labels) for root, labels in _malformed_trees()]
    rng = random.Random(0)
    for _ in range(3000):
        leaves = [Leaf(i) for i in range(rng.randint(1, 5))]
        root = _random_hand_built(rng, leaves, Fraction(rng.randint(-1, 5)), 4)
        labels = tuple(rng.choice("abcd") for _ in range(rng.randint(0, 6)))
        trees.append(Dendrogram(root, labels))
    return trees


def test_tree_walks_match_the_recursive_walks_on_malformed_trees():
    for tree in _hand_built_trees():
        _assert_walks_match(tree)


def test_ballean_tree_refuses_what_the_reference_refuses():
    # ballean_tree checks a hand-built tree as dendrogram_to_space does: both
    # enter through _walk, which checks before it walks.
    refused = 0
    for tree in _hand_built_trees():
        expected = _outcome(dendrogram_to_space_reference, tree)
        got = _outcome(ballean_tree, tree)
        if expected[0] == "MalformedTreeError":
            assert got == expected, tree
            refused += 1
        elif expected[0] == "ok":
            assert got[0] == "ok", (tree, got)
            assert dendrogram_to_space(got[1]) == ballean_space(expected[1])
            _assert_ballean_walk_matches(tree)
    assert refused > len(_malformed_trees())



def _bodies_agree(body, reference, spaces):
    """Run a body and its reference on each space; the verdicts, pass, fail
    or error, must match.  Returns the reference's verdicts."""
    verdicts = []
    for space in spaces:
        expected = _body_verdict(reference, space)
        assert _body_verdict(body, space) == expected, space
        verdicts.append(expected)
    return verdicts


def _generated_and_replayed():
    """Generated spaces of up to 20 points, and binary replays, parsed
    without validation, of up to 64."""
    spaces = [random_space(seed, 1 + seed % 20, POOL) for seed in range(100)]
    spaces += [random_binary_space(seed, 1 + seed % 20) for seed in range(40)]
    spaces += [_replayed(random_binary_space(seed, n)) for seed, n in enumerate((7, 23, 40, 64))]
    return spaces


@pytest.mark.parametrize("body, reference", [(_body_h3, body_h3_reference), (_body_h9, body_h9_reference)])
def test_h3_and_h9_bitmasks_match_the_set_bodies(body, reference):
    valid = _generated_and_replayed()
    assert _bodies_agree(body, reference, valid) == [("ok", False)] * len(valid)
    # One pair moved to another level, which may make the ballean raise.
    assert ("ok", True) in _bodies_agree(body, reference, _h3_corpus())  # some corrupted spaces fail


def _foreign(rng, space, ball):
    """A ball the table may not hold: a random sorted subset of points."""
    members = tuple(sorted(rng.sample(range(space.n), rng.randint(1, space.n))))
    return Ball(members, ball.diameter)


def test_h3_bitmasks_match_the_set_body_on_crafted_smallest_balls(monkeypatch):
    # smallest_ball_distance answers with the true ball, another table ball,
    # a subset of points outside the table, or a wrong diameter.  H3 must
    # fail exactly on the spaces where some answer it was given is wrong.
    real = harness.smallest_ball_distance
    texts = ("smallest ball for", "smallest-ball diameter != Hausdorff distance")
    seen = set()
    for seed in range(300):
        space = random_space(seed, 2 + seed % 7, POOL) if seed % 3 else random_binary_space(seed, 2 + seed % 9)
        balls = enumerate_ballean(space)
        rng, wrong = random.Random(seed), []

        def crafted(space, b1, b2):
            true = bstar, value = real(space, b1, b2)
            roll = rng.random()
            if roll < 0.9:
                answer = true
            elif roll < 0.94:
                answer = rng.choice(balls), value
            elif roll < 0.98:
                answer = _foreign(rng, space, bstar), value
            else:
                answer = bstar, value + 1
            wrong.append(answer != true)
            return answer

        monkeypatch.setattr(harness, "smallest_ball_distance", crafted)
        kind, detail = _outcome(_body_h3, space, lambda: random.Random(0))
        assert kind == "ok", detail
        assert (detail is not None) == any(wrong), seed
        seen.add(next((t for t in texts if detail and detail.startswith(t)), detail))
    assert seen == {None, *texts}


def test_h9_bitmasks_match_the_set_body_on_crafted_balleans(monkeypatch):
    # enumerate_ballean drops a ball, adds a subset of points, or answers
    # truly; both bodies see the same answers in the same order.  H9 compares
    # lists of balls, so it fails wherever the set body does, and also on a
    # repeated ball or a wrong diameter, which member sets cannot show; it
    # never fails on true answers.  A dropped top ball is no ball's subball,
    # so neither body sees it: H5 compares the whole table.
    real = harness.enumerate_ballean
    seen = set()
    for seed in range(200):
        space = random_space(seed, 2 + seed % 7, POOL) if seed % 3 else random_binary_space(seed, 2 + seed % 9)
        verdicts = []  # (failed, some answer was wrong), for H9 and then the set body
        for body in (_body_h9, body_h9_reference):
            rng, wrong = random.Random(seed), []

            def crafted(space):
                true = real(space)
                balls, roll = list(true), rng.random()
                if roll < 0.1 and len(balls) > 1:
                    del balls[rng.randrange(len(balls))]
                elif roll < 0.2:
                    balls.append(_foreign(rng, space, balls[0]))
                wrong.append(tuple(balls) != true)
                return tuple(balls)

            for module in (harness, oracles):
                monkeypatch.setattr(module, "enumerate_ballean", crafted)
            kind, detail = _outcome(body, space, lambda: random.Random(0))
            assert kind == "ok", detail
            assert detail is None or detail.endswith("do not match the ballean of the restriction"), detail
            verdicts.append((detail is not None, any(wrong)))
        (h9_failed, h9_wrong), (set_failed, _) = verdicts
        assert h9_failed <= h9_wrong and set_failed <= h9_failed, seed
        seen.add((h9_failed, set_failed))
    assert seen == {(False, False), (True, False), (True, True)}


def test_ballean_space_rows_match_the_pairwise_fill():
    spaces = [random_space(seed, 1 + seed % 20, POOL) for seed in range(60)]
    spaces += [random_binary_space(seed, n) for seed in range(3) for n in (1, 2, 5, 17, 40)]
    spaces += [iterate_ballean(random_space(seed, 1 + seed % 6, POOL), 2) for seed in range(12)]
    spaces += [caterpillar(30), equidistant_space(7, 2)]
    for space in spaces:
        assert ballean_space(space) == oracles.ballean_space_pairwise_reference(space)
        twice = ballean_space(ballean_space(space))
        assert twice == oracles.ballean_space_pairwise_reference(oracles.ballean_space_pairwise_reference(space))
        expected = space
        for k in range(1, 4):  # the tower of the base's merges, against the fill applied k times
            expected = oracles.ballean_space_pairwise_reference(expected)
            assert iterate_ballean(space, k) == expected, k


# Tuples and lists, unsorted with duplicates, one string read as its
# characters, the same values as ints, Fractions and strings, and pools that
# are empty, hold zero, a negative, a float, a bool, an unparsable string or
# an unhashable value, or are no sequence at all.
PARSE_POOLS = [
    POOL, list(POOL), ("2", "1", "2/1"), ["7/3", "0.5", "1/4", "9", "1/4"], "312", "3.2",
    (1, 2), (Fraction(1), Fraction(2)), ("1", "2"), (1, True), (True,), (1.0,), (1,),
    (), [], ("0",), ("1", "-2"), ("1", "x"), ("1", [2]), [[1]], ("1", 1.5), 7,
]


def test_random_space_matches_the_per_call_pool_parse():
    for pool in PARSE_POOLS:
        got = _outcome(lambda: tuple(_parse_pool(pool)))
        assert got == _outcome(lambda: tuple(oracles.parse_pool_reference(pool))), pool
        for seed in range(6):
            n = 1 + seed * 3
            expected = _outcome(random_space_reference, seed, n, pool)
            assert _outcome(random_space, seed, n, pool) == expected, (pool, seed)


def test_a_suite_run_parses_the_default_pool_at_most_once(monkeypatch):
    calls = []

    def counting(value):
        calls.append(value)
        return parse_rational(value)

    monkeypatch.setattr(dendrogram, "parse_rational", counting)
    report = harness.run_suite(harness.TrialConfig(trials=20))
    assert report.passed
    assert calls == []  # the harness parsed it once, on import


def test_level_comparisons_test_identity_then_value(monkeypatch):
    """Equal levels that are distinct objects still pass; unequal ones fail
    with the message a value comparison gives.  The rank routes compare ints:
    one rank off fails, and the message names the levels."""
    space = random_binary_space(3, 6)
    balls = enumerate_ballean(space)
    b1, b2 = balls[0], balls[1]
    copy = lambda x: Fraction(x.numerator, x.denominator)
    for shift, fails in ((copy, False), (lambda x: x + 1, True)):
        with monkeypatch.context() as patch:
            patch.setattr(ballean_module, "hausdorff_balls", lambda s, a, b: shift(hausdorff_balls(s, a, b)))
            got = _outcome(singleton_embedding, space)
        labels = space.labels
        assert got[0] == ("AssertionError" if fails else "ok")
        if fails:
            assert got[1] == f"singleton embedding failed to preserve d({labels[0]},{labels[1]})"
        # H3 compares two routes and sees one shifted.
        with monkeypatch.context() as patch:
            for module in (harness, oracles):
                patch.setattr(module, "hausdorff_balls", lambda s, a, b: shift(hausdorff_balls(s, a, b)))
            got = _body_h3(space, lambda: random.Random(0))
            assert got == body_h3_reference(space)
        assert got == (f"smallest-ball diameter != Hausdorff distance for {b1.members}, {b2.members}" if fails else None)
    # Levels 0..5: the union of balls[:3] has diameter rank 5, read one rank
    # low as 4, and the ball of rank 4 around point 0 then reads 3.
    levels = space.levels
    assert levels == tuple(map(Fraction, range(6)))
    with monkeypatch.context() as patch:
        patch.setattr(ballean_module, "_diam_rank", lambda s, idx: _diam_rank(s, idx) - 1)
        got = _outcome(family_diameters, space, balls[:3])
    assert got == ("AssertionError", f"family diameters disagree: hausdorff={levels[5]}, union={levels[4]}, smallest-ball={levels[3]}")
    # H1 compares three routes and sees the case split one rank low.
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_cases_rank", lambda *args: _cases_rank(*args) - 1)
        got = harness._body_h1(space, lambda: random.Random(0))
    assert got == f"Hausdorff routes disagree on {b1.members} vs {b2.members}: union-diam={levels[5]}, cases={levels[4]}, sup-inf={levels[5]}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(space=table_spaces())
def test_merge_list_cores_match_the_tree_routes(space):
    """What the CLI and H2 and H5 read off the split's merges is what the
    public routes read off ``build_dendrogram(space)``."""
    tree = build_dendrogram(space)
    assert _walk(tree) == (space.levels, space.split[0])
    balls, levels, rows = _ballean_ranks(tree)
    assert _ballean_rows(space.n, space.split[0], range(len(levels))) == (balls, rows) and levels == space.levels
    assert _balls(space.n, space.split[0]) == balls
    assert _fold_merges(space.n, space.split[0], space.levels, lambda _: "*", _code) == canonical_code(tree)
    assert _space_text(space) == format_dendrogram(tree)
    labels, merges = space.labels, space.split[0]
    for _ in range(2):  # the towers of `ballean --iterate 2` and `3`
        tree = ballean_tree(tree)
        labels, merges = _ballean_merges(labels, merges)
        assert labels == tree.labels and (levels, merges) == _walk(tree)
        balls, _, rows = _ballean_ranks(tree)
        assert _ballean_rows(len(labels), merges, range(len(levels))) == (balls, rows)


def _bumped(space, merge):
    """The space with one merge's level moved halfway down to the largest
    level inside it: still ultrametric, and its levels change unless the new
    value is a level elsewhere."""
    members, k, parts = merge
    below = max((kk for m, kk, _ in space.split[0] if set(m) < set(members)), default=0)
    rows = [list(row) for row in space.dist]
    new = (space.levels[k] + space.levels[below]) / 2
    for xs, ys in combinations(parts, 2):
        for x in xs:
            for y in ys:
                rows[x][y] = rows[y][x] = new
    return _parse_space(rows, space.labels)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(space=table_spaces(), data=st.data())
def test_isometry_by_levels_first_matches_the_code_comparison(space, data):
    perm = data.draw(st.permutations(range(space.n)))
    others = [space.restrict(perm)]
    if space.n > 1:
        others.append(_bumped(space, data.draw(st.sampled_from(space.split[0]))))
    for other in others:
        codes = canonical_code(build_dendrogram(space)) == canonical_code(build_dendrogram(other))
        assert are_isometric(space, other) == codes == are_isometric(other, space)
        if space.n <= 6:
            assert codes == oracles.brute_isometric(space, other)


def test_spaces_with_other_levels_form_no_code(monkeypatch):
    folds = []
    monkeypatch.setattr(dendrogram, "_fold_merges", lambda *args: folds.append(args) or _fold_merges(*args))
    space = random_binary_space(7, 48)
    for merge in space.split[0]:
        assert not are_isometric(space, _bumped(space, merge))  # the new value is a fresh level
    assert folds == []
    assert are_isometric(space, space.restrict(range(47, -1, -1))) and len(folds) == 2
