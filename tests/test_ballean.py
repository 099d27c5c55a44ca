import time
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import balls_by_subset_scan, caterpillar
from ultraball.ballean import (
    ballean_space,
    enumerate_ballean,
    family_diameters,
    hausdorff_balls,
    hausdorff_by_cases,
    hausdorff_oracle,
    iterate_ballean,
    min_positive_distance,
    singleton_embedding,
    smallest_ball_distance,
)
from ultraball.core import (
    BadParamsError,
    Ball,
    BallRelation,
    EmptySubsetError,
    EqualBallsError,
    FamilyTooSmallError,
    ForeignBallError,
    ball_relation,
    closed_ball,
    equidistant_space,
    find_violation,
    require_canonical,
    validate_ultrametric,
)
from ultraball.dendrogram import random_binary_space, random_space

POOL = ("1", "3/2", "2", "3", "7/2", "4")


def three_point_space():
    return validate_ultrametric([[0, 1, 2], [1, 0, 2], [2, 2, 0]], ["a", "b", "c"])


def test_enumerate_three_point_space():
    bl = enumerate_ballean(three_point_space())
    assert [b.members for b in bl] == [(0,), (1,), (2,), (0, 1), (0, 1, 2)]
    assert len(bl) == 2 * 3 - 1


def test_enumerate_one_point_space():
    bl = enumerate_ballean(validate_ultrametric([[0]], ["x0"]))
    assert [b.members for b in bl] == [(0,)]


def test_enumerate_equidistant_four_points():
    bl = enumerate_ballean(equidistant_space(4, 1))
    assert len(bl) == 5  # four singletons plus the whole space
    assert bl[-1].members == (0, 1, 2, 3)


def test_enumerate_a_999_deep_space_in_quadratic_time():
    # Each ball is built once, from its smallest member, so the table is
    # quadratic on a 999-deep tree; building it from every center is cubic.
    space = caterpillar(1000)
    start = time.perf_counter()
    balls = enumerate_ballean(space)
    assert time.perf_counter() - start < 2
    assert len(balls) == 2 * 1000 - 1
    assert balls[-1].members == tuple(range(1000))
    assert balls[-1].diameter == 999


def test_enumerate_matches_subset_scan():
    for seed in range(8):
        s = random_space(seed, 7, POOL)
        assert {b.members for b in enumerate_ballean(s)} == balls_by_subset_scan(s)


def test_hausdorff_oracle_examples():
    s = three_point_space()
    assert hausdorff_oracle(s, [0, 1, 2], [0, 1, 2]) == 0
    assert hausdorff_oracle(s, [0], [1]) == 1
    assert hausdorff_oracle(s, [0, 1], [2]) == 2
    # arbitrary subsets, not only balls
    assert hausdorff_oracle(s, [0, 2], [1]) == 2
    with pytest.raises(EmptySubsetError):
        hausdorff_oracle(s, [], [0])
    for subset in ([1.0], ["a"], [None]):
        with pytest.raises(BadParamsError, match="point indices must be integers"):
            hausdorff_oracle(s, [0], subset)


def test_hausdorff_balls_examples():
    s = three_point_space()
    a, b, c = (closed_ball(s, i, 0) for i in range(3))
    ab = closed_ball(s, 0, 1)
    abc = closed_ball(s, 0, 2)
    for b1, b2, expected in ((a, b, 1), (ab, abc, 2), (ab, ab, 0)):
        assert hausdorff_balls(s, b1, b2) == expected
        assert hausdorff_by_cases(s, b1, b2) == expected
        assert hausdorff_oracle(s, b1.members, b2.members) == expected
    assert hausdorff_by_cases(s, ab, c) == 2  # disjoint: gap between the balls


def test_a_ball_whose_members_only_equal_ints_is_refused():
    # (1.0,) hashes and compares as (1,), the member tuple of a table ball.
    s = validate_ultrametric([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    a, fake = closed_ball(s, 0, 0), Ball((1.0,), Fraction(0))
    for fn in (hausdorff_balls, hausdorff_by_cases, smallest_ball_distance, ball_relation):
        for b1, b2 in ((fake, a), (a, fake)):
            with pytest.raises(BadParamsError, match="point indices must be integers"):
                fn(s, b1, b2)
    # A bool is an int, as in closed_ball: (True,) is the ball (1,).
    assert ball_relation(s, Ball((True,), Fraction(0)), closed_ball(s, 1, 0)) is BallRelation.EQUAL


def test_three_way_agreement_random():
    for seed in range(12):
        s = random_space(seed, 8, POOL)
        balls = enumerate_ballean(s)
        for b1, b2 in combinations(balls, 2):
            expected = hausdorff_oracle(s, b1.members, b2.members)
            assert hausdorff_balls(s, b1, b2) == expected
            assert hausdorff_by_cases(s, b1, b2) == expected


def test_smallest_ball_distance_examples():
    s = three_point_space()
    a, c = closed_ball(s, 0, 0), closed_ball(s, 2, 0)
    ab = closed_ball(s, 0, 1)
    bstar, value = smallest_ball_distance(s, a, closed_ball(s, 1, 0))
    assert (bstar.members, value) == ((0, 1), Fraction(1))
    bstar, value = smallest_ball_distance(s, a, c)
    assert (bstar.members, value) == ((0, 1, 2), Fraction(2))
    bstar, value = smallest_ball_distance(s, ab, c)
    assert (bstar.members, value) == ((0, 1, 2), Fraction(2))
    assert value == hausdorff_balls(s, ab, c)
    with pytest.raises(EqualBallsError):
        smallest_ball_distance(s, ab, ab)


def test_ballean_space_examples():
    one = ballean_space(validate_ultrametric([[0]], ["x0"]))
    assert one.n == 1

    five = ballean_space(three_point_space())
    assert five.n == 5
    assert find_violation(five.dist, five.labels) is None
    assert five.labels == ("a", "b", "c", "a+b", "a+b+c")

    eq = ballean_space(equidistant_space(3, 1))
    assert eq.n == 4
    assert {eq.dist[i][j] for i in range(4) for j in range(4) if i != j} == {Fraction(1)}


def test_ballean_space_label_collision_disambiguated():
    # adversarial labels: the merged ball of {a, b} spells the same as the
    # third point's label
    s = validate_ultrametric([[0, 1, 2], [1, 0, 2], [2, 2, 0]], ["a", "b", "a+b"])
    bs = ballean_space(s)
    assert len(set(bs.labels)) == bs.n


def test_iterate_ballean_capped():
    s = three_point_space()
    assert iterate_ballean(s, 0).n == 3
    assert iterate_ballean(s, 2).n == ballean_space(ballean_space(s)).n
    with pytest.raises(BadParamsError):
        iterate_ballean(s, 4)


def test_a_tower_splits_its_base_only(split_calls):
    space = random_binary_space(7, 12)
    tower = iterate_ballean(space, 3)
    assert split_calls == [space.split]
    assert tower.n == 45 and "ball_table" not in vars(space)


def test_family_diameters_examples():
    s = three_point_space()
    balls = enumerate_ballean(s)
    assert family_diameters(s, balls) == (Fraction(2),) * 3
    a, b = closed_ball(s, 0, 0), closed_ball(s, 1, 0)
    assert family_diameters(s, (a, b)) == (Fraction(1),) * 3
    with pytest.raises(FamilyTooSmallError):
        family_diameters(s, [a])
    with pytest.raises(FamilyTooSmallError):
        family_diameters(s, [a, a])  # duplicates collapse to a singleton family


def test_each_ball_is_checked_once_not_once_per_pair(monkeypatch):
    checked = []

    def counting(space, ball):
        checked.append(ball.members)
        return require_canonical(space, ball)

    monkeypatch.setattr("ultraball.ballean.require_canonical", counting)
    s = random_binary_space(0, 10)
    balls = enumerate_ballean(s)
    ballean_space(s)
    assert checked == []  # its 19 balls come from the table
    family_diameters(s, [balls[3], balls[0], balls[5], balls[3]])
    assert checked == [(0,), (3,), (5,)]
    checked.clear()
    hausdorff_balls(s, balls[3], balls[0])
    assert checked == [(3,), (0,)]
    # The first foreign ball in member order is the one reported.
    with pytest.raises(ForeignBallError, match=r"members=\(1,\)"):
        family_diameters(s, [Ball((2,), Fraction(9)), Ball((1,), Fraction(9))])


def test_singleton_embedding_examples():
    one = singleton_embedding(validate_ultrametric([[0]], ["x0"]))
    assert len(one) == 1
    s = three_point_space()
    mapping = singleton_embedding(s)
    assert len(mapping) == 3
    for p, ball in mapping.items():
        assert ball.members == (p,)
    eq = equidistant_space(5, "3/2")
    emb = singleton_embedding(eq)  # would raise if any image distance != 3/2
    assert len(emb) == 5


def test_subball_closure_matches_restriction():
    for seed in range(6):
        s = random_space(seed, 7, POOL)
        bl = enumerate_ballean(s)
        for y in bl:
            sub = s.restrict(y.members)
            position = {orig: i for i, orig in enumerate(y.members)}
            expected = {
                tuple(position[m] for m in b.members)
                for b in bl
                if set(b.members) <= set(y.members)
            }
            assert {b.members for b in enumerate_ballean(sub)} == expected


def test_min_positive_distance_preserved():
    for seed in range(8):
        s = random_space(seed, 7, POOL)
        if s.n < 2:
            continue
        assert min_positive_distance(s) == min_positive_distance(ballean_space(s))
    assert min_positive_distance(validate_ultrametric([[0]], ["x"])) is None


def test_ballean_size_bound():
    for seed in range(10):
        s = random_space(seed, 9, POOL)
        assert len(enumerate_ballean(s)) <= 2 * s.n - 1
