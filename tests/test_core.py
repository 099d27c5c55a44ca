import copy
import pickle
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultraball
import ultraball.core as core
from oracles import caterpillar, diam_pairwise, triangle_scan_reference
from ultraball.ballean import ballean_space, iterate_ballean
from ultraball.core import (
    BadParamsError,
    Ball,
    BallRelation,
    EmptySubsetError,
    FiniteUltrametricSpace,
    ForeignBallError,
    NegativeRadiusError,
    UltrametricViolation,
    ball_relation,
    closed_ball,
    diam,
    equidistant_space,
    find_violation,
    parse_rational,
    smallest_ball,
    space_from_json_dict,
    space_to_json_dict,
    space_violation,
    validate_ultrametric,
)
from ultraball.dendrogram import (
    _ballean_rows,
    _walk,
    build_dendrogram,
    dendrogram_to_space,
    random_binary_space,
    random_space,
)
from ultraball.dlps import dlps_sample, dlps_space
from ultraball.harness import TrialConfig, run_suite

POOL = ("1", "3/2", "2", "3", "7/2", "4")


def three_point_space():
    return validate_ultrametric([[0, 1, 2], [1, 0, 2], [2, 2, 0]], ["a", "b", "c"])


# --- rationals ---------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("3/2", Fraction(3, 2)),
        ("1.5", Fraction(3, 2)),
        ("2", Fraction(2)),
        (7, Fraction(7)),
        ("0.125", Fraction(1, 8)),
        (Fraction(5, 3), Fraction(5, 3)),
    ],
)
def test_parse_rational_exact(raw, expected):
    assert parse_rational(raw) == expected


@pytest.mark.parametrize("raw", [1.5, "x", "1/0", None, True])
def test_parse_rational_rejects(raw):
    with pytest.raises(BadParamsError):
        parse_rational(raw)


def test_parse_rational_digit_limit():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int digit limit")
    limit = sys.get_int_max_str_digits()
    edge = 10 ** (limit - 1)  # the largest power of ten that can still print
    assert parse_rational(f"1e{limit - 1}") == edge
    assert parse_rational(f"-1e-{limit - 1}") == Fraction(-1, edge)
    assert parse_rational(str(10 * edge - 1)) == 10 * edge - 1
    for raw in (f"1e{limit}", f"1e-{limit}", f"-3e{limit + 5}", "1e-60000", 10 * edge):
        with pytest.raises(BadParamsError, match="too large"):
            parse_rational(raw)
    sys.set_int_max_str_digits(0)  # 0: no limit
    try:
        assert parse_rational(f"1e-{limit}") == Fraction(1, 10 * edge)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "raw",
    ["1e6000000", "-1e-6000000", "0." + "0" * 10**6, " 5E+9000 ", "1.5e-8601"],
    ids=["1e6000000", "-1e-6000000", "0.(10**6 zeros)", "5E+9000", "1.5e-8601"],
)
def test_a_long_decimal_is_refused_before_fraction_builds_its_power(raw):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int digit limit")
    start = time.perf_counter()
    with pytest.raises(BadParamsError, match="rational too large"):
        parse_rational(raw)
    assert time.perf_counter() - start < 0.1


def test_a_long_exponent_refuses_only_what_could_not_print():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int digit limit")
    limit = sys.get_int_max_str_digits()
    # A mantissa of up to 2 * limit digits can cancel an exponent past the
    # limit, and a zero mantissa cancels any exponent.
    assert parse_rational("0." + "0" * (limit - 1) + f"1e{limit + 700}") == 10**700
    assert parse_rational("1" + "0" * (limit - 1) + f"e-{limit + 1}") == Fraction(1, 100)
    for raw in ("0e6000000", "-0.000e-6000000", "0_0.0_0E9999999"):
        start = time.perf_counter()
        assert parse_rational(raw) == 0
        assert time.perf_counter() - start < 0.1
    with pytest.raises(BadParamsError, match="cannot parse"):
        parse_rational("0.0__0e9999999")  # not Fraction syntax: refused as before
    sys.set_int_max_str_digits(0)  # 0: no limit, so nothing is refused as too large
    try:
        assert parse_rational("0." + "0" * (limit + 1) + "1") == Fraction(1, 10 ** (limit + 2))
    finally:
        sys.set_int_max_str_digits(limit)


# --- validation --------------------------------------------------------------


def test_valid_three_point_space():
    s = three_point_space()
    assert s.n == 3
    assert s.labels == ("a", "b", "c")
    assert s.d(0, 2) == 2


def test_single_point_space_is_valid():
    s = validate_ultrametric([[0]], ["x"])
    assert s.n == 1


def test_strong_triangle_violation_witness():
    with pytest.raises(UltrametricViolation) as err:
        validate_ultrametric([[0, 1, 3], [1, 0, 1], [3, 1, 0]], ["a", "b", "c"])
    assert err.value.axiom == "StrongTriangleViolation"
    assert err.value.witness_labels == ("a", "c", "b")
    assert err.value.to_json_dict() == {"axiom": "StrongTriangleViolation", "witness": ["a", "c", "b"]}


@pytest.mark.parametrize(
    "matrix, axiom, witness",
    [
        ([[0, 1], [2, 0]], "AsymmetricEntry", (0, 1)),
        ([[0, 1], [1, 5]], "NonzeroDiagonal", (1,)),
        ([[0, 0], [0, 0]], "ZeroOffDiagonal", (0, 1)),
        ([[0, -1], [-1, 0]], "NegativeEntry", (0, 1)),
        ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], "ZeroOffDiagonal", (1, 2)),
    ],
)
def test_violation_variants(matrix, axiom, witness):
    violation = find_violation(matrix)
    assert violation is not None
    assert violation.axiom == axiom
    assert violation.witness == witness


def test_a_1100_deep_space_validates_in_quadratic_time():
    # The cubic witness scan would take about a minute here, and a recursive
    # split would run out of frames.
    space = caterpillar(1100)
    start = time.perf_counter()
    assert space_violation(space) is None
    assert time.perf_counter() - start < 2


def _raised(space, i, j):
    """The space with d(i, j) raised above every distance."""
    rows = [list(row) for row in space.ranks]
    rows[i][j] = rows[j][i] = len(space.levels)
    return FiniteUltrametricSpace(space.labels, (*space.levels, space.levels[-1] + 1), tuple(map(tuple, rows)))


def test_a_late_violation_on_512_points_is_named_in_quadratic_time():
    # The cubic scan takes about 4 s of process time on this input (2-vCPU
    # box, CPython 3.11.7), and split and sweep together about 0.05 s.
    space = _raised(random_binary_space(7, 512), 510, 511)
    start = time.process_time()
    violation = space_violation(space)
    assert time.process_time() - start < 0.35
    assert (violation.axiom, violation.witness) == ("StrongTriangleViolation", (510, 511, 0))
    assert violation.witness_labels == ("p510", "p511", "p0")


def test_naming_a_late_violation_on_a_512_point_caterpillar_holds_under_4_mb():
    # Mask tables kept per row would hold about 14 MB here.
    space = _raised(caterpillar(512), 510, 511)
    tracemalloc.start()
    try:
        violation = space_violation(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violation.witness == (510, 511, 0) == triangle_scan_reference(space.ranks)
    assert peak < 4_000_000


@pytest.mark.parametrize("odd", [True, 1.5, None, [1], {"a": 1}])
def test_the_first_unparsable_entry_is_refused_with_its_own_message(odd):
    matrix = [[0, 1, 2], [1, 0, "1.5x"], [2, odd, 0]]
    matrix[0][2] = odd
    with pytest.raises(BadParamsError) as err:
        find_violation(matrix)
    with pytest.raises(BadParamsError) as alone:
        parse_rational(odd)
    assert str(err.value) == str(alone.value)


def test_empty_matrix_rejected():
    with pytest.raises(BadParamsError):
        find_violation([])


def test_non_square_rejected():
    with pytest.raises(BadParamsError):
        find_violation([[0, 1]])


def test_duplicate_labels_rejected():
    with pytest.raises(BadParamsError):
        validate_ultrametric([[0, 1], [1, 0]], ["a", "a"])
    with pytest.raises(BadParamsError, match=r"labels must be strings, got \['a'\]"):
        validate_ultrametric([[0, 1], [1, 0]], [["a"], {"b": 1}])


# --- diam / closed_ball / smallest_ball --------------------------------------


def test_diam_examples():
    s = three_point_space()
    assert diam(s, [0]) == 0
    assert diam(s, [0, 1]) == 1
    assert diam(s, [0, 1, 2]) == 2


def test_diam_empty_subset():
    with pytest.raises(EmptySubsetError):
        diam(three_point_space(), [])


def test_diam_shortcut_equals_pairwise_exhaustively():
    for seed, n in [(3, 4), (11, 7), (2024, 10)]:
        s = random_space(seed, n, POOL)
        for bits in range(1, 2**n):
            subset = [i for i in range(n) if bits >> i & 1]
            assert diam(s, subset) == diam_pairwise(s, subset)


def test_closed_ball_examples():
    s = three_point_space()
    assert closed_ball(s, 0, 0) == Ball((0,), Fraction(0))
    assert closed_ball(s, 0, 1) == Ball((0, 1), Fraction(1))
    # the requested radius 3/2 is not kept; the diameter is
    assert closed_ball(s, 0, "3/2") == Ball((0, 1), Fraction(1))
    assert closed_ball(s, True, 0) == Ball((1,), Fraction(0))  # a bool is an int
    assert "ball_table" not in vars(s)  # a lone query scans one row


def test_closed_ball_negative_radius():
    with pytest.raises(NegativeRadiusError):
        closed_ball(three_point_space(), 0, -1)
    for center in (-1, 3):
        with pytest.raises(BadParamsError, match=f"center {center} out of range"):
            closed_ball(three_point_space(), center, 1)
    s = three_point_space()
    closed_ball(s, 1, 1)  # an int center first: nothing it leaves on the space lets 1.0 in
    for center in (1.0, "1", None):
        with pytest.raises(BadParamsError, match="center must be a point index"):
            closed_ball(s, center, 1)


def test_smallest_ball_examples():
    s = three_point_space()
    assert smallest_ball(s, [0]).members == (0,)
    assert smallest_ball(s, [0, 2]).members == (0, 1, 2)
    ball = closed_ball(s, 0, 1)
    assert smallest_ball(s, ball.members) == ball  # idempotent on balls


def test_smallest_ball_minimality_against_all_balls():
    for seed in range(6):
        s = random_space(seed, 7, POOL)
        balls = [closed_ball(s, c, r) for c in range(s.n) for r in set(s.dist[c]) | {Fraction(0)}]
        for bits in range(1, 2**s.n):
            subset = {i for i in range(s.n) if bits >> i & 1}
            bstar = smallest_ball(s, subset)
            assert subset <= set(bstar.members)
            for other in balls:
                if subset <= set(other.members):
                    assert set(bstar.members) <= set(other.members)


# --- ball_relation -----------------------------------------------------------


def test_ball_relation_examples():
    s = three_point_space()
    a = closed_ball(s, 0, 0)
    ab = closed_ball(s, 0, 1)
    c = closed_ball(s, 2, 0)
    assert ball_relation(s, a, ab) is BallRelation.PROPER_SUBSET
    assert ball_relation(s, ab, a) is BallRelation.PROPER_SUPERSET
    assert ball_relation(s, ab, c) is BallRelation.DISJOINT
    assert ball_relation(s, ab, ab) is BallRelation.EQUAL


def test_ball_relation_rejects_foreign_ball():
    s = three_point_space()
    with pytest.raises(ForeignBallError):
        ball_relation(s, Ball((0, 2), Fraction(2)), closed_ball(s, 0, 0))


def test_foreign_ball_wrong_diameter():
    s = three_point_space()
    with pytest.raises(ForeignBallError):
        ball_relation(s, Ball((0, 1), Fraction(2)), closed_ball(s, 0, 0))


# --- invariants over random spaces -------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8))
def test_every_member_recenters_its_ball(seed, n):
    s = random_space(seed, n, POOL)
    radii = {Fraction(0)}
    for row in s.dist:
        radii.update(row)
        radii.update(v + Fraction(1, 7) for v in row)
        radii.update(v for v in (x - Fraction(1, 7) for x in row) if v >= 0)
    for center in range(n):
        for r in radii:
            ball = closed_ball(s, center, r)
            for member in ball.members:
                assert closed_ball(s, member, r).members == ball.members


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8))
def test_canonical_radius_reproduces_ball(seed, n):
    s = random_space(seed, n, POOL)
    for center in range(n):
        for r in set(s.dist[center]) | {Fraction(0)}:
            ball = closed_ball(s, center, r)
            for member in ball.members:
                assert closed_ball(s, member, ball.diameter).members == ball.members


def test_a_copied_space_builds_its_own_caches():
    # A ball table accepts its own balls by id.  A copy that carried the
    # original's table over would name addresses that are not its balls, and a
    # foreign ball landing on one once the original is freed would be accepted.
    space = random_binary_space(1, 30)
    build_dendrogram(space), ballean_space(space), space.dist
    table = space.ball_table
    for copied in (copy.copy(space), copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
        assert set(vars(copied)) == {"labels", "levels", "ranks"} and copied == space
        own = copied.ball_table
        assert own is not table and own.balls == table.balls and own.rank == table.rank
        assert sorted(own.own) == sorted(map(id, own.balls))
        assert [core.require_canonical(copied, b) for b in own.balls] == [table.own[id(b)] for b in table.balls]
        assert ballean_space(copied) == ballean_space(space) and build_dendrogram(copied) == build_dendrogram(space)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
def test_no_partial_overlap_and_disjoint_distance(seed, n):
    s = random_space(seed, n, POOL)
    balls = {closed_ball(s, c, r) for c in range(n) for r in set(s.dist[c]) | {Fraction(0)}}
    for b1, b2 in combinations(sorted(balls, key=lambda b: b.members), 2):
        relation = ball_relation(s, b1, b2)
        if relation is BallRelation.DISJOINT:
            union_diam = diam(s, b1.members + b2.members)
            for x in b1.members:
                for y in b2.members:
                    assert s.dist[x][y] == union_diam
        else:
            assert relation is not BallRelation.EQUAL


# --- serialization -----------------------------------------------------------


def test_space_json_round_trip():
    s = random_space(5, 6, POOL)
    again = space_from_json_dict(space_to_json_dict(s))
    assert again.dist == s.dist
    assert again.labels == s.labels
    data = {"labels": ["a", "b"], "matrix": [["1/3", -2], ["1.5", 0]]}
    replay = core._parse_space_json(data)
    assert space_to_json_dict(replay)["matrix"] == [["1/3", "-2"], ["3/2", "0"]]


def test_space_from_json_accepts_decimal_and_fraction_strings():
    s = space_from_json_dict(
        {"labels": ["a", "b"], "matrix": [["0", "1.5"], ["3/2", 0]]}
    )
    assert s.d(0, 1) == Fraction(3, 2)


def test_equidistant_space_shape():
    s = equidistant_space(4, "3/2")
    assert s.n == 4
    assert {s.dist[i][j] for i in range(4) for j in range(4) if i != j} == {Fraction(3, 2)}
    for n in range(1, 9):
        s = equidistant_space(n, "3/2")
        assert find_violation(s.dist, s.labels) is None
    with pytest.raises(BadParamsError):
        equidistant_space(3, 1, labels=["a", "b", "a"])
    with pytest.raises(BadParamsError, match="n must be at least 1"):
        equidistant_space(0, 1)
    for value in (0, -1):
        with pytest.raises(BadParamsError, match="the common distance must be positive"):
            equidistant_space(3, value)


# --- the stored triple -------------------------------------------------------


def _constructed_spaces():
    binary = random_binary_space(3, 6)
    shallow = random_space(7, 8, POOL)
    # {a, b} is a ball, so its joined label "a+b" repeats, and "a+b#2" is taken.
    collision = validate_ultrametric([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]],
                                     ["a", "b", "a+b", "a+b#2"])
    return {
        "random_space": shallow,
        "random_binary_space": binary,
        "dendrogram_to_space": dendrogram_to_space(build_dendrogram(shallow)),
        "equidistant_space": equidistant_space(5, "3/2"),
        "equidistant_space_one_point": equidistant_space(1, "3/2"),
        "restrict": binary.restrict([0, 2, 5]),
        "restrict_one_point": binary.restrict([4]),
        "ballean_space": ballean_space(shallow),
        "iterate_ballean_2": iterate_ballean(binary, 2),
        "ballean_space_label_collision": ballean_space(collision),
        "iterate_ballean_2_label_collision": iterate_ballean(collision, 2),
        "dlps_sample_zero": dlps_sample(dlps_space((1, 2), True, [("1/3", "1/2")]), 5, "1/16"),
        "dlps_sample_no_zero": dlps_sample(dlps_space(tails=[(1, "1/2")]), 4, "1/16"),
    }


@pytest.mark.parametrize("name", list(_constructed_spaces()))
def test_every_constructor_yields_the_canonical_triple(name):
    space = _constructed_spaces()[name]
    assert core._parse_space(space.dist, space.labels) == space
    assert all(type(v) is Fraction for row in space.dist for v in row)
    assert space_violation(space) is None


def test_an_unused_negative_level_keeps_its_verdict():
    # No constructor builds this triple: 0 is not the lowest level although
    # no entry is negative.  The whole-matrix test sends it to the witness
    # scans, which find nothing, and the split accepts it.
    levels = (Fraction(-1), Fraction(0), Fraction(1))
    space = core.FiniteUltrametricSpace(("a", "b"), levels, ((1, 2), (2, 1)))
    assert space_violation(space) is None


def test_loading_and_ranking_a_ballean_hash_no_fraction(monkeypatch):
    data = space_to_json_dict(random_binary_space(7, 48))
    calls = []
    fraction_hash = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    space = space_from_json_dict(data)
    assert len(calls) == 0
    levels, merges = _walk(build_dendrogram(space))
    balls, rows = _ballean_rows(space.n, merges, range(len(levels)))
    assert len(calls) == 0
    assert len(balls) == len(rows) == 95 and levels == space.levels


@pytest.mark.parametrize("odd", [True, 1.0, False, 0.0])
def test_equal_non_rational_entry_next_to_an_int_is_refused(odd):
    # True == 1 and 0.0 == 0 as dict keys, so a parse memo keyed by value
    # alone would let these through.
    twin = int(odd)
    matrix = [[0, twin, 2], [twin, 0, 2], [2, 2, 0]]
    matrix[1][0] = odd
    with pytest.raises(BadParamsError):
        find_violation(matrix)
    with pytest.raises(BadParamsError):
        core._parse_space_json({"labels": ["a", "b", "c"], "matrix": matrix})


def test_each_validated_space_is_parsed_once(monkeypatch):
    calls = []
    parse = core._parse_space

    def counting(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(core, "_parse_space", counting)
    data = space_to_json_dict(random_binary_space(0, 8))
    validate_ultrametric(data["matrix"], data["labels"])
    assert len(calls) == 1
    calls.clear()
    space_from_json_dict(data)
    assert len(calls) == 1
    calls.clear()
    report = run_suite(TrialConfig(checks=("H2", "H12")), replay_spaces=[data])
    assert report.passed
    assert len(calls) == 1  # loading the replay


def test_every_exported_name_has_a_library_caller_or_a_readme_line():
    # A public name earns its place by a use elsewhere in the package or a
    # documented purpose; a name with neither restates something else.
    package = Path(ultraball.__file__).parent
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    unused = []
    for name in ultraball.__all__:
        home = getattr(ultraball, name).__module__.rpartition(".")[2]
        others = [p for p in package.glob("*.py") if p.stem not in (home, "__init__")]
        used = re.compile(rf"\b{name}\b")
        if not used.search(readme) and not any(used.search(p.read_text(encoding="utf-8")) for p in others):
            unused.append(name)
    assert unused == []
