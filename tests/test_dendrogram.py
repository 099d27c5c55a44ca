import ast
import re
import time
from fractions import Fraction
from operator import eq
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_isometric,
    caterpillar,
    caterpillar_tree,
    recursive_split_reference,
    splits_cleanly_reference,
)
from ultraball import core, dendrogram
from ultraball.ballean import ballean_space, enumerate_ballean
from ultraball.core import (
    BadParamsError,
    FiniteUltrametricSpace,
    MalformedTreeError,
    _parse_space,
    equidistant_space,
    find_violation,
    space_to_json_dict,
    space_violation,
    validate_ultrametric,
)
from ultraball.dendrogram import (
    Dendrogram,
    Leaf,
    Merge,
    _ballean_rows,
    _balls,
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
from ultraball.harness import TrialConfig, run_suite

POOL = ("1", "3/2", "2", "3", "7/2", "4")


def three_point_space():
    return validate_ultrametric([[0, 1, 2], [1, 0, 2], [2, 2, 0]], ["a", "b", "c"])


def test_build_three_point_structure():
    d = build_dendrogram(three_point_space())
    root = d.root
    assert isinstance(root, Merge) and root.level == 2
    inner, leaf = root.children  # children sorted by smallest leaf index
    assert isinstance(inner, Merge) and inner.level == 1
    assert {c.point for c in inner.children} == {0, 1}
    assert isinstance(leaf, Leaf) and leaf.point == 2


def test_build_one_point_space():
    d = build_dendrogram(validate_ultrametric([[0]], ["x"]))
    assert isinstance(d.root, Leaf)


def test_build_equidistant_is_star():
    d = build_dendrogram(equidistant_space(5, 2))
    assert isinstance(d.root, Merge)
    assert len(d.root.children) == 5
    assert all(isinstance(c, Leaf) for c in d.root.children)


def test_round_trip_matrix_identity():
    for seed in range(10):
        s = random_space(seed, 8, POOL)
        assert dendrogram_to_space(build_dendrogram(s)).dist == s.dist


def test_round_trip_tree_isomorphism():
    for seed in range(10):
        s = random_space(seed, 7, POOL)
        d = build_dendrogram(s)
        rebuilt = build_dendrogram(dendrogram_to_space(d))
        assert canonical_code(rebuilt) == canonical_code(d)


def test_star_dendrogram_gives_equidistant_space():
    d = Dendrogram(Merge(Fraction(1), tuple(Leaf(i) for i in range(4))), ("a", "b", "c", "d"))
    s = dendrogram_to_space(d)
    assert s.dist == equidistant_space(4, 1).dist


def test_malformed_trees_rejected():
    with pytest.raises(MalformedTreeError):
        dendrogram_to_space(Dendrogram(Merge(Fraction(1), (Leaf(0),)), ("a",)))
    nested = Merge(Fraction(1), (Merge(Fraction(2), (Leaf(0), Leaf(1))), Leaf(2)))
    with pytest.raises(MalformedTreeError):
        dendrogram_to_space(Dendrogram(nested, ("a", "b", "c")))
    with pytest.raises(MalformedTreeError):
        dendrogram_to_space(Dendrogram(Merge(Fraction(1), (Leaf(0), Leaf(2))), ("a", "b")))
    unary = Merge(Fraction(2), (Merge(Fraction(1), (Leaf(0), Leaf(1))),))
    for tree, labels in [
        (unary, ("a", "b")),
        (Merge(Fraction(1), (Leaf(0), Leaf(2))), ("a", "b")),
        (Merge(Fraction(1), (Leaf(0), Leaf(1))), ("a", "b", "c")),
        (nested, ("a", "b", "c")),
        (Merge(Fraction(-1), (Leaf(0), Leaf(1))), ("a", "b")),
        (Merge(Fraction(1), (Leaf(0), Leaf(1))), ("a", "a")),
    ]:
        with pytest.raises(MalformedTreeError):
            ballean_tree(Dendrogram(tree, labels))


# Every function that takes a hand-built Dendrogram checks it first.
TREE_ENTRIES = (dendrogram_to_space, ballean_tree, canonical_code, format_dendrogram, _walk)


@pytest.mark.parametrize("level", [1.5, float("inf"), float("nan"), True, "2", None])
def test_levels_that_are_not_rationals_are_rejected(level):
    for entry in TREE_ENTRIES:
        with pytest.raises(MalformedTreeError, match="levels must be Fractions or ints"):
            entry(Dendrogram(Merge(level, (Leaf(0), Leaf(1))), ("a", "b")))
        nested = Merge(Fraction(3), (Merge(level, (Leaf(0), Leaf(1))), Leaf(2)))
        with pytest.raises(MalformedTreeError, match=re.escape(f"got {level!r}")):
            entry(Dendrogram(nested, ("a", "b", "c")))


@pytest.mark.parametrize(
    "root, labels",
    [
        (Merge(Fraction(1), (Leaf(0), Leaf(1.0))), ("a", "b")),
        (Merge(Fraction(1), (Leaf(0), Leaf("1"))), ("a", "b")),
        (Merge(Fraction(1), (Leaf(0), Leaf(True))), ("a", "b")),
        (Leaf(False), ("a",)),
        (None, ("a",)),
        (Merge(Fraction(1), (Leaf(0), None)), ("a", "b")),
        (Merge(Fraction(1), None), ("a",)),
        (Merge(Fraction(1), (Leaf(0), Leaf(1))), None),
        (Merge(Fraction(1), (Leaf(0), Leaf(1))), (1, 2)),
        (Merge(Fraction(1), (Leaf(0), Leaf(1))), "ab"),
        (Merge(Fraction(2), (Leaf(0), Leaf(0))), ("a", "b")),
        (Merge(Fraction(2), (Leaf(0), Leaf(5))), ("a", "b")),
        (Merge(Fraction(2), (Leaf(0), "b")), ("a", "b")),
    ],
)
def test_malformed_nodes_points_and_labels_rejected(root, labels):
    for entry in TREE_ENTRIES:
        with pytest.raises(MalformedTreeError):
            entry(Dendrogram(root, labels))


def test_a_bad_point_is_reported_in_pre_order():
    high = Merge(Fraction(2), (Leaf(1), Leaf(2)))
    for entry in TREE_ENTRIES:
        with pytest.raises(MalformedTreeError, match="leaf points must be ints, got 0.0"):
            entry(Dendrogram(Merge(Fraction(1), (Leaf(0.0), high)), ("a", "b", "c")))
        with pytest.raises(MalformedTreeError, match="strictly decrease"):
            entry(Dendrogram(Merge(Fraction(1), (high, Leaf(0.0))), ("a", "b", "c")))


def test_int_levels_become_fractions():
    space = dendrogram_to_space(Dendrogram(Merge(2, (Merge(1, (Leaf(0), Leaf(1))), Leaf(2))), ("a", "b", "c")))
    assert all(type(v) is Fraction for row in space.dist for v in row)
    assert space.levels == (0, 1, 2) and all(type(v) is Fraction for v in space.levels)
    tower = ballean_tree(Dendrogram(Merge(2, (Leaf(0), Leaf(1))), ("a", "b")))
    assert type(tower.root.level) is Fraction
    assert tower == Dendrogram(Merge(Fraction(2), (Leaf(0), Leaf(1), Leaf(2))), ("a", "b", "a+b"))  # its own ball last


def test_repeated_labels_rejected():
    tree = Merge(Fraction(1), (Leaf(0), Leaf(1)))
    with pytest.raises(MalformedTreeError, match="unique"):
        dendrogram_to_space(Dendrogram(tree, ("a", "a")))


def test_canonical_code_ignores_labels_and_order():
    left = Merge(Fraction(2), (Merge(Fraction(1), (Leaf(0), Leaf(1))), Leaf(2)))
    right = Merge(Fraction(2), (Leaf(0), Merge(Fraction(1), (Leaf(1), Leaf(2)))))
    d1 = Dendrogram(left, ("a", "b", "c"))
    d2 = Dendrogram(right, ("x", "y", "z"))
    assert canonical_code(d1) == canonical_code(d2)
    assert canonical_code(d1) == canonical_code(d1)


def test_canonical_code_separates_structures():
    chain = build_dendrogram(three_point_space())
    star = build_dendrogram(equidistant_space(3, 2))
    assert canonical_code(chain) != canonical_code(star)


def test_are_isometric_permutation():
    s = three_point_space()
    permuted = validate_ultrametric([[0, 2, 2], [2, 0, 1], [2, 1, 0]], ["c", "a", "b"])
    assert are_isometric(s, permuted)


def test_are_isometric_negative():
    assert not are_isometric(three_point_space(), equidistant_space(3, 2))


def test_not_isometric_to_own_ballean():
    from ultraball.ballean import ballean_space

    eq = equidistant_space(3, 1)
    assert not are_isometric(eq, ballean_space(eq))  # 3 points vs 4


@settings(max_examples=80, deadline=None, derandomize=True)
@given(s1=st.integers(0, 10**6), s2=st.integers(0, 10**6), n=st.integers(1, 6))
def test_codes_agree_with_brute_force_search(s1, s2, n):
    a = random_space(s1, n, ("1", "2", "3"))
    b = random_space(s2, n, ("1", "2", "3"))
    assert are_isometric(a, b) == brute_isometric(a, b)


def test_node_leaf_sets_equal_ball_member_sets():
    for seed in range(8):
        s = random_space(seed, 8, POOL)
        assert _balls(s.n, s.split[0]) == [b.members for b in enumerate_ballean(s)]
        assert _balls(s.n, _walk(build_dendrogram(s))[1]) == _balls(s.n, s.split[0])


def test_random_space_deterministic():
    a = random_space(99, 8, POOL)
    b = random_space(99, 8, POOL)
    assert a.dist == b.dist


def test_random_space_single_level_pool_is_equidistant():
    s = random_space(4, 6, ("2",))
    assert {s.dist[i][j] for i in range(6) for j in range(6) if i != j} == {Fraction(2)}


def test_random_space_one_point():
    assert random_space(7, 1, POOL).n == 1


def test_random_space_always_valid():
    for seed in range(25):
        s = random_space(seed, 10, POOL)
        assert find_violation(s.dist, s.labels) is None


def test_random_space_bad_params():
    with pytest.raises(BadParamsError):
        random_space(1, 0, POOL)
    with pytest.raises(BadParamsError):
        random_space(1, 3, ())
    with pytest.raises(BadParamsError):
        random_space(1, 3, ("0",))
    with pytest.raises(BadParamsError, match="n must be at least 1"):
        random_binary_space(1, 0)


def test_random_binary_space_maximal_ballean():
    for seed in range(6):
        for n in (2, 5, 9):
            s = random_binary_space(seed, n)
            assert all(len(parts) == 2 for _, _, parts in s.split[0])
            assert len(enumerate_ballean(s)) == 2 * n - 1


def test_generators_fill_ranks_without_a_tree(monkeypatch):
    # The ranks are filled as the tree is drawn: no Merge, no tree read back.
    merges, reads = [], []
    init = Merge.__init__
    monkeypatch.setattr(Merge, "__init__", lambda self, *a: merges.append(a) or init(self, *a))
    monkeypatch.setattr(dendrogram, "dendrogram_to_space", lambda d: reads.append(d) or dendrogram_to_space(d))
    for seed in range(20):
        random_space(seed, 12, POOL)
        random_binary_space(seed, 12)
    assert (len(merges), len(reads)) == (0, 0)
    Merge(Fraction(1), (Leaf(0), Leaf(1)))
    assert len(merges) == 1  # the patch took


def test_format_three_point():
    assert format_dendrogram(build_dendrogram(three_point_space())) == "(2 (1 a b) c)"


def test_format_fractional_level():
    s = equidistant_space(2, "3/2", labels=("a", "b"))
    assert format_dendrogram(build_dendrogram(s)) == "(3/2 a b)"


def test_validation_builds_the_tree_that_build_dendrogram_returns(split_calls):
    data = space_to_json_dict(random_binary_space(3, 20))
    space = validate_ultrametric(data["matrix"], data["labels"])
    assert len(split_calls) == 1
    merges, clean = split_calls[0]
    assert clean and "tree" not in vars(space)  # validation records merges, and builds no tree
    tree = build_dendrogram(space)
    assert build_dendrogram(space) is tree
    assert _walk(tree) == (space.levels, merges)
    assert are_isometric(space, space)
    assert len(split_calls) == 1


def test_walks_handle_a_3000_deep_tree():
    n = 3001
    d = Dendrogram(caterpillar_tree(n), tuple(f"p{i}" for i in range(n)))
    space = dendrogram_to_space(d)
    assert space.levels == tuple(map(Fraction, range(n)))
    assert all(row == (i,) * i + (0,) + tuple(range(i + 1, n)) for i, row in enumerate(space.ranks))
    merges = _walk(d)[1]
    assert all(len(parts) == 2 for _, _, parts in merges) and len(_balls(n, merges)) == 2 * n - 1
    assert canonical_code(d).count("*") == n
    assert format_dendrogram(d).startswith("(3000 (2999 (2998 ")
    # One ballean: a tower's labels grow with the cube of the depth.
    code = canonical_code(ballean_tree(d))
    assert code.startswith("(3000:(2999:(2998:") and "(2:(1:*,*,*),*,*)" in code
    # The ballean of a 3000-deep tree has a 6001-ball square matrix, so the
    # rank rows are read off a 999-deep tree.
    levels, merges = _walk(Dendrogram(caterpillar_tree(1000), d.labels[:1000]))
    balls, rows = _ballean_rows(1000, merges, range(len(levels)))
    assert len(balls) == len(rows) == 2 * 1000 - 1 and levels == tuple(map(Fraction, range(1000)))
    assert rows[-1][:3] == (999, 999, 999) and rows[0][0] == 0


def _recursive_functions(source: str) -> list[str]:
    """Functions, nested ones and methods included, that name themselves in
    their own body, called or passed (``map(walk, ...)``, ``self.walk``)."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")}
            if fn.name in names:
                found.append(f"{fn.name} (line {fn.lineno})")
    return found


def test_no_function_in_the_package_recurses():
    # Walks keep their pending work on lists, so no tree is too deep to walk.
    for path in sorted(Path(dendrogram.__file__).parent.glob("*.py")):
        assert _recursive_functions(path.read_text(encoding="utf-8")) == [], path.name
    assert _recursive_functions("def f(t):\n    return list(map(f, t))") == ["f (line 1)"]


def _names(source: str) -> set[str]:
    """Every name the source defines, imports, reads or writes, attributes included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def test_core_knows_no_node_tree():
    # The node tree is the tree module's format alone: core holds merges.
    tree_names = {"Leaf", "Merge", "Node", "Dendrogram", "_tree", "_fold_merges"}
    assert _names(Path(core.__file__).read_text(encoding="utf-8")) & tree_names == set()
    assert _names(Path(dendrogram.__file__).read_text(encoding="utf-8")) >= tree_names
    assert _names("from m import Leaf\nclass Node: pass\nx = m._tree(Merge)") >= {"Leaf", "Node", "_tree", "Merge"}
    assert not hasattr(FiniteUltrametricSpace, "tree")


def _node_readers(source: str) -> set[str]:
    """The functions in the source that read a node's or a tree's fields."""
    fields = {"root", "children", "point", "level"}
    return {
        f.name for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef)
        and any(isinstance(a, ast.Attribute) and a.attr in fields for a in ast.walk(f))
    }


def test_one_function_reads_a_node_tree():
    # One walk checks and folds a hand-built tree; every tree routine calls it.
    assert _node_readers(Path(dendrogram.__file__).read_text(encoding="utf-8")) == {"_fold"}
    assert _node_readers("def f(d): return d.root\ndef g(n): return n.level\ndef h(point): return point") == {"f", "g"}


def test_ballean_tree_labels_a_collision_as_ballean_space_does():
    space = validate_ultrametric([[0, 1, 2], [1, 0, 2], [2, 2, 0]], ["a", "b", "a+b"])
    labels = ("a", "b", "a+b", "a+b#2", "a+a+b+b")
    assert ballean_tree(build_dendrogram(space)).labels == labels
    assert ballean_space(space).labels == labels
    # "a+b#2" is an input label, so the ball {a, b}, a repeat of "a+b", takes "#3".
    space = validate_ultrametric([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]], ["a", "b", "a+b", "a+b#2"])
    labels = ("a", "b", "a+b", "a+b#2", "a+b#3", "a+a+b+a+b#2+b")
    d = ballean_tree(build_dendrogram(space))
    assert d.labels == labels
    assert ballean_space(space).labels == labels
    tower = ballean_tree(d)
    assert tower.labels == ballean_space(ballean_space(space)).labels
    assert len(set(tower.labels)) == tower.n == 8
    assert dendrogram_to_space(tower) == ballean_space(ballean_space(space))
    assert canonical_code(tower) == canonical_code(build_dendrogram(ballean_space(ballean_space(space))))


def test_ballean_tree_tower_of_depth_5_on_200_points_is_fast():
    # 0.03-0.04 s on a 2-vCPU machine; no matrix is built.
    start = time.perf_counter()
    d = build_dendrogram(random_binary_space(0, 200))
    for _ in range(5):
        d = ballean_tree(d)
    code = canonical_code(d)
    assert time.perf_counter() - start < 1.0
    assert d.n == 200 + 5 * 199
    assert code.count("*") == d.n


def _leaves(node):
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.point)
        else:
            assert len(node.children) >= 2
            stack.extend(node.children)
    return sorted(out)


ENTRIES = ("-1", "0", "1/2", "1", "2", "3")
SQUARE = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def _mirrored(matrix):
    """The upper triangle mirrored, made positive, off a zero diagonal: a
    matrix that passes every whole-matrix test and leaves the rest to the split."""
    positive = {"-1": "1", "0": "2"}

    def entry(i, j):
        v = matrix[min(i, j)][max(i, j)]
        return "0" if i == j else positive.get(v, v)

    return [[entry(i, j) for j in range(len(matrix))] for i in range(len(matrix))]


def _tree_or_error(build, space):
    try:
        return build(space)
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def _assert_split_matches_references(matrix):
    """The space's split gives the recursive reference's tree or AssertionError
    text, on a fresh space and after validation; where the whole-matrix tests
    pass, its flag is the accepting walk's and decides validity."""
    want = _tree_or_error(recursive_split_reference, _parse_space(matrix, None))
    assert _tree_or_error(build_dendrogram, _parse_space(matrix, None)) == want
    space = _parse_space(matrix, None)
    violation = space_violation(space)
    assert _tree_or_error(build_dendrogram, space) == want
    rows, zero = space.ranks, space.zero
    if all(map(eq, rows, zip(*rows))) and all(
        k == zero if i == j else k > zero for i, row in enumerate(rows) for j, k in enumerate(row)
    ):
        assert space.split[1] == splits_cleanly_reference(space)
        assert space.split[1] == (violation is None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrix=SQUARE)
def test_any_square_matrix_gives_a_tree_or_assertion_error(matrix):
    # Replays carry broken matrices to the tree: it must not fail any other way.
    n = len(matrix)
    space = _parse_space(matrix, None)
    try:
        d = build_dendrogram(space)
    except AssertionError:
        pass
    else:
        assert _leaves(d.root) == list(range(n))
    report = run_suite(TrialConfig(seed=1, trials=1, checks=("H5",)), [space_to_json_dict(space)])
    assert report.outcome("H5").trials == 1
    _assert_split_matches_references(matrix)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix=SQUARE.map(_mirrored))
def test_split_matches_references_on_symmetric_positive_matrices(matrix):
    _assert_split_matches_references(matrix)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from((48, 64)),
    binary=st.booleans(),
    mirror=st.booleans(),
    data=st.data(),
)
def test_split_matches_references_on_large_spaces_with_one_entry_overwritten(
    seed, n, binary, mirror, data
):
    base = random_binary_space(seed, n) if binary else random_space(seed, n, POOL)
    matrix = [list(map(str, row)) for row in base.dist]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    matrix[i][j] = data.draw(st.sampled_from(ENTRIES + POOL))
    if mirror:
        matrix[j][i] = matrix[i][j]
    _assert_split_matches_references(matrix)
