"""Independent brute-force reference implementations, used only by tests.

These deliberately avoid the shortcuts the library takes: diameters are
full pairwise maxima, isometry is a search over all bijections, and ball
detection scans every subset.  They stay slow so they stay trustworthy.
The per-call ball routes at the end are the ones the ball table replaced;
they rebuild every ball from a closed-ball scan on every call.  The
``Fraction`` routes are the ones integer ranks replaced: they compare the
distances themselves, never their ranks; the sup-inf and case-split
Hausdorff routes among them are the ones the rank cores of
``hausdorff_oracle`` and ``hausdorff_by_cases`` replaced.  The two split routes are the
recursive tree builder and the accepting walk that one iterative split on
the space replaced.  The rational parser reads every string through
``Fraction``'s own parser, as it did before digit-only text got a shortcut.
The triangle scan on ranks is the cubic one that naming a violation's
witness by a sweep of the thresholds replaced.
The H3 and H9 bodies that test containment on Python sets are the routes
that bitmasks and one ``map`` per row replaced; the pairwise fill is the
``ballean_space`` and ``iterate_ballean`` route that rows read off the
merge tree replaced.  The H11 body scans every subset of the ballean, where the library
reads a closed form off the pairs of balls.  The level-pool parse feeds the
two generators after it, which build a merge tree and read the space off it,
as the library did before it filled ranks while drawing.  The tree walks after them are
the recursive ones, one interpreter frame per level, that iterative walks
replaced; the merge triples converter reads merges named by id back into
the member tuples they named before.  The tail walks near the end are the ones repeated squaring
replaced: they visit every term in turn.  The space-level membership and
truncation routes after them are built on those walks and compare plain
``Fraction``s, where the library decides the order by bit lengths and
leading words first.
"""

import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import chain, combinations, permutations
from operator import itemgetter
from typing import Iterator, Sequence

from ultraball.ballean import (
    ballean_space,
    enumerate_ballean,
    hausdorff_balls,
    smallest_ball_distance,
)
from ultraball.core import (
    ZERO,
    Ball,
    BallRelation,
    BadParamsError,
    FiniteUltrametricSpace,
    ForeignBallError,
    MalformedTreeError,
    NegativeRadiusError,
    RationalLike,
    UltrametricViolation,
    _as_index_tuple,
    _make_labels,
    _over_levels_of,
    _TOO_LARGE,
    _fraction_text,
    _int_limit,
    _parse_space,
    _prints,
    ball_labels,
    ball_relation,
    parse_rational,
    rational_str,
)
from ultraball.dendrogram import (
    Dendrogram,
    Leaf,
    Merge,
    Node,
    _split,
    dendrogram_to_space,
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
            b = closed_ball_reference(space, c, r)
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
    if closed_ball_reference(space, members[0], ball.diameter) != ball:
        raise ForeignBallError(f"{ball} is not a canonical ball of this space")


def diam_reference(space: FiniteUltrametricSpace, subset) -> object:
    """Max distance from the first point of the subset, compared as Fractions."""
    idx = _as_index_tuple(space, subset)
    row = space.dist[idx[0]]
    return max(row[p] for p in idx)


def closed_ball_reference(space: FiniteUltrametricSpace, center: int, radius) -> Ball:
    """The points within the radius, by comparing each distance to it."""
    r = parse_rational(radius)
    if r < 0:
        raise NegativeRadiusError(f"radius must be nonnegative, got {r}")
    if not isinstance(center, int):  # bools are ints, and index rows as 0 and 1
        raise BadParamsError(f"center must be a point index, got {center!r}")
    if not 0 <= center < space.n:
        raise BadParamsError(f"center {center} out of range")
    row = space.dist[center]
    members = tuple(x for x in range(space.n) if row[x] <= r)
    return Ball(members, diam_reference(space, members))


def smallest_ball_reference(space: FiniteUltrametricSpace, subset) -> Ball:
    """The ball of radius diam(subset) around the subset's first point."""
    idx = _as_index_tuple(space, subset)
    return closed_ball_reference(space, idx[0], diam_reference(space, idx))


def family_diameters_reference(space: FiniteUltrametricSpace, balls) -> tuple:
    """family_diameters of canonical balls, every diameter recomputed by a
    Fraction scan: the Hausdorff one as the largest union diameter over the
    pairs, in member order."""
    distinct = sorted({b.members for b in balls})
    hd = max(
        max(diam_reference(space, a), diam_reference(space, b), space.dist[a[0]][b[0]])
        for a, b in combinations(distinct, 2)
    )
    union = sorted({m for members in distinct for m in members})
    ud = diam_reference(space, union)
    sd = smallest_ball_reference(space, union).diameter
    if not (hd == ud == sd):
        raise AssertionError(
            f"family diameters disagree: hausdorff={hd}, union={ud}, smallest-ball={sd}"
        )
    return hd, ud, sd


def hausdorff_oracle_reference(space: FiniteUltrametricSpace, a, b) -> Fraction:
    """The two-sided sup-inf over the two point sets, compared as Fractions."""
    a_idx = _as_index_tuple(space, a)
    b_idx = _as_index_tuple(space, b)
    dist = space.dist
    forward = max(min(dist[x][y] for y in b_idx) for x in a_idx)
    backward = max(min(dist[x][y] for x in a_idx) for y in b_idx)
    return max(forward, backward)


def hausdorff_by_cases_reference(space: FiniteUltrametricSpace, b1: Ball, b2: Ball) -> Fraction:
    """The case split on ball_relation, compared as Fractions: zero for equal
    balls, the larger diameter for nested ones, the gap between disjoint ones."""
    relation = ball_relation(space, b1, b2)
    if relation is BallRelation.EQUAL:
        return ZERO
    if relation is not BallRelation.DISJOINT:
        return max(b1.diameter, b2.diameter)
    dist = space.dist
    return min(dist[x][y] for x in b1.members for y in b2.members)


def find_violation_reference(matrix, labels=None):
    """First broken axiom, with the strong triangle scan on the matrix
    rescaled to integers by the lcm of its denominators."""
    space = _parse_space(matrix, labels)
    n, rows, labs = space.n, space.dist, space.labels
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return UltrametricViolation("AsymmetricEntry", (i, j), labs)
    for i in range(n):
        if rows[i][i] != 0:
            return UltrametricViolation("NonzeroDiagonal", (i,), labs)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] < 0:
                return UltrametricViolation("NegativeEntry", (i, j), labs)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] == 0:
                return UltrametricViolation("ZeroOffDiagonal", (i, j), labs)
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    m = [[int(v * scale) for v in row] for row in rows]
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k != i and k != j and m[i][j] > m[i][k] and m[i][j] > m[k][j]:
                    return UltrametricViolation("StrongTriangleViolation", (i, j, k), labs)
    return None


def triangle_scan_reference(rows: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """The first (i, j, k) in row-major order with rows[i][j] above both
    rows[i][k] and rows[j][k], by a scan of every triple; on a symmetric
    matrix row j is column j."""
    for i, ri in enumerate(rows):
        for j, dij in enumerate(ri):
            rj = rows[j]
            for k in range(len(rows)):
                if dij > ri[k] and dij > rj[k]:
                    return (i, j, k)
    return None


def caterpillar(n: int) -> FiniteUltrametricSpace:
    """The n-point space with d(i, j) = max(i, j), straight from the formula:
    point k joins the points below it at level k, so its merge tree is n - 1
    levels deep."""
    ranks = tuple(tuple(max(i, j) if i != j else 0 for j in range(n)) for i in range(n))
    return FiniteUltrametricSpace(tuple(f"p{i}" for i in range(n)), tuple(map(Fraction, range(n))), ranks)


def caterpillar_tree(n: int, level=Fraction, children=lambda node, k: (node, Leaf(k))) -> Node:
    """The merge tree of ``caterpillar(n)``, built bottom up with no matrix;
    ``level(k)`` and ``children(node, k)`` make the merge that adds point k."""
    node = Leaf(0)
    for k in range(1, n):
        node = Merge(level(k), children(node, k))
    return node


def _min_leaf(node) -> int:
    if isinstance(node, Leaf):
        return node.point
    return min(_min_leaf(c) for c in node.children)


def build_dendrogram_reference(space: FiniteUltrametricSpace) -> Dendrogram:
    """Single-linkage merge tree, one scan of the matrix per distinct
    positive distance, edges found by Fraction equality: the union-find
    that the recursive split on ranks replaced.  Children are sorted by
    their smallest leaf."""
    n = space.n
    if n == 1:
        return Dendrogram(Leaf(0), space.labels)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    values = {space.dist[i][j] for i in range(n) for j in range(i + 1, n)}
    nodes = {i: Leaf(i) for i in range(n)}
    for level in sorted(v for v in values if v > 0):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if space.dist[i][j] == level]
        old_roots = {find(i) for e in edges for i in e}
        for i, j in edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        buckets = defaultdict(list)
        for r in old_roots:
            buckets[find(r)].append(r)
        for new_root, olds in buckets.items():
            if len(olds) >= 2:
                children = sorted((nodes.pop(r) for r in olds), key=_min_leaf)
                nodes[new_root] = Merge(level, tuple(children))
    (root,) = nodes.values()
    return Dendrogram(root, space.labels)


def recursive_split_reference(space: FiniteUltrametricSpace) -> Dendrogram:
    """Merge tree of a valid space, by recursive split on ranks, one
    interpreter frame per level: the route the space's iterative split
    replaced.

    A set of points whose diameter has rank ``top`` splits into the classes
    of ``ranks[c][x] < top``; in an ultrametric space these are the maximal
    proper sub-balls, and each class splits the same way.  Classes are taken
    in order of their smallest point c, so children come out in that order,
    and only entries on or above the diagonal are read.  A point outside its
    own class raises AssertionError (no ultrametric has one); every other
    class is a proper subset, so the split always ends.
    """
    levels, ranks = space.levels, space.ranks

    def split(points: list[int]) -> Node:
        if len(points) == 1:
            return Leaf(points[0])
        top = max(map(ranks[points[0]].__getitem__, points))
        children: list[Node] = []
        while points:
            c, row = points[0], ranks[points[0]]
            if row[c] >= top:
                raise AssertionError(f"point {c} is not closer than {levels[top]} to itself")
            children.append(split([x for x in points if row[x] < top]))
            points = [x for x in points if row[x] >= top]
        return Merge(levels[top], tuple(children))

    return Dendrogram(split(list(range(space.n))), space.labels)


def splits_cleanly_reference(space: FiniteUltrametricSpace) -> bool:
    """Whether the split of ``build_dendrogram`` reproduces the matrix: every
    pair in two classes of a set must sit at exactly its ``top``.  On a
    symmetric matrix with positive entries off a zero diagonal, that holds iff
    it is ultrametric (Carlsson & Memoli, JMLR 2010).  Reads each pair once.
    This is the accepting walk that ran beside the tree-building split."""
    ranks = space.ranks
    stack = [list(range(space.n))] if space.n > 1 else []
    while stack:
        points = stack.pop()
        top = max(map(ranks[points[0]].__getitem__, points))
        while points:
            row = ranks[points[0]]
            inner = [x for x in points if row[x] < top]
            points = [x for x in points if row[x] >= top]
            if points:
                # The repeated last index makes the getter return a tuple.
                cross = itemgetter(*points, points[0])
                want = (top,) * (len(points) + 1)
                if any(cross(ranks[a]) != want for a in inner):
                    return False
            if len(inner) > 1:
                stack.append(inner)
    return True


def parse_rational_reference(value: RationalLike) -> Fraction:
    """``parse_rational`` with every string read by ``Fraction``: the route
    that reading digit-only text with ``int()`` replaced."""
    if isinstance(value, bool):
        raise BadParamsError(f"cannot use boolean {value!r} as a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        out = Fraction(value)
    elif isinstance(value, str):
        try:
            out = Fraction(_fraction_text(value.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParamsError(f"cannot parse {value!r} as a rational: {exc}") from exc
    else:
        raise BadParamsError(f"cannot parse {type(value).__name__} value {value!r} as a rational")
    if not _prints(out):
        raise BadParamsError(_TOO_LARGE.format(_int_limit()))
    return out


def parse_space_reference(
    matrix: Sequence[Sequence[RationalLike]], labels: Sequence[str] | None
) -> FiniteUltrametricSpace:
    """``_parse_space`` as one loop over every entry, each distinct one
    parsed when first seen by :func:`parse_rational_reference`: the route
    that parsing a string matrix by its set of distinct entries replaced.
    It ranks levels through a hashed ``set`` and ``dict`` of the Fractions
    themselves on purpose, independent of ``core._rank_levels``."""
    if not isinstance(matrix, (list, tuple)):
        raise BadParamsError(f"distance matrix must be a list of rows, got {type(matrix).__name__}")
    n = len(matrix)
    if n == 0:
        raise BadParamsError("a space must contain at least one point")
    for row in matrix:
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise BadParamsError("distance matrix must be square")
    # Each distinct entry is parsed once, when first seen.  Keys carry the
    # type, because True, 1 and 1.0 are equal keys and only 1 is a rational.
    slot_of: dict[tuple[type, RationalLike], int] = {}
    values: list[Fraction] = []
    slots = []
    for row in matrix:
        out = []
        for v in row:
            try:
                out.append(slot_of[type(v), v])
                continue
            except (KeyError, TypeError):  # a new entry, or an unhashable one
                pass
            values.append(parse_rational_reference(v))  # refuses every unhashable type
            out.append(slot_of.setdefault((type(v), v), len(values) - 1))
        slots.append(out)
    levels = sorted(set(values) | {ZERO})
    rank_of = {v: k for k, v in enumerate(levels)}
    rank = [rank_of[v] for v in values]
    ranks = tuple(tuple(map(rank.__getitem__, row)) for row in slots)
    return FiniteUltrametricSpace(_make_labels(n, labels), tuple(levels), ranks)


def body_h3_reference(space: FiniteUltrametricSpace, rng=None) -> str | None:
    """H3's body as it tested every ball against every pair of balls: the
    scan that a table of each ball's containing balls replaced."""
    balls = enumerate_ballean(space)
    ball_sets = [set(b.members) for b in balls]
    for b1, b2 in combinations(balls, 2):
        bstar, value = smallest_ball_distance(space, b1, b2)
        if value != hausdorff_balls(space, b1, b2):
            return f"smallest-ball diameter != Hausdorff distance for {b1.members}, {b2.members}"
        union = set(b1.members) | set(b2.members)
        if not union <= set(bstar.members):
            return f"smallest ball does not contain the union for {b1.members}, {b2.members}"
        for other, other_set in zip(balls, ball_sets):
            if union <= other_set and not set(bstar.members) <= other_set:
                return (
                    f"ball {other.members} contains the union of {b1.members} and "
                    f"{b2.members} but not their smallest ball"
                )
    return None


# The subset scan below doubles its work with each ball.
H11_SCAN_MAX_BALLS = 11


def body_h11_reference(space: FiniteUltrametricSpace, rng=None) -> str | None:
    """H11 from its definitions: every subset as a frozenset, and its
    isolated and accumulation points as sets.  The library decides it by a
    closed form over pairs of balls."""
    bspace = ballean_space(space)
    m = bspace.n
    if m > H11_SCAN_MAX_BALLS:
        return f"ballean has {m} balls, over the H11 subset-scan limit of {H11_SCAN_MAX_BALLS}"
    universe = set(range(m))
    ranks, zero = bspace.ranks, bspace.zero

    def iso_of(subset: frozenset[int]) -> set[int]:
        return {s for s in subset if all(ranks[s][t] > zero for t in subset if t != s)}

    def acc_of(subset: frozenset[int]) -> set[int]:
        # No Hausdorff distance is negative, so a zero one is the least.
        return {c for c in range(m) if any(ranks[c][s] == zero for s in subset if s != c)}

    dense_discrete: list[frozenset[int]] = []
    for bits in range(1, 2**m):
        subset = frozenset(i for i in range(m) if bits >> i & 1)
        iso, acc = iso_of(subset), acc_of(subset)
        if iso & acc:
            return f"iso and acc intersect for subset {sorted(subset)}"
        dense = subset == universe  # in a finite space only the whole set is dense
        if ((iso | acc) == universe) != dense:
            return f"iso+acc covers the space but subset {sorted(subset)} is not dense"
        if dense and iso == subset:
            dense_discrete.append(subset)
    if dense_discrete != [frozenset(universe)]:
        return f"dense discrete subsets are not unique: {len(dense_discrete)} found"
    return None


def body_h9_reference(space: FiniteUltrametricSpace, rng=None) -> str | None:
    """H9's body as it tested containment with Python sets."""
    balls = enumerate_ballean(space)
    for y in balls:
        y_set = set(y.members)
        position = {orig: i for i, orig in enumerate(y.members)}
        expected = {
            tuple(sorted(position[m] for m in b.members))
            for b in balls
            if set(b.members) <= y_set
        }
        actual = {b.members for b in enumerate_ballean(space.restrict(y.members))}
        if expected != actual:
            return f"subballs of {y.members} do not match the ballean of the restriction"
    return None


def ballean_space_pairwise_reference(space: FiniteUltrametricSpace) -> FiniteUltrametricSpace:
    """``ballean_space`` as it filled the matrix pair by pair, each cell and
    its mirror from one Python ``max``."""
    balls = enumerate_ballean(space)
    labels = ball_labels(space.labels, [b.members for b in balls])
    m = len(balls)
    # hausdorff_balls's rank of each pair, with all three terms: the reference keeps top_i.
    rank, ranks = space.ball_table.rank, space.ranks
    tops, firsts = [rank[b.members] for b in balls], [b.members[0] for b in balls]
    rows = [[space.zero] * m for _ in range(m)]
    for i in range(m):
        top, at = tops[i], ranks[firsts[i]]
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = max(top, tops[j], at[firsts[j]])
    return _over_levels_of(space.levels, labels, tuple(map(tuple, rows)))


def iterate_ballean_pairwise_reference(space: FiniteUltrametricSpace, depth: int) -> FiniteUltrametricSpace:
    """The depth-th ballean, the pairwise fill applied ``depth`` times."""
    for _ in range(depth):
        space = ballean_space_pairwise_reference(space)
    return space


def parse_pool_reference(level_pool: Sequence[RationalLike]) -> list[Fraction]:
    """A level pool's distinct values, sorted, parsed afresh on every call."""
    pool = sorted({parse_rational(v) for v in level_pool})
    if not pool:
        raise BadParamsError("level pool must be nonempty")
    if pool[0] <= 0:
        raise BadParamsError("level pool values must be positive")
    return pool


def _grow_reference(rng: random.Random, points: list[int], pool: list[Fraction]) -> Node:
    # The pool is sorted and distinct, so the levels below pool[i] are pool[:i].
    i = rng.randrange(len(pool))
    level, sub = pool[i], pool[:i]
    children: dict[int, Node] = {}  # keyed by smallest leaf; parts are sorted
    for part in _split(rng, points):
        if len(part) == 1:
            children[part[0]] = Leaf(part[0])
        elif sub:
            children[part[0]] = _grow_reference(rng, part, sub)
        else:
            # No strictly smaller level available: the part flattens into
            # leaves merged here, keeping levels strictly decreasing.
            children.update((p, Leaf(p)) for p in part)
    return Merge(level, tuple(children[k] for k in sorted(children)))


def random_space_reference(
    seed: int, n: int, level_pool: Sequence[RationalLike]
) -> FiniteUltrametricSpace:
    """Seed-deterministic random space built through a random merge tree.

    Levels are drawn from the pool with strict decrease along root-to-leaf
    paths, so the output always satisfies the ultrametric axioms.  A pool
    with a single level forces an equidistant space.
    """
    if n < 1:
        raise BadParamsError("n must be at least 1")
    pool = parse_pool_reference(level_pool)
    labels = tuple(f"p{i}" for i in range(n))
    root = _grow_reference(random.Random(seed), list(range(n)), pool) if n > 1 else Leaf(0)
    return dendrogram_to_space(Dendrogram(root, labels))


def random_binary_space_reference(seed: int, n: int) -> FiniteUltrametricSpace:
    """Random space whose merge tree is binary with the levels 1..n-1.

    Such a space realizes the maximal ballean: exactly 2n-1 balls.
    """
    if n < 1:
        raise BadParamsError("n must be at least 1")
    labels = tuple(f"p{i}" for i in range(n))
    rng = random.Random(seed)
    # (smallest leaf, subtree) pairs; n-1 merges leave exactly one.
    clusters: list[tuple[int, Node]] = [(i, Leaf(i)) for i in range(n)]
    for level in range(1, n):
        a = clusters.pop(rng.randrange(len(clusters)))
        b = clusters.pop(rng.randrange(len(clusters)))
        (low, x), (_, y) = sorted((a, b), key=lambda pair: pair[0])
        clusters.append((low, Merge(Fraction(level), (x, y))))
    return dendrogram_to_space(Dendrogram(clusters[0][1], labels))


def node_leaf_sets_reference(d: Dendrogram) -> set[tuple[int, ...]]:
    """Leaf sets of all nodes; these coincide with the ball member sets."""
    out: set[tuple[int, ...]] = set()

    def walk(node: Node) -> list[int]:
        leaves = [node.point] if isinstance(node, Leaf) else sorted(chain(*map(walk, node.children)))
        out.add(tuple(leaves))
        return leaves

    walk(d.root)
    return out


def is_binary_reference(d: Dendrogram) -> bool:
    # Direct calls: all(map(...)) would spend two frames per level.
    def walk(node: Node) -> bool:
        if isinstance(node, Leaf):
            return True
        return len(node.children) == 2 and walk(node.children[0]) and walk(node.children[1])

    return walk(d.root)


def dendrogram_to_space_reference(d: Dendrogram) -> FiniteUltrametricSpace:
    """Distance matrix realized by the tree: d(x, y) = LCA level.

    Raises MalformedTreeError on unary internal nodes, non-decreasing
    levels, leaf indices that are not exactly 0..n-1, or repeated labels.
    """
    found = {ZERO}

    def check(node: Node, above: Fraction | None) -> list[int]:
        """Validate the subtree and return its leaves, left to right."""
        if isinstance(node, Leaf):
            return [node.point]
        if len(node.children) < 2:
            raise MalformedTreeError("internal nodes need at least two children")
        if node.level <= 0:
            raise MalformedTreeError(f"levels must be positive, got {node.level}")
        if above is not None and node.level >= above:
            raise MalformedTreeError(
                f"levels must strictly decrease from the root: {node.level} under {above}"
            )
        found.add(node.level)
        leaves: list[int] = []
        for c in node.children:
            leaves.extend(check(c, node.level))
        return leaves

    leaves = check(d.root, None)
    n = len(leaves)
    if sorted(leaves) != list(range(n)):
        raise MalformedTreeError(f"leaf indices must be exactly 0..{n - 1}, got {sorted(leaves)}")
    if len(d.labels) != n:
        raise MalformedTreeError(f"{len(d.labels)} labels for {n} leaves")
    if len(set(d.labels)) != n:
        raise MalformedTreeError("labels must be unique within a space")

    levels = sorted(found)
    rank_of = {v: k for k, v in enumerate(levels)}
    rows = [[0] * n for _ in range(n)]

    def fill(node: Node) -> list[int]:
        if isinstance(node, Leaf):
            return [node.point]
        k = rank_of[node.level]
        child_leaves = list(map(fill, node.children))
        for xs, ys in combinations(child_leaves, 2):
            for x in xs:
                for y in ys:
                    rows[x][y] = rows[y][x] = k
        return [x for part in child_leaves for x in part]

    fill(d.root)
    return FiniteUltrametricSpace(tuple(d.labels), tuple(levels), tuple(map(tuple, rows)))


def ballean_walk_reference(d: Dendrogram) -> tuple[list[tuple[tuple[int, ...], Fraction, list]], list]:
    """The internal nodes of ``d`` in post-order, each as (members, level,
    child member tuples), and the member tuples of all nodes, which are the
    balls, by (size, members): the singletons first, in point order."""
    merges: list[tuple[tuple[int, ...], Fraction, list]] = []

    def walk(node: Node) -> tuple[int, ...]:
        if isinstance(node, Leaf):
            return (node.point,)
        parts = list(map(walk, node.children))
        members = tuple(sorted(chain(*parts)))
        merges.append((members, node.level, parts))
        return members

    walk(d.root)
    return merges, [(p,) for p in range(d.n)] + sorted((m for m, _, _ in merges), key=lambda m: (len(m), m))


def merge_triples(n: int, merges: list) -> Iterator[tuple[tuple[int, ...], int, list[tuple[int, ...]]]]:
    """The n-point merges named by id, in their order, as the triples merge
    lists held before they named children by id: (members, rank, children's
    members).  Each child's members leave the table once its parent takes
    them, so a child named twice or before it is made raises KeyError, and a
    deep tree read lazily holds one path of member tuples."""
    members = {p: (p,) for p in range(n)}
    for i, (k, kids) in enumerate(merges):
        parts = [members.pop(c) for c in kids]
        members[n + i] = tuple(sorted(chain(*parts)))
        yield members[n + i], k, parts


def canonical_code_reference(d: Dendrogram) -> str:
    """Label-free canonical form: recursive (level, sorted child codes).

    Two dendrograms get equal codes exactly when a level-preserving tree
    isomorphism (forgetting leaf labels) maps one onto the other.
    """

    def encode(node: Node) -> str:
        if isinstance(node, Leaf):
            return "*"
        inner = ",".join(sorted(map(encode, node.children)))
        return f"({rational_str(node.level)}:{inner})"

    return encode(d.root)


def format_dendrogram_reference(d: Dendrogram) -> str:
    """Text form in nested brackets, e.g. ``(2 (1 a b) c)``."""

    def fmt(node: Node) -> tuple[int, str]:
        """The subtree's smallest leaf and its text, children in smallest-leaf order."""
        if isinstance(node, Leaf):
            return node.point, d.labels[node.point]
        parts = sorted(map(fmt, node.children))
        return parts[0][0], f"({rational_str(node.level)} {' '.join(text for _, text in parts)})"

    return fmt(d.root)[1]


def tail_contains_walk(tail, x) -> bool:
    if x <= 0 or x > tail.first:
        return False
    q = x / tail.first
    cur = Fraction(1)
    while cur > q:
        cur *= tail.ratio
    return cur == q


def tail_terms_at_least_walk(tail, cut) -> list:
    out = []
    term = tail.first
    while term >= cut:
        out.append(term)
        term *= tail.ratio
    return out


def tail_max_at_most_walk(tail, r):
    """Largest term <= r, or None when r <= 0."""
    if r <= 0:
        return None
    term = tail.first
    while term > r:
        term *= tail.ratio
    return term


def dlps_contains_reference(space, x) -> bool:
    """Membership in a symbolic space by a scan of its points and a walk of each tail."""
    if x == 0:
        return space.has_zero
    return x in list(space.finite_points) or any(tail_contains_walk(t, x) for t in space.tails)


def dlps_max_at_most_reference(space, r):
    """Largest element <= r, or None: the plain maximum over the points, each
    tail's walk and 0, compared as Fractions."""
    candidates = [p for p in space.finite_points if p <= r]
    candidates += [m for m in (tail_max_at_most_walk(t, r) for t in space.tails) if m is not None]
    if space.has_zero and r >= 0:
        candidates.append(ZERO)
    return max(candidates, default=None)
