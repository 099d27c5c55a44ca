"""Merge-tree form of finite ultrametric spaces.

A finite ultrametric space is the same data as a rooted tree whose internal
nodes carry strictly decreasing positive levels: the distance between two
points is the level of their lowest common ancestor, and the node leaf-sets
are exactly the closed balls.  The tree gives a linear-time canonical form,
hence cheap isometry testing.  The random generators draw such a tree and
fill the rank matrix as they go, so they build no tree objects.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations
from operator import itemgetter
from typing import Callable, Sequence, TypeVar

from .core import (
    ZERO,
    BadParamsError,
    Dendrogram,
    FiniteUltrametricSpace,
    Leaf,
    MalformedTreeError,
    Merge,
    Node,
    RationalLike,
    _over_levels_of,
    _rank_levels,
    ball_labels,
    parse_rational,
    rational_str,
)

CanonicalCode = str
Members = tuple[int, ...]
T = TypeVar("T")


def _fold(root: Node, leaf: Callable[[Leaf], T], merge: Callable[[Merge, list[T]], T]) -> T:
    """Fold a tree children first, on lists rather than the call stack: a Leaf
    gives ``leaf(node)``, a Merge ``merge(node, its children's values in order)``.
    Values go by position, as hashing or comparing a node walks its subtree."""
    order, todo = [], [root]
    while todo:  # right-to-left pre-order; reversed, a left-to-right post-order
        node = todo.pop()
        order.append(node)
        if not isinstance(node, Leaf):
            todo.extend(node.children)
    values: list[T] = []
    for node in reversed(order):
        if isinstance(node, Leaf):
            values.append(leaf(node))
        else:  # its children's values, the last ones on the list, give way to its own
            start = len(values) - len(node.children)
            values[start:] = [merge(node, values[start:])]
    return values[0]


def build_dendrogram(space: FiniteUltrametricSpace) -> Dendrogram:
    """Merge tree of a valid space: the tree that :attr:`FiniteUltrametricSpace.split`
    caches.  Raises AssertionError on a point outside its own class."""
    return space.split[0]


def _check_tree(d: Dendrogram) -> None:
    """Check a hand-built tree in one pre-order walk on a stack, each node
    before its subtree.  Raises MalformedTreeError on a node that is neither
    a Leaf nor a Merge, a leaf point whose type is not exactly int (a bool's
    is bool), children that are not a tuple or list of at least two, a level
    that is not a Fraction or an int, a level that is not positive or not
    strictly below its parent's, leaf points that are not exactly 0..n-1, or
    labels that are not a tuple or list of n distinct strs."""
    leaves, todo = [], [(d.root, None)]
    while todo:
        node, above = todo.pop()
        if isinstance(node, Leaf):
            if type(node.point) is not int:
                raise MalformedTreeError(f"leaf points must be ints, got {node.point!r}")
            leaves.append(node.point)
            continue
        if not isinstance(node, Merge):
            raise MalformedTreeError(f"tree nodes must be Leafs or Merges, got {node!r}")
        if not isinstance(node.children, (tuple, list)) or len(node.children) < 2:
            raise MalformedTreeError("internal nodes need at least two children")
        if isinstance(node.level, bool) or not isinstance(node.level, (Fraction, int)):
            raise MalformedTreeError(f"levels must be Fractions or ints, got {node.level!r}")
        if node.level <= 0:
            raise MalformedTreeError(f"levels must be positive, got {node.level}")
        if above is not None and node.level >= above:
            raise MalformedTreeError(
                f"levels must strictly decrease from the root: {node.level} under {above}"
            )
        todo.extend((child, node.level) for child in reversed(node.children))
    n = len(leaves)
    if sorted(leaves) != list(range(n)):
        raise MalformedTreeError(f"leaf indices must be exactly 0..{n - 1}, got {sorted(leaves)}")
    if not isinstance(d.labels, (tuple, list)) or not all(isinstance(label, str) for label in d.labels):
        raise MalformedTreeError("labels must be a tuple or list of strs")
    if len(d.labels) != n:
        raise MalformedTreeError(f"{len(d.labels)} labels for {n} leaves")
    if len(set(d.labels)) != n:
        raise MalformedTreeError("labels must be unique within a space")


def dendrogram_to_space(d: Dendrogram) -> FiniteUltrametricSpace:
    """Distance matrix realized by a hand-built tree: d(x, y) = LCA level,
    an int level read as a Fraction.  Raises MalformedTreeError as
    :func:`_check_tree` does."""
    _check_tree(d)
    merges, _ = _ballean_walk(d)
    levels, rank = _rank_levels({i: level for i, (_, level, _) in enumerate(merges)})
    rows = [[0] * d.n for _ in range(d.n)]
    for i, (_, _, parts) in enumerate(merges):
        k = rank[i]
        for xs, ys in combinations(parts, 2):
            for x in xs:
                for y in ys:
                    rows[x][y] = rows[y][x] = k
    return FiniteUltrametricSpace(tuple(d.labels), levels, tuple(map(tuple, rows)))


def _ballean_walk(d: Dendrogram) -> tuple[list[tuple[Members, Fraction, list[Members]]], list[Members]]:
    """The internal nodes of ``d`` in post-order, each as (members, level as
    a Fraction, child member tuples), and the member tuples of all nodes,
    which are the balls, by (size, members): the singletons first, in point
    order.  No check is made: ``d`` comes from :func:`_check_tree`, from
    :attr:`FiniteUltrametricSpace.split` or from :func:`_ballean_tree`."""
    merges: list[tuple[Members, Fraction, list[Members]]] = []

    def merge(node: Merge, parts: list[Members]) -> Members:
        members, level = tuple(sorted(chain(*parts))), node.level
        merges.append((members, level if type(level) is Fraction else Fraction(level), parts))
        return members

    _fold(d.root, lambda node: (node.point,), merge)
    return merges, [(p,) for p in range(d.n)] + sorted((m for m, _, _ in merges), key=lambda m: (len(m), m))


def ballean_tree(d: Dendrogram) -> Dendrogram:
    """Merge tree of the ballean of the space that ``d`` realizes.

    The balls are the node leaf sets.  Between two balls the Hausdorff
    distance is the level of the smaller ball containing both, so the tree is
    ``d`` with one extra leaf, the node's own ball, under each internal node,
    at the node's level.  Points are numbered in ``ball_table`` order, by
    (size, members), so the singletons keep their indices, and are labelled
    as :func:`ballean.ballean_space` labels them.  Applying this k times
    gives the k-th ballean with no matrix and no depth cap.  Raises
    MalformedTreeError as :func:`_check_tree` does.
    """
    _check_tree(d)
    return _ballean_tree(d)


def _ballean_tree(d: Dendrogram) -> Dendrogram:
    """:func:`ballean_tree` of a merge tree, from ``split`` or from this function."""
    merges, balls = _ballean_walk(d)
    index = {m: i for i, m in enumerate(balls)}
    built: dict[Members, Node] = {(p,): Leaf(p) for p in range(d.n)}
    for members, level, parts in merges:
        built[members] = Merge(level, (*map(built.__getitem__, parts), Leaf(index[members])))
    return Dendrogram(built[balls[-1]], ball_labels(d.labels, balls))


def ballean_ranks(d: Dendrogram) -> tuple[list[Members], tuple[Fraction, ...], list[tuple[int, ...]]]:
    """The balls of the space that ``d`` realizes, by (size, members), and
    the levels and rank rows of the ballean's Hausdorff matrix: what
    ``dendrogram_to_space(ballean_tree(d))`` holds, less its labels.  ``d``
    must be a merge tree as :func:`build_dendrogram` or :func:`ballean_tree`
    returns it; it is not checked.

    In pre-order, the balls inside a node are one run of positions.  A ball
    is at its own level from every ball inside it, and as far from any other
    as its parent is, so its row is its parent's row with its run set to its
    rank, and its own cell is zeroed once its children have copied the row.
    One getter then puts the rows' columns in output order.
    """
    merges, balls = _ballean_walk(d)
    levels, rank = _rank_levels({i: level for i, (_, level, _) in enumerate(merges)})
    span = dict.fromkeys(balls[: d.n], (1, 0))  # ball -> (balls inside it, its rank)
    for i, (members, _, parts) in enumerate(merges):
        span[members] = (1 + sum(span[p][0] for p in parts), rank[i])
    m, root = len(balls), balls[-1]
    at, rows = {root: 0}, {root: [span[root][1]] * m}
    for members, _, parts in reversed(merges):  # each node after its parent
        row, start = rows[members], at[members] + 1
        for part in parts:
            size, k = span[part]
            child = rows[part] = row.copy()
            child[start:start + size] = [k] * size
            at[part], start = start, start + size
        row[at[members]] = 0
    order = [at[b] for b in balls]
    pick = itemgetter(*order, order[0])  # the repeated index makes a 1-ball getter return a tuple
    return balls, levels, [pick(rows.pop(b))[:-1] for b in balls]


def canonical_code(d: Dendrogram) -> CanonicalCode:
    """Label-free canonical form: recursive (level, sorted child codes).

    Two dendrograms get equal codes exactly when a level-preserving tree
    isomorphism (forgetting leaf labels) maps one onto the other.
    """
    return _fold(
        d.root, lambda _: "*", lambda node, parts: f"({rational_str(node.level)}:{','.join(sorted(parts))})"
    )


def are_isometric(s1: FiniteUltrametricSpace, s2: FiniteUltrametricSpace) -> bool:
    """Distance-preserving bijection exists iff the canonical codes match."""
    if s1.n != s2.n:
        return False
    return canonical_code(build_dendrogram(s1)) == canonical_code(build_dendrogram(s2))


def format_dendrogram(d: Dendrogram) -> str:
    """Text form in nested brackets, e.g. ``(2 (1 a b) c)``."""

    def merge(node: Merge, parts: list[tuple[int, str]]) -> tuple[int, str]:
        """The subtree's smallest leaf and its text, children in smallest-leaf order."""
        parts.sort()
        return parts[0][0], f"({rational_str(node.level)} {' '.join(text for _, text in parts)})"

    return _fold(d.root, lambda node: (node.point, d.labels[node.point]), merge)[1]


def _parse_pool(level_pool: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """The pool's distinct levels, sorted."""
    pool = sorted({parse_rational(v) for v in level_pool})
    if not pool:
        raise BadParamsError("level pool must be nonempty")
    if pool[0] <= 0:
        raise BadParamsError("level pool values must be positive")
    return tuple(pool)


def _split(rng: random.Random, items: list[int]) -> list[list[int]]:
    # At least two nonempty parts.
    k = rng.randint(2, len(items))
    buckets: list[list[int]] = [[] for _ in range(k)]
    for item in items:
        buckets[rng.randrange(k)].append(item)
    parts = [b for b in buckets if b]
    if len(parts) == 1:
        parts = [parts[0][:-1], [parts[0][-1]]]
    return parts


def _grow(rng: random.Random, points: list[int], top: int, rows: list[list[int]]) -> None:
    # Pre-order on a stack.  A node at pool index k < top sets its block of
    # ``rows`` to rank k + 1; each part of two or more points then overwrites
    # its own block, unless k is 0 and the part flattens into leaves merged here.
    stack = [(points, top)]
    while stack:
        points, top = stack.pop()
        k = rng.randrange(top)
        for p in points:
            row = rows[p]
            for q in points:
                row[q] = k + 1
        parts = _split(rng, points)
        if k:
            stack.extend((part, k) for part in reversed(parts) if len(part) > 1)


def random_space(
    seed: int, n: int, level_pool: Sequence[RationalLike]
) -> FiniteUltrametricSpace:
    """Seed-deterministic random space, its ranks filled as a random merge
    tree is drawn.

    Levels are drawn from the pool with strict decrease along root-to-leaf
    paths, so the output always satisfies the ultrametric axioms.  A pool
    with a single level forces an equidistant space.
    """
    if n < 1:
        raise BadParamsError("n must be at least 1")
    return _random_space(seed, n, _parse_pool(level_pool))


def _random_space(seed: int, n: int, pool: tuple[Fraction, ...]) -> FiniteUltrametricSpace:
    """:func:`random_space` on a pool as :func:`_parse_pool` returns it, and n >= 1."""
    labels = tuple(f"p{i}" for i in range(n))
    rows = [[0] * n for _ in range(n)]
    if n > 1:
        _grow(random.Random(seed), list(range(n)), len(pool), rows)
        for p in range(n):
            rows[p][p] = 0
    return _over_levels_of((ZERO, *pool), labels, rows)  # rank k stands for (0, *pool)[k]


def random_binary_space(seed: int, n: int) -> FiniteUltrametricSpace:
    """Random space whose merge tree is binary with the levels 1..n-1, its
    ranks filled as the tree is drawn: each merge sets its cross pairs to its
    level, which is also its rank.

    Such a space realizes the maximal ballean: exactly 2n-1 balls.
    """
    if n < 1:
        raise BadParamsError("n must be at least 1")
    labels = tuple(f"p{i}" for i in range(n))
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    # Member lists of the subtrees; n-1 merges leave exactly one.
    clusters = [[i] for i in range(n)]
    for level in range(1, n):
        a = clusters.pop(rng.randrange(len(clusters)))
        b = clusters.pop(rng.randrange(len(clusters)))
        for x in a:
            for y in b:
                rows[x][y] = rows[y][x] = level
        clusters.append(a + b)
    return FiniteUltrametricSpace(labels, tuple(map(Fraction, range(n))), tuple(map(tuple, rows)))
