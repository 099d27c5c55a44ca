"""Merge-tree form of finite ultrametric spaces.

A finite ultrametric space is the same data as a rooted tree whose internal
nodes carry strictly decreasing positive levels: the distance between two
points is the level of their lowest common ancestor, and the node leaf-sets
are exactly the closed balls.  The tree gives a linear-time canonical form,
hence cheap isometry testing.  The node tree (:class:`Leaf`, :class:`Merge`,
:class:`Dendrogram`) is this module's format alone: a space holds the merges
its split records, and every request reads those, so none builds a node.
Merges name nodes by id, point p as p and the i-th merge as n + i: one
linear walk, :func:`_walk`, reads them off a hand-built tree, and one fold,
:func:`_fold_merges`, serves every route.  The random generators fill the
rank matrix as they draw a tree, so they build no tree objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product, repeat
from operator import itemgetter
from typing import Callable, Sequence, TypeVar

from .core import (
    ZERO,
    BadParamsError,
    FiniteUltrametricSpace,
    MalformedTreeError,
    Members,
    Merges,
    RationalLike,
    _over_levels_of,
    _rank_levels,
    ball_labels,
    parse_rational,
    rational_str,
)

CanonicalCode = str
T = TypeVar("T")


@dataclass(frozen=True)
class Leaf:
    point: int


@dataclass(frozen=True)
class Merge:
    level: Fraction
    children: tuple["Node", ...]


Node = Leaf | Merge


@dataclass(frozen=True)
class Dendrogram:
    root: Node
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.labels)


def _fold_merges(n: int, merges: Merges, levels: Sequence[Fraction], leaf: Callable[[int], T],
                 merge: Callable[[Fraction, list[T]], T]) -> T:
    """Fold the n-point tree with these merges children first, building no
    node: a point gives ``leaf(point)``, a merge ``merge(level, its children's
    values)``.  Values sit in a list by id, each dropped once its parent has it."""
    values = list(map(leaf, range(n)))
    for k, kids in merges:
        parts = list(map(values.__getitem__, kids))
        for c in kids:
            values[c] = None
        values.append(merge(levels[k], parts))
    return values[-1]


def _tree(labels: tuple[str, ...], merges: Merges, levels: Sequence[Fraction]) -> Dendrogram:
    """The node tree with these leaf labels and merges."""
    root = _fold_merges(len(labels), merges, levels, Leaf, lambda level, kids: Merge(level, tuple(kids)))
    return Dendrogram(root, labels)


_DONE = object()  # marks a merge on the walk's stack whose subtree is done


def _walk(d: Dendrogram) -> tuple[tuple[Fraction, ...], Merges]:
    """Check a hand-built tree and read it in one walk on a stack: the levels
    of ``d`` and 0, sorted, and its merges, children in tree order, as a
    space's split records them.  Nodes go by position, as hashing one walks
    its subtree.  Each is checked on entry, in left-to-right pre-order: raises
    MalformedTreeError on a node that is neither a Leaf nor a Merge, a leaf
    point whose type is not exactly int (a bool's is bool), children that are
    not a tuple or list of at least two, a level that is not a Fraction or an
    int, or not positive, or not strictly below its parent's; then on leaf
    points that are not exactly 0..n-1, or labels that are not a tuple or
    list of n distinct strs."""
    # Merge ids count from the labels, which the checks below hold to the leaves.
    n = len(d.labels) if isinstance(d.labels, (tuple, list)) else 0
    found, ids, leaves, todo = [], [], [], [(d.root, None)]  # ids: done subtrees not yet merged
    while todo:
        node, above = todo.pop()
        if above is _DONE:
            count = len(node.children)
            found.append((node.level if type(node.level) is Fraction else Fraction(node.level), ids[-count:]))
            ids[-count:] = [n + len(found) - 1]
        elif isinstance(node, Leaf):
            if type(node.point) is not int:
                raise MalformedTreeError(f"leaf points must be ints, got {node.point!r}")
            leaves.append(node.point)
            ids.append(node.point)
        elif not isinstance(node, Merge):
            raise MalformedTreeError(f"tree nodes must be Leafs or Merges, got {node!r}")
        elif not isinstance(node.children, (tuple, list)) or len(node.children) < 2:
            raise MalformedTreeError("internal nodes need at least two children")
        elif isinstance(node.level, bool) or not isinstance(node.level, (Fraction, int)):
            raise MalformedTreeError(f"levels must be Fractions or ints, got {node.level!r}")
        elif node.level <= 0:
            raise MalformedTreeError(f"levels must be positive, got {node.level}")
        elif above is not None and node.level >= above:
            raise MalformedTreeError(f"levels must strictly decrease from the root: {node.level} under {above}")
        else:
            todo.append((node, _DONE))
            todo.extend(zip(reversed(node.children), repeat(node.level)))
    if sorted(leaves) != list(range(len(leaves))):
        raise MalformedTreeError(f"leaf indices must be exactly 0..{len(leaves) - 1}, got {sorted(leaves)}")
    if not isinstance(d.labels, (tuple, list)) or not all(isinstance(label, str) for label in d.labels):
        raise MalformedTreeError("labels must be a tuple or list of strs")
    if n != len(leaves):
        raise MalformedTreeError(f"{n} labels for {len(leaves)} leaves")
    if len(set(d.labels)) != n:
        raise MalformedTreeError("labels must be unique within a space")
    levels, rank = _rank_levels(dict(enumerate(level for level, _ in found)))
    return levels, [(rank[i], kids) for i, (_, kids) in enumerate(found)]


def build_dendrogram(space: FiniteUltrametricSpace) -> Dendrogram:
    """Merge tree of a valid space, built from :attr:`FiniteUltrametricSpace.split`
    on first request and cached on the space, as ``ballean_space`` caches the
    ballean.  Raises AssertionError on a point outside its own class."""
    cache = space.__dict__
    if "tree" not in cache:
        cache["tree"] = _tree(space.labels, space.split[0], space.levels)
    return cache["tree"]


def _balls(n: int, merges: Merges) -> list[tuple[Members, int]]:
    """The member tuple and id of each node, which are the balls, by (size,
    smallest member): the singletons first, in point order.  For the distinct
    balls of a laminar family that is the order by (size, members)."""
    members = [(p,) for p in range(n)]
    for _, kids in merges:
        members.append(tuple(sorted(chain.from_iterable(map(members.__getitem__, kids)))))
    return sorted(zip(members, range(len(members))), key=lambda ball: (len(ball[0]), ball[0][0]))


def dendrogram_to_space(d: Dendrogram) -> FiniteUltrametricSpace:
    """Distance matrix realized by a hand-built tree: d(x, y) = LCA level,
    an int level read as a Fraction.  Raises MalformedTreeError as
    :func:`_walk` does."""
    levels, merges = _walk(d)
    rows = [[0] * d.n for _ in range(d.n)]

    def fill(k: int, parts: list[list[int]]) -> list[int]:
        for xs, ys in combinations(parts, 2):
            for x, y in product(xs, ys):
                rows[x][y] = rows[y][x] = k
        return list(chain(*parts))

    _fold_merges(d.n, merges, range(len(levels)), lambda point: [point], fill)  # ranks for levels
    return FiniteUltrametricSpace(tuple(d.labels), levels, tuple(map(tuple, rows)))


def ballean_tree(d: Dendrogram) -> Dendrogram:
    """Merge tree of the ballean of the space that ``d`` realizes.

    The balls are the node leaf sets.  Between two balls the Hausdorff
    distance is the level of the smaller ball containing both, so the tree is
    ``d`` with one extra leaf, the node's own ball, under each internal node,
    at the node's level.  Points are numbered in ``ball_table`` order, by
    (size, members), so the singletons keep their indices, and are labelled
    as :func:`ballean.ballean_space` labels them.  Applying this k times
    gives the k-th ballean with no matrix and no depth cap.  Raises
    MalformedTreeError as :func:`_walk` does.
    """
    levels, merges = _walk(d)
    return _tree(*_ballean_merges(d.labels, merges), levels)


def _ballean_merges(labels: Sequence[str], merges: Merges) -> tuple[tuple[str, ...], Merges]:
    """The labels and merges of :func:`ballean_tree` of the tree with these:
    each merge gains its own ball as a last child, ids renumbered to balls."""
    balls = _balls(len(labels), merges)
    at = {j: i for i, (_, j) in enumerate(balls)}  # id -> the ball's point in the ballean
    n, shift = len(labels), len(balls) - len(labels)  # points keep their ids, merges move up
    out = [(k, [c if c < n else c + shift for c in kids] + [at[j]]) for j, (k, kids) in enumerate(merges, n)]
    return ball_labels(labels, (m for m, _ in balls)), out


def _ballean_rows(n: int, merges: Merges, cells: Sequence[T]) -> tuple[list[Members], list[tuple[T, ...]]]:
    """The balls of the n-point tree with these merges, by (size, members),
    and the rows of its ballean with each rank k written as ``cells[k]``:
    ``range(len(levels))`` gives the rank rows.

    In pre-order, the balls inside a node are one run of positions.  A ball
    is at its own level from every ball inside it, and as far from any other
    as its parent is, so its row is its parent's row with its run set to its
    cell, and its own cell is zeroed once its children have copied the row.
    One getter then puts the rows' columns in output order.
    """
    balls, m = _balls(n, merges), n + len(merges)
    size, cell = [1] * n, [cells[0]] * n  # per id: the balls inside it, and its cell
    for k, kids in merges:
        size.append(1 + sum(map(size.__getitem__, kids)))
        cell.append(cells[k])
    at, rows = [0] * m, {m - 1: [cell[-1]] * m}  # per id: its pre-order position, and its row
    for j in range(m - 1, n - 1, -1):  # each node after its parent
        row, start = rows[j], at[j] + 1
        for c in merges[j - n][1]:
            child = rows[c] = row.copy()
            child[start:start + size[c]] = [cell[c]] * size[c]
            at[c], start = start, start + size[c]
        row[at[j]] = cells[0]
    order = [at[j] for _, j in balls]
    pick = itemgetter(*order, order[0])  # the repeated index makes a 1-ball getter return a tuple
    return [members for members, _ in balls], [pick(rows.pop(j))[:-1] for _, j in balls]


def _code_of(n: int, merges: Merges, levels: Sequence[Fraction]) -> CanonicalCode:
    """The canonical code of the n-point tree with these merges."""
    return _fold_merges(n, merges, levels, lambda _: "*",
                        lambda level, parts: f"({rational_str(level)}:{','.join(sorted(parts))})")


def canonical_code(d: Dendrogram) -> CanonicalCode:
    """Label-free canonical form: recursive (level, sorted child codes).

    Two dendrograms get equal codes exactly when a level-preserving tree
    isomorphism (forgetting leaf labels) maps one onto the other.  Raises
    MalformedTreeError as :func:`_walk` does.
    """
    levels, merges = _walk(d)
    return _code_of(d.n, merges, levels)


def are_isometric(s1: FiniteUltrametricSpace, s2: FiniteUltrametricSpace) -> bool:
    """Distance-preserving bijection exists iff the canonical codes match.  An
    isometry keeps the set of distances, ``levels``, so that is compared first."""
    if s1.n != s2.n or s1.levels != s2.levels:
        return False
    return _code_of(s1.n, s1.split[0], s1.levels) == _code_of(s2.n, s2.split[0], s2.levels)


def _bracket(level: Fraction, parts: list[tuple[int, str]]) -> tuple[int, str]:
    """A subtree's smallest leaf and its text, children in smallest-leaf order."""
    parts.sort()
    return parts[0][0], f"({rational_str(level)} {' '.join(text for _, text in parts)})"


def _text_of(labels: Sequence[str], merges: Merges, levels: Sequence[Fraction]) -> str:
    """The bracket text of the tree with these leaf labels and merges."""
    return _fold_merges(len(labels), merges, levels, lambda point: (point, labels[point]), _bracket)[1]


def format_dendrogram(d: Dendrogram) -> str:
    """Text form in nested brackets, e.g. ``(2 (1 a b) c)``.  Raises
    MalformedTreeError as :func:`_walk` does."""
    levels, merges = _walk(d)
    return _text_of(d.labels, merges, levels)


def _space_text(space: FiniteUltrametricSpace) -> str:
    """:func:`format_dendrogram` of the space's merge tree, read off its merges."""
    return _text_of(space.labels, space.split[0], space.levels)


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
