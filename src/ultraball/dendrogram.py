"""Merge-tree form of finite ultrametric spaces.

A finite ultrametric space is the same data as a rooted tree whose internal
nodes carry strictly decreasing positive levels: the distance between two
points is the level of their lowest common ancestor, and the node leaf-sets
are exactly the closed balls.  The tree gives a linear-time canonical form,
hence cheap isometry testing, and a convenient random-instance generator.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence, Union

from .core import (
    ZERO,
    BadParamsError,
    FiniteUltrametricSpace,
    MalformedTreeError,
    RationalLike,
    parse_rational,
    rational_str,
)


@dataclass(frozen=True)
class Leaf:
    point: int


@dataclass(frozen=True)
class Merge:
    level: Fraction
    children: tuple["Node", ...]


Node = Union[Leaf, Merge]

CanonicalCode = str


@dataclass(frozen=True)
class Dendrogram:
    root: Node
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.labels)


def _min_leaf(node: Node) -> int:
    if isinstance(node, Leaf):
        return node.point
    return min(_min_leaf(c) for c in node.children)


def node_leaf_sets(d: Dendrogram) -> set[tuple[int, ...]]:
    """Leaf sets of all nodes; these coincide with the ball member sets."""
    out: set[tuple[int, ...]] = set()

    def walk(node: Node) -> list[int]:
        leaves = [node.point] if isinstance(node, Leaf) else [x for c in node.children for x in walk(c)]
        out.add(tuple(sorted(leaves)))
        return leaves

    walk(d.root)
    return out


def is_binary(d: Dendrogram) -> bool:
    def walk(node: Node) -> bool:
        if isinstance(node, Leaf):
            return True
        return len(node.children) == 2 and all(walk(c) for c in node.children)

    return walk(d.root)


def build_dendrogram(space: FiniteUltrametricSpace) -> Dendrogram:
    """Single-linkage merge tree of a valid space.

    Point pairs are bucketed by distance rank in one pass, then clusters
    are merged bottom-up over the positive distances with a union-find; for
    an ultrametric matrix the lowest common ancestor level reproduces every
    distance exactly.
    """
    n = space.n
    if n == 1:
        return Dendrogram(Leaf(0), space.labels)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    levels, ranks, zero = space.levels, space.ranks, space.zero
    edges_at: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i in range(n):
        for j in range(i + 1, n):
            edges_at[ranks[i][j]].append((i, j))
    nodes: dict[int, Node] = {i: Leaf(i) for i in range(n)}
    for k in sorted(k for k in edges_at if k > zero):
        edges = edges_at[k]
        old_roots = {find(i) for e in edges for i in e}
        for i, j in edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        buckets: dict[int, list[int]] = defaultdict(list)
        for r in old_roots:
            buckets[find(r)].append(r)
        for new_root, olds in buckets.items():
            if len(olds) < 2:
                continue
            children = sorted((nodes.pop(r) for r in olds), key=_min_leaf)
            nodes[new_root] = Merge(levels[k], tuple(children))
    root = find(0)
    if len(nodes) != 1 or root not in nodes:
        raise AssertionError("distance matrix did not merge into one cluster")
    return Dendrogram(nodes[root], space.labels)


def dendrogram_to_space(d: Dendrogram) -> FiniteUltrametricSpace:
    """Distance matrix realized by the tree: d(x, y) = LCA level.

    Raises MalformedTreeError on unary internal nodes, non-decreasing
    levels, leaf indices that are not exactly 0..n-1, or repeated labels.
    """
    found = {ZERO}

    def check(node: Node, parent_level: Fraction | None) -> list[int]:
        """Validate the subtree and return its leaves, left to right."""
        if isinstance(node, Leaf):
            return [node.point]
        if len(node.children) < 2:
            raise MalformedTreeError("internal nodes need at least two children")
        if node.level <= 0:
            raise MalformedTreeError(f"levels must be positive, got {node.level}")
        if parent_level is not None and node.level >= parent_level:
            raise MalformedTreeError(
                f"levels must strictly decrease from the root: {node.level} under {parent_level}"
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
        child_leaves = [fill(c) for c in node.children]
        for xs, ys in combinations(child_leaves, 2):
            for x in xs:
                for y in ys:
                    rows[x][y] = rows[y][x] = k
        return [x for part in child_leaves for x in part]

    fill(d.root)
    return FiniteUltrametricSpace(tuple(d.labels), tuple(levels), tuple(map(tuple, rows)))


def canonical_code(d: Dendrogram) -> CanonicalCode:
    """Label-free canonical form: recursive (level, sorted child codes).

    Two dendrograms get equal codes exactly when a level-preserving tree
    isomorphism (forgetting leaf labels) maps one onto the other.
    """

    def encode(node: Node) -> str:
        if isinstance(node, Leaf):
            return "*"
        inner = ",".join(sorted(encode(c) for c in node.children))
        return f"({rational_str(node.level)}:{inner})"

    return encode(d.root)


def are_isometric(s1: FiniteUltrametricSpace, s2: FiniteUltrametricSpace) -> bool:
    """Distance-preserving bijection exists iff the canonical codes match."""
    if s1.n != s2.n:
        return False
    return canonical_code(build_dendrogram(s1)) == canonical_code(build_dendrogram(s2))


def format_dendrogram(d: Dendrogram) -> str:
    """Nested-parentheses text form, e.g. ``(2 (1 a b) c)``."""

    def fmt(node: Node) -> str:
        if isinstance(node, Leaf):
            return d.labels[node.point]
        parts = [fmt(c) for c in sorted(node.children, key=_min_leaf)]
        return f"({rational_str(node.level)} {' '.join(parts)})"

    return fmt(d.root)


def _parse_pool(level_pool: Sequence[RationalLike]) -> list[Fraction]:
    pool = sorted({parse_rational(v) for v in level_pool})
    if not pool:
        raise BadParamsError("level pool must be nonempty")
    if pool[0] <= 0:
        raise BadParamsError("level pool values must be positive")
    return pool


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


def _grow(rng: random.Random, points: list[int], pool: list[Fraction]) -> Node:
    # The pool is sorted and distinct, so the levels below pool[i] are pool[:i].
    i = rng.randrange(len(pool))
    level, sub = pool[i], pool[:i]
    children: list[Node] = []
    for part in _split(rng, points):
        if len(part) == 1:
            children.append(Leaf(part[0]))
        elif sub:
            children.append(_grow(rng, part, sub))
        else:
            # No strictly smaller level available: the part flattens into
            # leaves merged here, keeping levels strictly decreasing.
            children.extend(Leaf(p) for p in part)
    return Merge(level, tuple(sorted(children, key=_min_leaf)))


def random_space(
    seed: int, n: int, level_pool: Sequence[RationalLike]
) -> FiniteUltrametricSpace:
    """Seed-deterministic random space built through a random merge tree.

    Levels are drawn from the pool with strict decrease along root-to-leaf
    paths, so the output always satisfies the ultrametric axioms.  A pool
    with a single level forces an equidistant space.
    """
    if n < 1:
        raise BadParamsError("n must be at least 1")
    pool = _parse_pool(level_pool)
    labels = tuple(f"p{i}" for i in range(n))
    root = _grow(random.Random(seed), list(range(n)), pool) if n > 1 else Leaf(0)
    return dendrogram_to_space(Dendrogram(root, labels))


def random_binary_space(seed: int, n: int) -> FiniteUltrametricSpace:
    """Random space whose merge tree is binary with the levels 1..n-1.

    Such a space realizes the maximal ballean: exactly 2n-1 balls.
    """
    if n < 1:
        raise BadParamsError("n must be at least 1")
    labels = tuple(f"p{i}" for i in range(n))
    rng = random.Random(seed)
    clusters: list[Node] = [Leaf(i) for i in range(n)]
    # n-1 merges leave exactly one cluster.
    for level in range(1, n):
        i = rng.randrange(len(clusters))
        a = clusters.pop(i)
        j = rng.randrange(len(clusters))
        b = clusters.pop(j)
        pair = tuple(sorted((a, b), key=_min_leaf))
        clusters.append(Merge(Fraction(level), pair))
    return dendrogram_to_space(Dendrogram(clusters[0], labels))
