"""Finite ultrametric spaces, closed balls, and exact rational distances.

Every distance in this package is a ``fractions.Fraction``.  Nothing here
touches floating point: the structure theorems being machine-checked are
exact equalities, and a single rounded bit would make them unverifiable.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import eq, index, itemgetter
from typing import Iterable, NamedTuple, Sequence, TypeVar

ZERO = Fraction(0)

RationalLike = Fraction | int | str
K = TypeVar("K")


class UltraballError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptySubsetError(UltraballError):
    pass


class NegativeRadiusError(UltraballError):
    pass


class ForeignBallError(UltraballError):
    """A ball is not a canonical closed ball of the given space."""


class EqualBallsError(UltraballError):
    pass


class FamilyTooSmallError(UltraballError):
    pass


class MalformedTreeError(UltraballError):
    pass


class BadParamsError(UltraballError):
    pass


class ConfigError(UltraballError):
    pass


class UltrametricViolation(UltraballError):
    """A distance matrix broke one of the ultrametric axioms.

    ``axiom`` is one of ``AsymmetricEntry``, ``NonzeroDiagonal``,
    ``ZeroOffDiagonal``, ``NegativeEntry``, ``StrongTriangleViolation``.
    ``witness`` holds point indices; for the strong triangle case it is the
    lexicographically first ordered triple ``(i, j, k)`` with
    ``d(i,j) > max(d(i,k), d(k,j))``.
    """

    def __init__(self, axiom: str, witness: tuple[int, ...], labels: Sequence[str]):
        self.axiom = axiom
        self.witness = tuple(witness)
        self.witness_labels = tuple(labels[i] for i in self.witness)
        super().__init__(f"{axiom} at {self.witness_labels}")

    def to_json_dict(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness_labels)}


_int_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit
_TOO_LARGE = "rational too large: over {} digits in numerator or denominator"
# Fraction's decimal form.  Fraction builds 10**(digits after the point) and
# 10**abs(exponent) before anything can refuse them: seconds at 10**6 digits.
_DIGITS = r"\d+(?:_\d+)*"
_DECIMAL = re.compile(rf"[-+]?(?=\d|\.\d)({_DIGITS})?(?:\.({_DIGITS})?)?(?:e([-+]?{_DIGITS}))?", re.I)


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string.

    Strings may be fractions ("3/2") or decimals ("1.5"); both parse
    exactly.  Floats are rejected outright: a binary float would silently
    poison every exact comparison downstream.  So is a value that no message
    could print ("1e-60000": more digits than ``sys.get_int_max_str_digits()``).
    """
    if isinstance(value, bool):
        raise BadParamsError(f"cannot use boolean {value!r} as a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        out = Fraction(value)
    elif isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        try:
            if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
                try:  # int() reads no more digits than str() prints
                    return Fraction(int(num), int(den)) if slash else Fraction(int(num))
                except ValueError:  # over the digit limit: the general route says so
                    pass
            out = Fraction(_fraction_text(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParamsError(f"cannot parse {value!r} as a rational: {exc}") from exc
    else:
        raise BadParamsError(f"cannot parse {type(value).__name__} value {value!r} as a rational")
    if not _prints(out):
        raise BadParamsError(_TOO_LARGE.format(_int_limit()))
    return out


def _fraction_text(text: str) -> str:
    """``text``, or "0" for a zero decimal with an exponent over 2 * limit
    (``_int_limit()``); BadParamsError where Fraction would first build a
    power of ten over limit digits: int() reads no more after the point, and
    a mantissa of at most 2 * limit digits cannot bring 10**e back under."""
    limit = _int_limit()
    m = limit and (len(text) > limit or "e" in text or "E" in text) and _DECIMAL.fullmatch(text)
    digits = (m[2] or "").replace("_", "") if m else ""
    try:
        if len(digits) <= limit and (not m or abs(int(m[3] or 0)) <= 2 * limit):
            return text
        if len(digits) <= limit and not (int(m[1] or 0) or int(digits or 0)):
            return "0"
    except ValueError:  # too many digits for int(), which Fraction refuses as fast
        return text
    raise BadParamsError(_TOO_LARGE.format(limit))


def _prints(x: Fraction) -> bool:
    """Whether str() can print x under ``sys.get_int_max_str_digits()``."""
    limit = _int_limit()
    parts = (abs(x.numerator), x.denominator)
    # n has at most floor(bits * log10(2)) + 1 digits, and 0.30103 > log10(2).
    return not limit or all(n.bit_length() * 30103 // 100000 < limit or n < 10**limit for n in parts)


def rational_str(value: Fraction) -> str:
    """Canonical text form: "2" for integers, "3/2" otherwise."""
    return str(value)


@dataclass(frozen=True)
class FiniteUltrametricSpace:
    """A finite set of labeled points with an exact distance matrix, stored
    as ranks.

    Point ``i`` carries ``labels[i]``; labels are unique within a space.
    ``levels`` holds the distinct entries together with 0, sorted, and
    ``d(i, j) == levels[ranks[i][j]]``, so order questions compare ints.
    No level but 0 goes unused, so equal spaces have equal triples.
    :attr:`dist` is the exact matrix, :attr:`ball_table` the closed balls
    and :attr:`split` the merge tree's merges, each built on first use (by
    validation, for the merges), as are the ballean that ``ballean_space``
    and the node tree that ``build_dendrogram`` keep here; no cache can go
    stale because the dataclass is frozen, and a copy builds its own.

    Every space is ultrametric: :func:`validate_ultrametric` and
    :func:`space_from_json_dict` refuse a matrix that is not, and the other
    constructors build valid spaces by construction.
    """

    labels: tuple[str, ...]
    levels: tuple[Fraction, ...]
    ranks: tuple[tuple[int, ...], ...]

    @cached_property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> Fraction:
        return self.levels[self.ranks[i][j]]

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        at = self.levels.__getitem__
        return tuple(tuple(map(at, row)) for row in self.ranks)

    @cached_property
    def zero(self) -> int:
        """The rank of 0, which is above the ranks of negative entries."""
        return self.levels.index(ZERO)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise BadParamsError(f"no point labeled {label!r}") from None

    def restrict(self, indices: Iterable[int]) -> "FiniteUltrametricSpace":
        """Subspace on the given points, reindexed densely, labels kept."""
        idx = tuple(indices)
        rows = tuple(tuple(self.ranks[p][q] for q in idx) for p in idx)
        return _over_levels_of(self.levels, tuple(self.labels[p] for p in idx), rows)

    @cached_property
    def ball_table(self) -> "BallTable":
        """Every closed ball, built once from its smallest member c: every
        point of a ball is a center of it, so c emits the ranks k in its row
        below its rank to each earlier point, and B(c, k) has diameter rank k."""
        levels, ranks, points = self.levels, self.ranks, range(self.n)
        rank: dict[tuple[int, ...], int] = {}
        for c, row in enumerate(ranks):
            below = min(row[:c], default=len(levels))
            for k in set(row):
                if k < below:
                    rank[tuple(compress(points, map(k.__ge__, row)))] = k
        balls, chains, own = [], [([], []) for _ in points], {}
        for m in sorted(sorted(rank), key=len):  # by (size, members): chains run innermost first
            k = rank[m]  # once a ball: hashing m once a member is cubic on deep trees
            balls.append(Ball(m, levels[k]))
            own[id(balls[-1])] = k
            for p in m:
                chains[p][0].append(k)
                chains[p][1].append(balls[-1])
        return BallTable(tuple(balls), rank, chains, own)

    @cached_property
    def split(self) -> tuple[Merges, bool]:
        """The merge tree's merges, split set by set on a stack, and whether they reproduce the matrix.

        A set whose diameter has rank ``top`` splits into the classes of
        ``ranks[c][x] < top``, in order of their smallest point c, and each
        class splits the same way before the next is taken; in an ultrametric
        space the classes are the maximal proper sub-balls.  A set is recorded
        as (top, its classes' ids) once its classes are, the i-th as n + i and
        a point as itself.  The flag says whether every pair in two classes of
        a set sits at exactly its ``top``; on a symmetric matrix with positive
        entries off a zero diagonal, that holds iff it is ultrametric
        (Carlsson & Memoli, JMLR 2010).  A point outside its own class raises AssertionError, so every
        other class is a proper subset and the split ends on any square matrix.
        """
        ranks, n = self.ranks, self.n
        clean, merges = True, []
        # Per set being split: [top rank, points in no class yet, its classes' ids].
        stack = [[max(ranks[0]), list(range(n)), []]] if n > 1 else []
        while stack:
            top, points, parts = frame = stack[-1]
            if not points:
                stack.pop()
                merges.append((top, parts))
                if stack:  # the set is its parent's latest class
                    stack[-1][2].append(n + len(merges) - 1)
                continue
            c, row = points[0], ranks[points[0]]
            if row[c] >= top:
                raise AssertionError(f"point {c} is not closer than {self.levels[top]} to itself")
            inner = [x for x in points if row[x] < top]
            # A class of every point left is the last one: no second pass.
            frame[1] = points = [x for x in points if row[x] >= top] if len(inner) < len(points) else []
            if clean and points:
                # The repeated last index makes the getter return a tuple.
                cross, want = itemgetter(*points, points[0]), (top,) * (len(points) + 1)
                clean = all(cross(ranks[a]) == want for a in inner)
            if len(inner) > 1:
                stack.append([max(map(row.__getitem__, inner)), inner, []])
            else:
                parts.append(c)
        return merges, clean

    def __getstate__(self) -> dict:
        """The three fields alone, so that a copy or an unpickled space builds
        its own caches: a ball table keys its balls by id, and a copy of the
        table would name the original's balls."""
        return {"labels": self.labels, "levels": self.levels, "ranks": self.ranks}


@dataclass(frozen=True)
class Ball:
    """A canonical closed ball: its member set and its diameter.

    The stored diameter is the minimal radius presenting the ball, which is
    exactly the diameter of the member set; the radius a caller asked for is
    presentation noise and is not kept.
    """

    members: tuple[int, ...]
    diameter: Fraction


class BallTable(NamedTuple):
    """The closed balls of one space.

    ``balls`` lists every distinct ball, sorted by (size, members), ``rank``
    maps the member tuple of each to the rank of its diameter, ``chains[p]``
    the ranks and the balls of those holding point p, innermost first, and
    ``own`` the id of each ball to its rank: the table keeps its balls alive,
    so no other object has one of those ids.
    """

    balls: tuple[Ball, ...]
    rank: dict[tuple[int, ...], int]
    chains: list[tuple[list[int], list[Ball]]]
    own: dict[int, int]


Members = tuple[int, ...]  # a ball's sorted points, as the ball table keys them
# Merge-tree nodes, children first: (rank of the level, children's ids), id p < n point p, n + i merge i.
Merges = list[tuple[int, list[int]]]


def _as_index_tuple(space: FiniteUltrametricSpace, subset: Iterable[int]) -> tuple[int, ...]:
    try:
        idx = sorted(set(subset))
        if not idx:
            raise EmptySubsetError("subset must be nonempty")
        if idx[0] < 0 or idx[-1] >= space.n:
            raise BadParamsError(f"point index out of range for a {space.n}-point space: {idx}")
        return tuple(map(index, idx))
    except TypeError:  # unhashable, unordered or no integer, as 1.0, "1" or None
        raise BadParamsError(f"point indices must be integers: {subset!r}") from None


def _make_labels(n: int, labels: Sequence[str] | None) -> tuple[str, ...]:
    if labels is None:
        return tuple(f"p{i}" for i in range(n))
    if not isinstance(labels, (list, tuple)):
        raise BadParamsError(f"labels must be a list, got {type(labels).__name__}")
    for label in labels:
        if not isinstance(label, str):
            raise BadParamsError(f"labels must be strings, got {label!r}")
    out = tuple(labels)
    if len(out) != n:
        raise BadParamsError(f"{len(out)} labels for a {n}x{n} matrix")
    if len(set(out)) != n:
        raise BadParamsError("labels must be unique within a space")
    return out


def _rank_levels(values: dict[K, Fraction]) -> tuple[tuple[Fraction, ...], dict[K, int]]:
    """The distinct values and 0, sorted, and the rank of each key's value.
    A level is known by its ``as_integer_ratio()`` pair, which hashes in C (a
    Fraction hashes in Python), and sorted by (integer part, value), so two
    Fractions are compared only when their integer parts tie."""
    pair = {key: v.as_integer_ratio() for key, v in values.items()}
    level = dict(zip(pair.values(), values.values()))
    level[0, 1] = ZERO
    order = sorted(level, key=lambda p: (p[0] // p[1], level[p]))
    rank = {p: k for k, p in enumerate(order)}
    return tuple(map(level.__getitem__, order)), {key: rank[p] for key, p in pair.items()}


def _parse_space(
    matrix: Sequence[Sequence[RationalLike]], labels: Sequence[str] | None
) -> FiniteUltrametricSpace:
    """Check the shape of a matrix and its labels, and parse and rank every
    entry in one pass.  Any square matrix of rationals is accepted: a
    negative entry ranks below 0, an asymmetric one stays asymmetric."""
    if not isinstance(matrix, (list, tuple)):
        raise BadParamsError(f"distance matrix must be a list of rows, got {type(matrix).__name__}")
    n = len(matrix)
    if n == 0:
        raise BadParamsError("a space must contain at least one point")
    for row in matrix:
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise BadParamsError("distance matrix must be square")
    values = None
    if type(matrix[0][0]) is str:  # JSON: parse each distinct entry once, then map
        try:
            distinct = set().union(*matrix)
            if all(type(v) is str for v in distinct):  # so True, 1 and "1" never meet
                values, slots = {v: parse_rational(v) for v in distinct}, matrix
        except (TypeError, BadParamsError):  # an unhashable or unparsable entry
            pass
    if values is None:
        # Parsed when first seen, so the first bad entry in row-major order is
        # named.  Keys carry the type: True, 1 and 1.0 are equal keys.
        slot_of: dict[tuple[type, RationalLike], int] = {}
        values, slots = {}, []
        for row in matrix:
            out = []
            for v in row:
                try:
                    out.append(slot_of[type(v), v])
                    continue
                except (KeyError, TypeError):  # a new entry, or an unhashable one
                    pass
                values[len(values)] = parse_rational(v)  # refuses every unhashable type
                out.append(slot_of.setdefault((type(v), v), len(values) - 1))
            slots.append(out)
    levels, rank = _rank_levels(values)
    ranks = tuple(itemgetter(*row, row[0])(rank)[:-1] for row in slots)  # the repeated index keeps n == 1 a tuple
    return FiniteUltrametricSpace(_make_labels(n, labels), levels, ranks)


def _over_levels_of(
    levels: tuple[Fraction, ...], labels: tuple[str, ...], ranks: Sequence[Sequence[int]]
) -> FiniteUltrametricSpace:
    """The space with these ranks into ``levels``, less the levels the ranks
    leave unused (0 stays), so that the triple stays canonical."""
    kept = sorted(set().union(*ranks, (levels.index(ZERO),)))
    if len(kept) == len(levels):
        return FiniteUltrametricSpace(labels, levels, tuple(map(tuple, ranks)))
    new = {k: i for i, k in enumerate(kept)}
    rows = tuple(tuple(map(new.__getitem__, row)) for row in ranks)
    return FiniteUltrametricSpace(labels, tuple(levels[k] for k in kept), rows)


def space_violation(space: FiniteUltrametricSpace) -> UltrametricViolation | None:
    """Return the first broken axiom of the space's matrix, or None if it is
    valid.

    Axioms are checked in a fixed order (symmetry, zero diagonal, negative
    entries, zero off-diagonal entries, strong triangle inequality) and each
    scan reports its lexicographically first witness, so the result is
    deterministic.  All but the last scan are O(n^2), and the last accepts in
    O(n^2) by the flag of :attr:`FiniteUltrametricSpace.split`, which caches
    the merges; naming the witness of a matrix it refuses is O(n^2) too.
    "Nothing below 0" is read off the canonical triple (every level but 0 is
    an entry; pinned by ``test_every_constructor_yields_the_canonical_triple``
    in ``tests/test_core.py``): no entry is negative iff 0 has rank 0.
    """
    n, labs, rows, zero = space.n, space.labels, space.ranks, space.zero
    # Whole-matrix tests first: symmetric, nothing below 0, and exactly the n
    # diagonal entries at 0.  Only a failure scans cells to name the witness.
    if not (
        all(map(eq, rows, zip(*rows)))
        and zero == 0
        and all(row[i] == zero for i, row in enumerate(rows))
        and sum(row.count(zero) for row in rows) == n
    ):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        scans = (
            ("AsymmetricEntry", pairs, lambda i, j: rows[i][j] != rows[j][i]),
            ("NonzeroDiagonal", [(i,) for i in range(n)], lambda i: rows[i][i] != zero),
            ("NegativeEntry", pairs, lambda i, j: rows[i][j] < zero),
            ("ZeroOffDiagonal", pairs, lambda i, j: rows[i][j] == zero),
        )
        for axiom, cells, broken in scans:
            witness = next((cell for cell in cells if broken(*cell)), None)
            if witness is not None:
                return UltrametricViolation(axiom, witness, labs)
    if space.split[1]:
        return None
    return UltrametricViolation("StrongTriangleViolation", _first_triangle_witness(rows, len(space.levels)), labs)


def _first_triangle_witness(rows: tuple[tuple[int, ...], ...], top: int) -> tuple[int, int, int]:
    """The first (i, j, k) in row-major order with rank(i, j) above rank(i, k)
    and rank(k, j), on a symmetric matrix of ranks below ``top`` that has one,
    its diagonal below every other entry.  The ranks are swept upwards with a
    bitmask per point of the points closer to it: a pair breaks the inequality
    iff the masks of its ends meet before its rank's pairs are added, and k is
    their lowest common bit.  Pairs i < j are listed in row-major order, and no
    k in {i, j} can break it, so this is the cubic scan's first witness."""
    n, bit = len(rows), [1 << j for j in range(len(rows))]
    lefts, rights = [array("I") for _ in range(top)], [array("I") for _ in range(top)]  # by rank
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            lefts[row[j]].append(i)
            rights[row[j]].append(j)
    masks, best = [0] * n, (n, n, n)
    for left, right in zip(lefts, rights):
        for i, j in zip(left, right):
            common = masks[i] & masks[j]
            if common:
                best = min(best, (i, j, (common & -common).bit_length() - 1))
                break
        for i, j in zip(left, right):
            masks[i] |= bit[j]
            masks[j] |= bit[i]
    return best


def find_violation(
    matrix: Sequence[Sequence[RationalLike]],
    labels: Sequence[str] | None = None,
) -> UltrametricViolation | None:
    """Parse the matrix and return its first broken axiom, or None if it is
    valid; see :func:`space_violation`."""
    return space_violation(_parse_space(matrix, labels))


def validate_ultrametric(
    matrix: Sequence[Sequence[RationalLike]],
    labels: Sequence[str] | None = None,
) -> FiniteUltrametricSpace:
    """Build a space from a matrix, raising UltrametricViolation on bad input."""
    space = _parse_space(matrix, labels)
    violation = space_violation(space)
    if violation is not None:
        raise violation
    return space


def diam(space: FiniteUltrametricSpace, subset: Iterable[int]) -> Fraction:
    """Diameter of a nonempty subset.

    Uses the ultrametric shortcut (max distance to a fixed base point),
    which agrees with the full pairwise maximum on every subset of a valid
    space.
    """
    return space.levels[_diam_rank(space, _as_index_tuple(space, subset))]


def _diam_rank(space: FiniteUltrametricSpace, idx: Sequence[int]) -> int:
    """The rank of the diameter of the sorted points idx: the top of the first one's row."""
    return max(map(space.ranks[idx[0]].__getitem__, idx))


def closed_ball(space: FiniteUltrametricSpace, center: int, radius: RationalLike) -> Ball:
    """All points within the given radius of the center, canonicalized.

    The returned ball stores the diameter of its member set, not the
    requested radius, so equal point sets compare equal as balls.
    """
    r = parse_rational(radius)
    if r < 0:
        raise NegativeRadiusError(f"radius must be nonnegative, got {r}")
    try:
        c = index(center)
    except TypeError:
        raise BadParamsError(f"center must be a point index, got {center!r}") from None
    if not 0 <= c < space.n:
        raise BadParamsError(f"center {center} out of range")
    return _scan_ball(space, c, bisect_right(space.levels, r) - 1)  # the largest rank at most r


def smallest_ball(space: FiniteUltrametricSpace, subset: Iterable[int]) -> Ball:
    """The least closed ball containing the subset.

    In an ultrametric space this is the ball of radius diam(subset) around
    any point of the subset; it contains the subset and is contained in
    every ball that does.
    """
    idx = _as_index_tuple(space, subset)
    top = _diam_rank(space, idx)
    if top < space.zero:
        raise NegativeRadiusError(f"radius must be nonnegative, got {space.levels[top]}")
    return _scan_ball(space, idx[0], top)


def _ball(space: FiniteUltrametricSpace, c: int, k: int) -> Ball:
    """The ball table's own ball of the points within rank k of point c: on an
    ultrametric space, :func:`_scan_ball`'s answer, bisected from c's chain."""
    ranks, balls = space.ball_table.chains[c]
    i = bisect_right(ranks, k)
    if not i:
        raise EmptySubsetError("subset must be nonempty")
    return balls[i - 1]


def _scan_ball(space: FiniteUltrametricSpace, c: int, k: int) -> Ball:
    """The points within rank k of point c and the level of their diameter, read off
    the first member's row.  Empty only where d(c, c) > k, off an ultrametric matrix."""
    members = tuple(compress(range(space.n), map(k.__ge__, space.ranks[c])))
    if not members:
        raise EmptySubsetError("subset must be nonempty")
    return Ball(members, space.levels[max(map(space.ranks[members[0]].__getitem__, members))])


def require_canonical(space: FiniteUltrametricSpace, ball: Ball) -> int:
    """The rank of the ball's diameter; raises ForeignBallError unless ball
    is a canonical ball of the space, and BadParamsError on a member that is
    not a point index."""
    # The table's own ball is accepted by its id.  A hand-built ball's float or
    # bool diameter can equal its level, a member such as 1.0 can equal an int,
    # and list members are unhashable; the miss path rejects all four.
    k = space.ball_table.own.get(id(ball))
    if k is not None:
        return k
    members, d = ball.members, ball.diameter
    k = space.ball_table.rank.get(members) if isinstance(members, tuple) else None
    if k is not None and all(map(isinstance, members, repeat(int))) and (
        d is space.levels[k]
        or (isinstance(d, (Fraction, int)) and not isinstance(d, bool) and d == space.levels[k])
    ):
        return k
    if not ball.members:
        raise ForeignBallError("a ball must have at least one member")
    members = _as_index_tuple(space, ball.members)
    if members != tuple(ball.members):
        raise ForeignBallError(f"ball members must be sorted distinct indices: {ball.members}")
    closed_ball(space, members[0], ball.diameter)  # raises on a malformed radius
    raise ForeignBallError(f"{ball} is not a canonical ball of this space")


class BallRelation(Enum):
    EQUAL = "Equal"
    PROPER_SUBSET = "ProperSubset"
    PROPER_SUPERSET = "ProperSuperset"
    DISJOINT = "Disjoint"


def ball_relation(space: FiniteUltrametricSpace, b1: Ball, b2: Ball) -> BallRelation:
    """Classify two balls: equal, nested one way or the other, or disjoint.

    Partial overlap is impossible for ultrametric balls, so those four
    outcomes are exhaustive.
    """
    require_canonical(space, b1)
    require_canonical(space, b2)
    return _relation(b1.members, b2.members)


def _relation(m1: tuple[int, ...], m2: tuple[int, ...]) -> BallRelation:
    """:func:`ball_relation` of two balls given by their member tuples."""
    if m1 == m2:
        return BallRelation.EQUAL
    s1, s2 = set(m1), set(m2)
    if s1 < s2:
        return BallRelation.PROPER_SUBSET
    if s1 > s2:
        return BallRelation.PROPER_SUPERSET
    if not s1 & s2:
        return BallRelation.DISJOINT
    raise AssertionError(f"partial overlap between balls {m1} and {m2}: the space is not ultrametric")


def equidistant_space(
    n: int, value: RationalLike, labels: Sequence[str] | None = None
) -> FiniteUltrametricSpace:
    """The n-point space in which every pair of distinct points is at `value`."""
    t = parse_rational(value)
    if n < 1:
        raise BadParamsError("n must be at least 1")
    if t <= 0:
        raise BadParamsError("the common distance must be positive")
    # Ultrametric by construction; only the labels need checking.  One point
    # leaves t unused, and no level but 0 may go unused.
    ranks = tuple(tuple(int(i != j) for j in range(n)) for i in range(n))
    levels = (ZERO,) if n == 1 else (ZERO, t)
    return FiniteUltrametricSpace(_make_labels(n, labels), levels, ranks)


def ball_labels(labels: Sequence[str], balls: Iterable[tuple[int, ...]]) -> tuple[str, ...]:
    """Point labels for balls given by member tuples: the "+"-joined sorted
    member labels, distinct: a repeat, possible only where input labels embed
    "+", takes the next "#2", "#3", ... that no joined or given label holds."""
    joined = ["+".join(sorted(labels[m] for m in members)) for members in balls]
    taken, seen, out = set(joined), {}, []
    for label in joined:
        count = seen[label] = seen.get(label, 0) + 1
        while count > 1 and f"{label}#{count}" in taken:
            count = seen[label] = count + 1
        out.append(label if count == 1 else f"{label}#{count}")
        taken.add(out[-1])
    return tuple(out)


def space_to_json_dict(space: FiniteUltrametricSpace) -> dict:
    """JSON form: {"labels": [...], "matrix": [[exact strings]]}."""
    text = [rational_str(v) for v in space.levels]
    matrix = [list(map(text.__getitem__, row)) for row in space.ranks]
    return {"labels": list(space.labels), "matrix": matrix}


def _json_fields(data: dict) -> tuple[object, object]:
    """The matrix and labels of a space's JSON form."""
    try:
        labels, matrix = data["labels"], data["matrix"]
    except (KeyError, TypeError) as exc:
        raise BadParamsError(f"space JSON needs 'labels' and 'matrix': {exc}") from exc
    if not isinstance(labels, (list, tuple)):  # null too: only a Python caller may leave labels out
        raise BadParamsError(f"labels must be a list, got {type(labels).__name__}")
    return matrix, labels


def _parse_space_json(data: dict) -> FiniteUltrametricSpace:
    """A space's JSON form, its shape checked but not its axioms.  Replay
    loading validates each result once and runs nothing on an invalid one."""
    return _parse_space(*_json_fields(data))


def space_from_json_dict(data: dict) -> FiniteUltrametricSpace:
    """Load a space from its JSON form, raising UltrametricViolation on bad input."""
    return validate_ultrametric(*_json_fields(data))
