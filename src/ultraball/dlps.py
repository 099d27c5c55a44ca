"""Symbolic subsets of the nonnegative rationals under the max ultrametric.

The distance is ``d(x, y) = max(x, y)`` for distinct x, y (and 0 on the
diagonal).  A space is presented as finitely many positive rationals, an
optional zero, and finitely many geometric tails ``first * ratio**k``
(k >= 0, ratio in (0, 1)) converging to zero.  Under this metric the only
possible accumulation point is 0, so the presentation keeps every predicate
of interest (isolation, discreteness, metrical discreteness, local
finiteness, bounded compactness) exactly decidable while the underlying set
is genuinely infinite.  A tail answers membership and "largest term <= r" at
exponent k in O(log k) integer products on the squares of the ratio's
numerator and denominator, which it keeps, and keeps one running product a
side on the way back down, multiplied only where a step passes; no float
estimate.  ``_below`` orders long values exactly: by bit lengths, then by the
leading 64 bits of each factor, and by full products only on a near-tie (tail
searches, point searches and sorts, a truncation's best and the larger top).
One coprime basis per presentation decides its tails disjoint, and a sample
builds no tail term below the n-th largest value kept so far.  A largest
term whose numerator or denominator has more digits than ``str`` may print
(``sys.get_int_max_str_digits()``) is refused with BadParamsError, and so is
a sample whose matrix could print over SAMPLE_MATRIX_CHARS characters.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice
from typing import Iterable, Iterator, Sequence, Union

from .core import (
    ZERO,
    BadParamsError,
    FiniteUltrametricSpace,
    NegativeRadiusError,
    RationalLike,
    UltraballError,
    _int_limit,
    _prints,
    parse_rational,
    rational_str,
)


SAMPLE_MATRIX_CHARS = 10**8  # the most characters a sample's matrix may print as JSON


class CenterNotInSpaceError(UltraballError):
    pass


def _below(a: int, b: int, c: int, d: int) -> bool:
    """a * b < c * d for positive ints.  An n-bit x has 2**(n-1) <= x < 2**n, so
    two bit-length sums 2 apart decide it.  Else the leading 64 bits h = x >> s
    of each factor bound it, h * 2**s <= x <= (h + (s > 0)) * 2**s; the products
    are formed only where those bounds, in units of 2**min(sa + sb, sc + sd), overlap."""
    la, lb, lc, ld = a.bit_length(), b.bit_length(), c.bit_length(), d.bit_length()
    gap = la + lb - lc - ld
    if gap > 1 or gap < -1:
        return gap < 0
    sa, sb, sc, sd = (la > 64) * (la - 64), (lb > 64) * (lb - 64), (lc > 64) * (lc - 64), (ld > 64) * (ld - 64)
    ha, hb, hc, hd = a >> sa, b >> sb, c >> sc, d >> sd
    shift, c_shift = (sa + sb - sc - sd, 0) if sa + sb > sc + sd else (0, sc + sd - sa - sb)
    if (ha + (sa > 0)) * (hb + (sb > 0)) << shift < hc * hd << c_shift:
        return True
    if ha * hb << shift >= (hc + (sc > 0)) * (hd + (sd > 0)) << c_shift:
        return False
    return a * b < c * d


def _less(x: Fraction, y: Fraction) -> bool:
    """x < y, from the signs of the numerators and ``_below`` on the cross products."""
    (n, d), (m, e) = x.as_integer_ratio(), y.as_integer_ratio()
    if n > 0 < m:
        return _below(n, e, m, d)
    if n < 0 > m:
        return _below(-m, d, -n, e)
    return n < m  # the signs differ, or one is 0


# A sort and bisect key by ``_less``; both ask only "<", so "not less" may read 0.
_order = cmp_to_key(lambda x, y: -_less(x, y))


@dataclass(frozen=True)
class GeometricTail:
    """The infinite set {first * ratio**k : k >= 0}; first > 0, ratio = p/q in (0,1)."""

    first: Fraction
    ratio: Fraction

    def _squares(self) -> Iterator[tuple[int, int]]:
        """ratio**(2**j) as (p**(2**j), q**(2**j)) for j = 0, 1, ...: each squared once per tail."""
        ladder = self.__dict__.get("_ladder") or (self.ratio.as_integer_ratio(),)
        yield from ladder
        while True:
            ladder += ((ladder[-1][0] ** 2, ladder[-1][1] ** 2),)
            self.__dict__["_ladder"] = ladder  # a whole tuple: a racing reader sees a prefix
            yield ladder[-1]

    def _first_at_most(self, r: Fraction, bits: float) -> Fraction | None:
        """The term at the least k with first * ratio**k <= r; None when r <= 0 or once
        q**k passes ``bits`` bits.  With first = a/b, r = c/d and ratio**j = P/Q, a term
        passes r iff a*d*P > b*c*Q: climb the squares until one passes r, then step back
        down, multiplying the running sides a*d*P and b*c*Q by a square where it passes."""
        (a, b), (c, d) = self.first.as_integer_ratio(), r.as_integer_ratio()
        if c <= 0:
            return None
        lhs, rhs = a * d, b * c
        if lhs <= rhs:
            return self.first
        steps = []
        for step_p, step_q in self._squares():
            if not _below(rhs, step_q, lhs, step_p):
                break
            if step_q.bit_length() > bits:
                return None
            steps.append((step_p, step_q))
        k = 0  # the largest exponent found with the term past r
        for i, (step_p, step_q) in reversed(list(enumerate(steps))):
            if _below(rhs, step_q, lhs, step_p):
                lhs, rhs, k = lhs * step_p, rhs * step_q, k + (1 << i)
        return self.first * self.ratio ** (k + 1)  # a power of p/q needs no gcd

    def contains(self, x: Fraction) -> bool:
        """x is the k-th term iff x / first in lowest terms is p**k / q**k: read k
        off the denominator by the squares of q, then match both powers exactly."""
        t = x / self.first
        den, squares = t.denominator, []
        if den > 1 and den % self.ratio.denominator:
            return False  # q divides every q**k with k >= 1
        for _, square in self._squares():
            squares.append(square)
            if 2 * square.bit_length() - 1 > den.bit_length():  # its square > den
                break
        k, power = 0, 1  # power = q**k, the largest found that is <= den
        for j in reversed(range(len(squares))):
            if not _below(den, 1, power, squares[j]):
                k, power = k + (1 << j), power * squares[j]
        return power == den and t.numerator == self.ratio.numerator**k

    def terms_at_least(self, cut: Fraction, n: int) -> list[Fraction]:
        """The largest n terms >= cut (fewer if fewer exist), descending.  The
        list ends early at the first term that cannot print, which it keeps."""
        out = []
        term = self.first
        while term >= cut and len(out) < n:
            out.append(term)
            if not _prints(term):
                break
            term *= self.ratio
        return out

    def max_at_most(self, r: Fraction) -> Fraction | None:
        """Largest term <= r, or None when r <= 0; BadParamsError if it cannot print."""
        if r <= 0:
            return None
        limit = _int_limit() or math.inf
        # The term's denominator is at least q**k / first.numerator; 4 > log2(10).
        term = self._first_at_most(r, 4 * limit + self.first.numerator.bit_length())
        if term is None or not _prints(term):
            raise BadParamsError(f"the largest tail term at or below the cutoff has over {limit} digits")
        return term


# ---------------------------------------------------------------------------
# Exact disjointness of two geometric tails.
#
# first1 * ratio1**k == first2 * ratio2**l is a multiplicative equation over
# the rationals.  Factoring all the numbers of a presentation's tails over one
# pairwise-coprime base turns it, for each pair, into the integer linear system
# k*u - l*w = c on exponent vectors, which is solved exactly (no floats, no
# factorization into primes: coprime-base refinement is enough for uniqueness).
# ---------------------------------------------------------------------------


def _coprime_basis(values: Iterable[int]) -> list[int]:
    """Pairwise-coprime integers > 1 over which every input factors exactly."""
    basis: list[int] = []
    stack = list({abs(v) for v in values} - {0, 1})
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        for i, b in enumerate(basis):
            g = math.gcd(m, b)
            if g == 1:
                continue
            basis.pop(i)
            stack.extend((g, b // g, m // g))
            break
        else:
            basis.append(m)
    return sorted(basis)


def _int_exponents(n: int, basis: Sequence[int]) -> list[int]:
    out = []
    for b in basis:
        e = 0
        while n % b == 0:
            n //= b
            e += 1
        out.append(e)
    if n != 1:
        raise AssertionError("value does not factor over the basis it was built from")
    return out


def _exponent_vector(q: Fraction, basis: Sequence[int]) -> list[int]:
    num = _int_exponents(q.numerator, basis)
    den = _int_exponents(q.denominator, basis)
    return [a - b for a, b in zip(num, den)]


def _tail_vectors(tails: Sequence[GeometricTail]) -> list[tuple[list[int], list[int]]]:
    """Each tail's exponent vectors over one coprime basis of all their numbers."""
    basis = _coprime_basis(n for t in tails for q in (t.first, t.ratio) for n in q.as_integer_ratio())
    return [(_exponent_vector(t.first, basis), _exponent_vector(t.ratio, basis)) for t in tails]


def _vectors_meet(a: list[int], u: list[int], b: list[int], w: list[int]) -> bool:
    """Whether the tails (a, r) and (b, s), given as exponent vectors over one basis,
    meet: a * r**k == b * s**l for some k, l >= 0, that is k*u - l*w == c for c of b / a."""
    # Only the basis elements that r, s or b / a hold take part; the system has no
    # solution when b / a holds one that neither ratio does.
    rows = [(x, y, z - v) for x, y, z, v in zip(u, w, b, a) if x or y or z != v]
    if any(not (x or y) for x, y, _ in rows):
        return False
    if not any(z for _, _, z in rows):
        return True  # a == b

    # Independent exponent directions: a 2x2 subsystem pins (k, l).  Over a
    # coprime basis, a * r**k == b * s**l iff the exponent vectors agree, so
    # no power is built (k can be the square of the input size).
    for i, (ui, wi, ci) in enumerate(rows):
        for uj, wj, cj in rows[i + 1 :]:
            det = -ui * wj + wi * uj
            if det == 0:
                continue
            k_num = -ci * wj + wi * cj
            l_num = ui * cj - ci * uj
            if k_num % det or l_num % det:
                return False
            k, l = k_num // det, l_num // det
            return k >= 0 and l >= 0 and all(k * x - l * y == z for x, y, z in rows)

    # Parallel case: u = (p/q) * w, and c must be (e/f) * w, both in lowest
    # terms with q, f > 0.  Then the system is k*p/q - l == e/f, that is
    # k*p*f - l*q*f == e*q, which has integer solutions iff gcd(p*f, q*f) = f
    # divides e*q, iff f | q (gcd(e, f) = 1).  They lie on a line
    # (k, l) + t*(q, p), and r, s < 1 force p > 0 (r**q == s**p), so l grows
    # with k: a solution with k, l >= 0 exists iff any integer one does.
    up, wp, cp = next(row for row in rows if row[1])
    if any((y == 0) != (z == 0) or z * wp != cp * y for _, y, z in rows):
        return False
    return Fraction(up, wp).denominator % Fraction(cp, wp).denominator == 0


@dataclass(frozen=True)
class DlpsSpace:
    """Symbolic presentation: finite positive points, optional 0, geometric tails.

    Tails must be pairwise disjoint and disjoint from the finite points;
    overlapping presentations are rejected at construction rather than
    merged, so membership asks each tail once, in O(log k) exact steps.
    """

    finite_points: tuple[Fraction, ...]
    has_zero: bool
    tails: tuple[GeometricTail, ...]

    def __post_init__(self) -> None:
        if not (self.finite_points or self.has_zero or self.tails):
            raise BadParamsError("the presented set must be nonempty")

    def contains(self, x: RationalLike) -> bool:
        xf = parse_rational(x)
        if xf == 0:
            return self.has_zero
        if xf < 0:
            return False
        i = bisect.bisect_left(self.finite_points, _order(xf), key=_order)
        if i < len(self.finite_points) and self.finite_points[i] == xf:
            return True
        return any(t.contains(xf) for t in self.tails)

    def max_element(self) -> Fraction:
        candidates = [t.first for t in self.tails]
        if self.finite_points:
            candidates.append(self.finite_points[-1])
        if self.has_zero:
            candidates.append(ZERO)
        return max(candidates)

    def max_at_most(self, r: Fraction) -> Fraction | None:
        """Largest element of the space that is <= r, if any.  Raises
        BadParamsError when the candidate of a tail that could still win cannot print."""
        best: Fraction | None = None
        i = bisect.bisect_right(self.finite_points, _order(r), key=_order)
        if i > 0:
            best = self.finite_points[i - 1]
        for t in self.tails:
            if best is not None and (best == r or not _less(best, t.first)):
                continue  # no term of this tail lies in (best, r]
            cand = t.max_at_most(r)
            if cand is not None and (best is None or _less(best, cand)):
                best = cand
        if best is None and self.has_zero and r >= 0:
            best = ZERO
        return best

    def has_element_below(self, v: Fraction) -> bool:
        """Is there an element strictly less than v?  Tails reach arbitrarily
        far down, so any tail answers yes for positive v."""
        if v <= 0:
            return False
        if self.has_zero or self.tails:
            return True
        return bool(self.finite_points) and self.finite_points[0] < v

    def to_json_dict(self) -> dict:
        return {
            "points": [rational_str(p) for p in self.finite_points],
            "zero": self.has_zero,
            "tails": [
                {"first": rational_str(t.first), "ratio": rational_str(t.ratio)}
                for t in self.tails
            ],
        }


def dlps_space(
    points: Iterable[RationalLike] = (),
    has_zero: bool = False,
    tails: Iterable[tuple[RationalLike, RationalLike]] = (),
) -> DlpsSpace:
    """Validated constructor for a symbolic space presentation."""
    # Keyed by (numerator, denominator), so no long Fraction is hashed.
    unique = {q.as_integer_ratio(): q for q in map(parse_rational, points)}
    pts = sorted(unique.values(), key=_order)
    if pts and pts[0] <= 0:
        raise BadParamsError("finite points must be positive; use has_zero for 0")
    tl = []
    for first, ratio in tails:
        ff, rf = parse_rational(first), parse_rational(ratio)
        if ff <= 0:
            raise BadParamsError(f"tail first term must be positive, got {ff}")
        if not 0 < rf < 1:
            raise BadParamsError(f"tail ratio must lie strictly between 0 and 1, got {rf}")
        tl.append(GeometricTail(ff, rf))

    vectors = _tail_vectors(tl)
    for i, t in enumerate(tl):
        for p in pts:
            if t.contains(p):
                raise BadParamsError(f"point {p} already lies on tail ({t.first}, {t.ratio})")
        for j, other in enumerate(tl[i + 1 :], i + 1):
            if _vectors_meet(*vectors[i], *vectors[j]):
                raise BadParamsError(
                    f"tails ({t.first}, {t.ratio}) and ({other.first}, {other.ratio}) intersect"
                )
    return DlpsSpace(tuple(pts), bool(has_zero), tuple(tl))


def dlps_from_json_dict(data: dict) -> DlpsSpace:
    """Load {"points": [...], "zero": bool, "tails": [{"first", "ratio"}, ...]}, no other keys."""
    if not isinstance(data, dict):
        raise BadParamsError(f"symbolic-space JSON must be an object, got {type(data).__name__}")
    unknown = [key for key in data if key not in ("points", "zero", "tails")]
    points = data.get("points", [])
    zero = data.get("zero", False)
    tails = data.get("tails", [])
    if not isinstance(points, list):
        raise BadParamsError(f"'points' must be a list, got {type(points).__name__}")
    if not isinstance(zero, bool):
        raise BadParamsError(f"'zero' must be true or false, got {zero!r}")
    if not isinstance(tails, list) or not all(isinstance(t, dict) for t in tails):
        raise BadParamsError("'tails' must be a list of {\"first\", \"ratio\"} objects")
    unknown += [key for t in tails for key in t if key not in ("first", "ratio")]
    if unknown:
        raise BadParamsError(f"unknown keys in symbolic-space JSON: {unknown}")
    try:
        pairs = [(t["first"], t["ratio"]) for t in tails]
    except KeyError as exc:
        raise BadParamsError(f"bad symbolic-space JSON: {exc}") from exc
    return dlps_space(points, zero, pairs)


@dataclass(frozen=True)
class Singleton:
    """The one-element ball {value}."""

    value: Fraction


@dataclass(frozen=True)
class Truncation:
    """The ball X intersected with [0, cutoff]; cutoff normalized to the
    largest element it actually traps, so equal sets get equal cutoffs."""

    cutoff: Fraction


SymbolicBall = Union[Singleton, Truncation]


def normalize_ball(space: DlpsSpace, ball: SymbolicBall) -> SymbolicBall:
    if isinstance(ball, Singleton):
        if not space.contains(ball.value):
            raise BadParamsError(f"singleton value {ball.value} is not in the space")
        return ball
    cutoff = space.max_at_most(ball.cutoff)
    if cutoff is None:
        raise BadParamsError(f"no element of the space lies at or below {ball.cutoff}")
    return Truncation(cutoff)


def ball_max(ball: SymbolicBall) -> Fraction:
    return ball.value if isinstance(ball, Singleton) else ball.cutoff


def dlps_ball(space: DlpsSpace, c: RationalLike, r: RationalLike) -> SymbolicBall:
    """Closed ball around c: a bare singleton below the center's own value,
    the whole initial segment [0, r] of the space from the center on up."""
    cf, rf = parse_rational(c), parse_rational(r)
    if rf < 0:
        raise NegativeRadiusError(f"radius must be nonnegative, got {rf}")
    if not space.contains(cf):
        raise CenterNotInSpaceError(f"{cf} is not a point of the space")
    if cf > 0 and rf < cf:
        return Singleton(cf)
    return normalize_ball(space, Truncation(rf))


def dlps_acc(space: DlpsSpace) -> frozenset[Fraction]:
    """Accumulation points: at most {0}, and exactly {0} when 0 is present
    and some tail brings points arbitrarily close to it."""
    if space.has_zero and space.tails:
        return frozenset({ZERO})
    return frozenset()


def dlps_is_discrete(space: DlpsSpace) -> bool:
    return not dlps_acc(space)


def dlps_min_positive_distance(space: DlpsSpace) -> Fraction | None:
    """Infimum of distances between distinct elements; None with < 2 elements.

    Under the max metric the closest pair is the two smallest elements, so
    the infimum is the second-smallest element; tails force it to 0 (then
    it is a true infimum, not attained).
    """
    if space.tails:
        return ZERO
    elements = ([ZERO] if space.has_zero else []) + list(space.finite_points)
    if len(elements) < 2:
        return None
    return elements[1]


def dlps_is_metrically_discrete(space: DlpsSpace) -> bool:
    m = dlps_min_positive_distance(space)
    return m is None or m > 0


def dlps_is_locally_finite(space: DlpsSpace) -> bool:
    # A bounded set [0, t] traps a whole tail end, so any tail kills this.
    return not space.tails


def dlps_is_boundedly_compact(space: DlpsSpace) -> bool:
    # Equivalent here to every initial segment X n [0, t] being finite.
    return not space.tails


def dlps_ball_count_at_most(space: DlpsSpace, threshold: RationalLike) -> int | None:
    """Number of distinct balls whose members all lie at or below threshold;
    None means infinitely many (any tail supplies them)."""
    t = parse_rational(threshold)
    if t < 0:
        return 0
    if space.tails:
        return None
    count_elems = len([p for p in space.finite_points if p <= t]) + (1 if space.has_zero else 0)
    return 0 if count_elems == 0 else 2 * count_elems - 1


@dataclass(frozen=True)
class DlpsBalleanReport:
    ballean_discrete: bool
    ballean_acc: frozenset[SymbolicBall]
    ballean_metrically_discrete: bool

    def to_json_dict(self) -> dict:
        return {
            "discrete": self.ballean_discrete,
            "accumulation_balls": sorted(
                rational_str(ball_max(b)) for b in self.ballean_acc
            ),
            "metrically_discrete": self.ballean_metrically_discrete,
        }


def dlps_ballean_analysis(space: DlpsSpace) -> DlpsBalleanReport:
    """Predicates of the ball space, derived from the point-space presentation.

    The ball space is discrete iff 0 is not an accumulation point of the
    space; its accumulation balls are exactly the singletons at accumulation
    points; it is metrically discrete iff the space is.
    """
    acc = dlps_acc(space)
    ballean_discrete = ZERO not in acc
    ballean_acc = frozenset(Singleton(x) for x in acc)
    ballean_metrically_discrete = dlps_is_metrically_discrete(space)
    return DlpsBalleanReport(ballean_discrete, ballean_acc, ballean_metrically_discrete)


def dlps_hausdorff(space: DlpsSpace, b1: SymbolicBall, b2: SymbolicBall) -> Fraction:
    """Hausdorff distance between two symbolic balls: the maximum of their
    top elements, i.e. the diameter of the union; 0 for equal sets."""
    b1 = normalize_ball(space, b1)
    b2 = normalize_ball(space, b2)
    if type(b1) is type(b2):
        same = b1 == b2
    else:
        single, trunc = (b1, b2) if isinstance(b1, Singleton) else (b2, b1)
        # A truncation collapses to one point iff nothing lies below its cutoff.
        same = single.value == trunc.cutoff and not space.has_element_below(trunc.cutoff)
    top1, top2 = ball_max(b1), ball_max(b2)
    return ZERO if same else top2 if _less(top1, top2) else top1


def dlps_sample(space: DlpsSpace, n: int, scale_cut: RationalLike) -> FiniteUltrametricSpace:
    """Finite shadow of the space: 0 when present, all finite points, and
    tail terms down to scale_cut, truncated to n points by dropping the
    smallest positives first."""
    if n < 1:
        raise BadParamsError("sample size must be at least 1")
    cut = parse_rational(scale_cut)
    if cut <= 0:
        raise BadParamsError("scale cut must be positive")
    # The parts of a presentation are disjoint and each is listed in
    # descending order, so merges keep the k largest positives without a sort,
    # which would compare long terms of a ratio-near-1 tail many times.  No tail
    # builds a term below the k-th largest value kept before it; larger first terms go first.
    # The bound below refuses `most` values (13 characters a cell), so no tail builds more.
    k, most = n - space.has_zero, math.isqrt(SAMPLE_MATRIX_CHARS // 13) + 2
    largest = list(space.finite_points[::-1][:k])
    for t in sorted(space.tails, key=lambda t: t.first, reverse=True):
        if len(largest) >= most:
            break
        floor = max(cut, largest[-1]) if 0 < k == len(largest) else cut
        largest = list(islice(heapq.merge(largest, t.terms_at_least(floor, min(k, most)), reverse=True), k))
    values = [ZERO] * space.has_zero + largest[::-1] or [space.max_element()]
    if not all(map(_prints, values)):
        raise BadParamsError("a sampled tail term has too many digits to print")
    # Distinct nonnegative values under the max metric form an ultrametric
    # space by construction, so the matrix is not re-validated.  The distance
    # of the i-th and j-th smallest values is the larger one, so its rank is
    # max(i, j); the smallest value is never a distance, and 0 takes its rank.
    # So value i fills 2 * i cells and "0" the m diagonal ones; a cell prints at most
    # floor(bits * 0.30103) + 1 digits a part, a slash and 10 characters of JSON.
    m = len(values)
    cells = ((v.numerator.bit_length() + v.denominator.bit_length()) * 30103 // 100000 + 13 for v in values)
    if 11 * m + sum(2 * i * chars for i, chars in enumerate(cells)) > SAMPLE_MATRIX_CHARS:
        raise BadParamsError(f"the sampled matrix could print over {SAMPLE_MATRIX_CHARS} characters")
    ranks = tuple((i,) * i + (0,) + tuple(range(i + 1, m)) for i in range(m))
    return FiniteUltrametricSpace(tuple(rational_str(v) for v in values), (ZERO, *values[1:]), ranks)
