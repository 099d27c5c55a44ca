import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dlps_contains_reference,
    dlps_max_at_most_reference,
    tail_contains_walk,
    tail_max_at_most_walk,
    tail_terms_at_least_walk,
)
from ultraball.ballean import ballean_space, enumerate_ballean, hausdorff_balls, min_positive_distance
from ultraball.core import BadParamsError, NegativeRadiusError, find_violation
from ultraball.dlps import (
    CenterNotInSpaceError,
    DlpsSpace,
    GeometricTail,
    Singleton,
    Truncation,
    _below,
    _less,
    _tail_vectors,
    _vectors_meet,
    dlps_acc,
    dlps_ball,
    dlps_ball_count_at_most,
    dlps_ballean_analysis,
    dlps_from_json_dict,
    dlps_hausdorff,
    dlps_is_boundedly_compact,
    dlps_is_discrete,
    dlps_is_locally_finite,
    dlps_is_metrically_discrete,
    dlps_min_positive_distance,
    dlps_sample,
    dlps_space,
    normalize_ball,
)

F = Fraction


def finite_012():
    return dlps_space(points=(1, 2), has_zero=True)


def zero_tail():
    return dlps_space(has_zero=True, tails=[(1, "1/2")])


def bare_tail():
    return dlps_space(tails=[(1, "1/2")])


def mixed():
    return dlps_space(points=(1, 2), has_zero=True, tails=[("1/3", "1/2")])


# --- construction ------------------------------------------------------------


def test_empty_presentation_rejected():
    with pytest.raises(BadParamsError):
        dlps_space()
    # The raw constructor refuses it too, worded as dlps_space words it.
    with pytest.raises(BadParamsError, match="the presented set must be nonempty"):
        DlpsSpace((), False, ())


def test_bad_ratio_rejected():
    with pytest.raises(BadParamsError):
        dlps_space(tails=[(1, "1")])
    with pytest.raises(BadParamsError):
        dlps_space(tails=[(1, "3/2")])
    with pytest.raises(BadParamsError):
        dlps_space(tails=[(1, 0)])


def test_point_on_tail_rejected():
    with pytest.raises(BadParamsError):
        dlps_space(points=("1/4",), tails=[(1, "1/2")])


def test_intersecting_tails_rejected():
    with pytest.raises(BadParamsError):
        dlps_space(tails=[(1, "1/4"), ("1/2", "1/8")])  # both hit 1/16


def _tails_meet(t1, t2):
    """Whether two tails meet, asked as dlps_space asks it: _vectors_meet over
    one _tail_vectors basis, here the pair's own."""
    (a, u), (b, w) = _tail_vectors((t1, t2))
    return _vectors_meet(a, u, b, w)


@pytest.mark.parametrize(
    "t1, t2, expected",
    [
        ((1, "1/4"), ("1/2", "1/8"), True),  # 1*(1/4)^2 == (1/2)*(1/8)^1
        ((1, "1/2"), ("1/3", "1/2"), False),  # powers of 2 never reach 1/3 * 2^-k
        ((1, "1/2"), (1, "1/3"), True),  # equal first terms
        ((1, "1/4"), ("1/2", "1/4"), False),  # same ratio, offset by 1/2
        ((1, "1/4"), (2, "1/2"), True),  # 1*(1/4)^0 == 2*(1/2)^1
        (("1/6", "1/6"), (("1/4"), ("2/3")), True),  # both reach 1/6
        (("1/6", "1/6"), (("1/5"), ("2/3")), False),  # the factor 5 never cancels
        (("9/4", "2/3"), (("8/3"), ("3/4")), True),  # (9/4)(2/3) == (8/3)(3/4)^2 == 3/2
    ],
)
def test_tail_intersection_solver(t1, t2, expected):
    a = GeometricTail(F(t1[0]), F(t1[1]))
    b = GeometricTail(F(t2[0]), F(t2[1]))
    assert _tails_meet(a, b) == expected
    assert _tails_meet(b, a) == expected


SCANNED_TAILS = [
    (F(1), F(1, 2)),
    (F(1), F(1, 3)),
    (F(2), F(1, 2)),
    (F(1, 3), F(1, 2)),
    (F(3, 4), F(1, 4)),
    (F(1), F(2, 5)),
    (F(5, 2), F(1, 5)),
    # Parallel ratios, where the solver's residue class must be pushed up
    # until both exponents are nonnegative.
    (F(1), F(1, 4)),
    (F(1, 8), F(1, 2)),
    (F(1, 2), F(1, 4)),
    (F(1), F(1, 16)),
    (F(1), F(4, 9)),
    (F(2, 3), F(2, 3)),
]


def test_tail_solver_agrees_with_term_scan():
    # cross-check the algebra against direct enumeration of small terms
    for t1 in SCANNED_TAILS:
        for t2 in SCANNED_TAILS:
            a, b = GeometricTail(*t1), GeometricTail(*t2)
            terms_a = {a.first * a.ratio**k for k in range(40)}
            terms_b = {b.first * b.ratio**k for k in range(40)}
            scanned = bool(terms_a & terms_b)
            assert _tails_meet(a, b) == scanned


bases = st.builds(F, st.integers(1, 7), st.integers(2, 9)).filter(lambda g: g < 1)
firsts = st.builds(F, st.integers(1, 12), st.integers(1, 12))
ratio_powers = st.integers(1, 6)
offsets = st.integers(0, 8)
factors = st.sampled_from((F(1), F(1), F(2), F(3, 2), F(5)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(base=bases, i=ratio_powers, j=ratio_powers, first=firsts, up=offsets, down=offsets, factor=factors)
def test_parallel_tail_ratios_agree_with_term_scan(base, i, j, first, up, down, factor):
    # Ratios base**i and base**j, first terms apart by base**up / base**down
    # (and a factor that may leave the exponent line): the parallel case.
    # A common term, if any, has exponents below 120 on both tails.
    a = GeometricTail(first, base**i)
    b = GeometricTail(first * factor * base**up / base**down, base**j)
    scanned = bool({a.first * a.ratio**k for k in range(120)} & {b.first * b.ratio**k for k in range(120)})
    assert _tails_meet(a, b) == scanned
    assert _tails_meet(b, a) == scanned


# --- tail questions by repeated squaring, against the term walks -------------

small_tails = st.builds(
    lambda num, den, p, q: GeometricTail(F(num, den), F(p, q)),
    st.integers(1, 30),
    st.integers(1, 30),
    st.integers(1, 11),
    st.integers(2, 12),
).filter(lambda t: t.ratio < 1)
exponents = st.integers(0, 60)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tail=small_tails, k=exponents, prime=st.sampled_from((2, 3, 5, 7, 11, 13)), up=st.booleans())
def test_tail_contains_matches_walk(tail, k, prime, up):
    term = tail.first * tail.ratio**k
    stray = term * prime if up else term / prime
    above = tail.first * (1 + F(1, prime))
    for x in (term, stray, above, F(0), -term):
        assert tail.contains(x) == tail_contains_walk(tail, x), x
    assert tail.contains(term)
    assert not tail.contains(above)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tail=small_tails, k=exponents, n=st.integers(1, 70))
def test_tail_max_at_most_and_terms_at_least_match_walks(tail, k, n):
    term = tail.first * tail.ratio**k
    between = (term + term * tail.ratio) / 2
    for r in (term, between, tail.first * 2, F(0)):
        assert tail.max_at_most(r) == tail_max_at_most_walk(tail, r), r
        if r > 0:
            assert tail.terms_at_least(r, n) == tail_terms_at_least_walk(tail, r)[:n], r


# At workload depth: ratios (m-1)/m and (m-2)/m with m up to 10**6, exponents
# up to 700, and first terms carrying a prime above 10**6, which no ratio has.
# m is drawn by its number of digits, so that few examples pay for a walk at
# 4,200 digits; the two explicit examples are the deepest case and one like
# the dlps-symbolic workload's.
deep_tails = st.builds(
    lambda m, d, num, den, up: GeometricTail(
        F(num * 1000003, den) if up else F(num, den * 1000003), F(m - d, m)
    ),
    st.integers(1, 6).flatmap(lambda digits: st.integers(10 ** (digits - 1) + 2, 10**digits)),
    st.integers(1, 2),
    st.integers(1, 30),
    st.integers(1, 30),
    st.booleans(),
)
deep_exponents = st.integers(0, 700)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tail=deep_tails, k=deep_exponents, l=deep_exponents)
@example(tail=GeometricTail(F(1000003, 7), F(999999, 10**6)), k=700, l=699)
@example(tail=GeometricTail(F(13, 1000003), F(92, 93)), k=650, l=500)
def test_tail_questions_match_walks_at_workload_depth(tail, k, l):
    p, q = tail.ratio.numerator, tail.ratio.denominator
    term = tail.first * tail.ratio**k
    # A second tail, disjoint from the first, whose terms the walks reach
    # within a few steps of its own exponent.
    other = GeometricTail(tail.first * F(1000033, 1000037), tail.ratio)
    values = [
        term,
        # Right denominator q**k, wrong numerator (the first decoy is the
        # first term itself when p + 1 == q).
        tail.first * F(p + 1, q) ** k,
        tail.first * F(p**k + q, q**k),
        other.first * other.ratio**l,
        F(0),
        -term,
    ]
    for x in values:
        assert tail.contains(x) == tail_contains_walk(tail, x), x
    for r in (*values, (term + term * tail.ratio) / 2):
        assert tail.max_at_most(r) == tail_max_at_most_walk(tail, r), r


def squared_meeting(w):
    """(1, 2/3**(w-1)) and (2**w, 2/3**w), which meet at k = w**2, l = w*(w-1)."""
    return [(F(1), F(2, 3 ** (w - 1))), (F(2**w), F(2, 3**w))]


@pytest.mark.parametrize("w", [200, 1000])
def test_tails_meeting_at_a_squared_exponent_are_refused_fast(w):
    start = time.perf_counter()
    with pytest.raises(BadParamsError, match="intersect"):
        dlps_space(tails=squared_meeting(w))
    assert time.perf_counter() - start < 0.5


# Tails from the three solver tests above: the scanned list, a shared base
# raised to powers with first terms on and off its exponent line, and pairs
# that first meet at a squared exponent.
parallel_tails = st.builds(
    lambda base, i, first, up, down, factor: (first * factor * base**up / base**down, base**i),
    bases, ratio_powers, firsts, offsets, offsets, factors,
)
presentation_tails = st.lists(
    st.one_of(
        st.sampled_from(SCANNED_TAILS),
        parallel_tails,
        st.integers(2, 6).flatmap(lambda w: st.sampled_from(squared_meeting(w))),
    ),
    min_size=2,
    max_size=5,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tails=presentation_tails)
def test_presentation_basis_agrees_with_each_pair_alone(tails):
    tails = [GeometricTail(*t) for t in tails]
    vectors = _tail_vectors(tails)
    for i, t1 in enumerate(tails):
        for j, t2 in enumerate(tails):
            assert _vectors_meet(*vectors[i], *vectors[j]) == _tails_meet(t1, t2), (t1, t2)


def test_construction_reports_the_first_fault_in_point_then_pair_order():
    # Tail 0 meets tail 2 at 1/16, 1/4 lies on tail 0 and 1/9 on tail 1.
    tails = [(1, "1/4"), ("1/3", "1/3"), ("1/2", "1/8")]

    def refusal(points, tails):
        with pytest.raises(BadParamsError) as caught:
            dlps_space(points, tails=tails)
        return str(caught.value)

    assert refusal(["1/9", "1/4"], tails) == "point 1/4 already lies on tail (1, 1/4)"
    assert refusal(["1/9"], tails) == "tails (1, 1/4) and (1/2, 1/8) intersect"
    assert refusal(["1/9"], tails[1:]) == "point 1/9 already lies on tail (1/3, 1/3)"
    assert refusal([], [tails[1], *squared_meeting(3)]) == "tails (1, 2/9) and (8, 2/27) intersect"


def test_ratio_near_one_cutoff_that_cannot_print_is_refused_fast():
    start = time.perf_counter()
    with pytest.raises(BadParamsError):
        normalize_ball(dlps_space(tails=[(10**6, "999999/1000000")]), Truncation(F(1)))
    # The cutoff itself has 8,001 digits: the message must not print it.
    with pytest.raises(BadParamsError, match="cutoff"):
        normalize_ball(dlps_space(tails=[(1, "99/100")]), Truncation(F(99, 100) ** 4000))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "first, ratio, offset",
    [
        (F(1), F(1, 10), -10),
        (F(10**6), F(999999, 10**6), None),
        # The numerator of first cancels 4,000 digits of q**k in the term.
        (F(10**4000), F(1, 10), 3990),
    ],
)
def test_largest_term_is_refused_exactly_when_it_cannot_print(first, ratio, offset):
    # The walk starts at exponent `offset` plus the digit limit (at 0 for
    # None) and finds the last term that str() prints, independently of the
    # digit test the library uses.
    tail = GeometricTail(first, ratio)
    skip = 0 if offset is None else sys.get_int_max_str_digits() + offset
    term = first * ratio**skip
    while True:
        try:
            str(term * ratio)
        except ValueError:
            break
        term *= ratio
    assert tail.max_at_most(term) == term
    with pytest.raises(BadParamsError):
        tail.max_at_most(term * ratio)


@pytest.mark.parametrize("r", [F(0), F(-1, 3)])
def test_tail_search_ends_below_every_term_without_a_bit_bound(r):
    # No term is at most r <= 0, and with no bound on q**k nothing else ends the climb.
    assert GeometricTail(F(1), F(1, 2))._first_at_most(r, math.inf) is None


def sample_from_walks(space, n, cut):
    """The labels dlps_sample should give, from every term at or above cut."""
    terms = {x for t in space.tails for x in tail_terms_at_least_walk(t, cut)}
    positives = sorted({*space.finite_points, *terms}, reverse=True)[: n - space.has_zero]
    values = [F(0)] * space.has_zero + positives[::-1] or [space.max_element()]
    return tuple(map(str, values))


# Presentations shaped like the dlps-symbolic workload's: three tails with
# first terms prime/100 and ratios (m-1)/m, m two apart, and finite points
# just off the tails at depths up to 650.
workload_presentations = st.builds(
    lambda base, primes, depths, zero: dlps_space(
        [F(p, 100) * F(base + 2 * t - 1, base + 2 * t) ** k * F(1008, 1009)
         for t, (p, k) in enumerate(zip(primes, depths))],
        zero,
        [(F(p, 100), F(base + 2 * t - 1, base + 2 * t)) for t, p in enumerate(primes)],
    ),
    st.integers(90, 96),
    st.permutations((101, 103, 107, 109, 113, 127, 131)).map(lambda ps: ps[:3]),
    st.lists(st.sampled_from((200, 350, 500, 650)), max_size=3),
    st.booleans(),
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    space=workload_presentations,
    n=st.integers(1, 25),
    depth=st.sampled_from((700, 300, 40, 0, -1)),
)
@example(space=dlps_space(tails=[("113/100", "89/90"), ("101/100", "91/92")]), n=20, depth=700)
@example(space=dlps_space(tails=[("101/100", "89/90"), ("103/100", "91/92")]), n=5, depth=-1)
@example(space=dlps_space(["1/1000", "1/999", "1/998"], False, [("113/100", "89/90")]), n=3, depth=0)
def test_sample_matches_the_term_walks_at_workload_depth(space, n, depth):
    # depth -1 puts the cut above every first term, where a presentation
    # without points or zero falls back to its largest element; points
    # below the cut are kept, but no tail term below it.
    first, ratio = space.tails[0].first, space.tails[0].ratio
    cut = F(2) if depth < 0 else first * ratio**depth
    assert dlps_sample(space, n, cut).labels == sample_from_walks(space, n, cut)


def test_sample_is_refused_exactly_when_it_keeps_a_term_that_cannot_print():
    # Every term of this tail lies near 1, above the cut, and the first one
    # that cannot print is term `bad`.
    tail = (F(1), F(2**1000 - 1, 2**1000))
    terms = [tail[0]]
    while True:
        try:
            str(terms[-1])
        except ValueError:
            break
        terms.append(terms[-1] * tail[1])
    bad = len(terms) - 1
    above = range(2, bad + 2)  # bad points, all above the tail
    kept = dlps_sample(dlps_space(tails=[tail]), bad, "1/2")
    assert kept.labels == tuple(str(t) for t in terms[bad - 1 :: -1])
    assert dlps_sample(dlps_space(above, tails=[tail]), bad + 1, "1/2").labels[0] == "1"
    for points, n in (((), bad + 1), (above, 2 * bad + 1)):
        with pytest.raises(BadParamsError, match="a sampled tail term has too many digits to print"):
            dlps_sample(dlps_space(points, tails=[tail]), n, "1/2")


def test_traced_tail_methods_are_reached_through_the_class(monkeypatch):
    # The benchmark wraps these two methods on the class by name, and sizes
    # what terms_at_least returns with len; each entry point must reach them.
    reached = []
    for name in ("max_at_most", "terms_at_least"):

        def spy(self, *args, real=getattr(GeometricTail, name), name=name):
            out = real(self, *args)
            reached.append((name, type(out)))
            return out

        monkeypatch.setattr(GeometricTail, name, spy)
    space = mixed()
    assert normalize_ball(space, Truncation(F(1, 5))) == Truncation(F(1, 6))
    assert reached == [("max_at_most", Fraction)]
    assert dlps_hausdorff(space, Singleton(F(1)), Truncation(F(1, 5))) == 1
    assert reached[1:] == [("max_at_most", Fraction)]
    assert dlps_sample(space, 4, "1/8").labels == ("0", "1/3", "1", "2")
    assert reached[2:] == [("terms_at_least", list)]


def test_sample_takes_at_most_n_terms_per_tail():
    start = time.perf_counter()
    s = dlps_sample(dlps_space(tails=[(1, "999999/1000000")]), 3, "1/1000")
    assert s.labels == ("999998000001/1000000000000", "999999/1000000", "1")
    assert time.perf_counter() - start < 1.0


def test_sample_drops_tail_terms_that_cannot_print_when_not_chosen():
    # The tail stops at its first term past the digit limit (about term 717),
    # and the 1,000 finite points above it are the whole sample.
    space = dlps_space(points=range(2, 1002), tails=[(1, "999999/1000000")])
    s = dlps_sample(space, 1000, "1/2")
    assert s.labels == tuple(str(k) for k in range(2, 1002))


def test_truncation_at_a_finite_point_ignores_a_tail_that_cannot_win():
    # The tail's largest term at or below 1/2 cannot print, but 1/2 is the answer.
    space = dlps_space(points=["1/2"], tails=[(10**6, "999999/1000000")])
    assert normalize_ball(space, Truncation(F(1, 2))) == Truncation(F(1, 2))


def test_hausdorff_normalizes_each_ball_once(monkeypatch):
    calls = []

    def counting(space, ball):
        calls.append(ball)
        return normalize_ball(space, ball)

    monkeypatch.setattr("ultraball.dlps.normalize_ball", counting)
    assert dlps_hausdorff(mixed(), Singleton(F(2)), Truncation(F(1, 2))) == 2
    assert len(calls) == 2


# --- the filtered exact order, against plain products and Fractions ----------

ints = st.integers(1, 6000).flatmap(lambda n: st.integers(1 << (n - 1), (1 << n) - 1))
words = st.integers(1, (1 << 64) - 1)
twos = st.builds(lambda k, less: (1 << k) - less, st.integers(1, 6000), st.integers(0, 1))
factors = st.one_of(ints, words, twos.filter(bool))


@st.composite
def factor_pairs(draw):
    """(a, b, c, d) with a*b and c*d far apart in bits, close, equal in their
    leading words, exactly tied, or 1 apart."""
    a, b, c, d = (draw(factors) for _ in range(4))
    how = draw(st.sampled_from(("free", "lead", "tie", "near")))
    if how == "lead":  # c shares a's leading 64 bits (a's own low bits when a < 2**64)
        c, d = a ^ draw(st.integers(0, (1 << max(a.bit_length() - 64, 0)) - 1)), b
    elif how in ("tie", "near"):  # a*b*c*d both ways, then d one more or one less
        a, b, c, d = a * b, c * d, a * c, b * d
        if how == "near":
            d += draw(st.sampled_from((1, -1))) if d > 1 else 1
    return a, b, c, d


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pair=factor_pairs(), signs=st.tuples(st.sampled_from((-1, 0, 1)), st.sampled_from((-1, 0, 1))))
@example(pair=(2**6000 - 1, 2**6000 - 1, 2**6000 - 2, 2**6000), signs=(1, 1))
@example(pair=(3 * 2**5000, 2**64 - 1, 2**64 - 1, 3 * 2**5000), signs=(-1, -1))
@example(pair=(2**63, 2**63, 2**64, 2**62), signs=(1, 1))
@example(pair=(2**64 + 1, 1, 2**64, 1), signs=(1, 0))
def test_exact_order_matches_plain_products(pair, signs):
    a, b, c, d = pair
    assert _below(a, b, c, d) == (a * b < c * d)
    assert _below(c, d, a, b) == (c * d < a * b)
    # a/d < c/b iff a*b < c*d; a sign of 0 makes that side 0.
    x, y = F(signs[0] * a, d), F(signs[1] * c, b)
    assert _less(x, y) == (x < y)
    assert _less(y, x) == (y < x)


def near_one_presentation(seed):
    """Seeded like the dlps-symbolic workload: ratios (m-1)/m with m two apart
    near 90, and points just off the tails, at exponents 200 to 700.  The
    probes are the points, tail terms, terms just off their tail, and midpoints."""
    rng = random.Random(seed)
    base = rng.randint(90, 96)
    primes = rng.sample((101, 103, 107, 109, 113, 127, 131), 3)
    tails = [(F(p, 100), F(base + 2 * t - 1, base + 2 * t)) for t, p in enumerate(primes)]

    def term(t):
        first, ratio = tails[t]
        return first * ratio ** rng.randint(200, 700)

    points = [term(t % 3) * F(1008, 1009) for t in range(3)]
    terms = [term(rng.randrange(3)) for _ in range(3)]
    probes = [*points, *terms, *(x * F(1012, 1013) for x in terms), *((x + y) / 2 for x, y in zip(terms, points))]
    return points, rng.random() < 0.5, tails, probes


@pytest.mark.parametrize("seed", range(3))
def test_space_questions_match_the_references_near_ratio_one(seed):
    points, zero, tails, probes = near_one_presentation(seed)
    # Out of order, each twice, once in other terms: one point each, ascending.
    given = [*points[::-1], *(f"{3 * p.numerator}/{3 * p.denominator}" for p in points)]
    space = dlps_space(given, zero, tails)
    assert space.finite_points == tuple(sorted(set(points)))
    tops = {x: dlps_max_at_most_reference(space, x) for x in probes}
    for x in probes:
        assert space.contains(x) == dlps_contains_reference(space, x), x
        assert space.max_at_most(x) == tops[x], x
        assert normalize_ball(space, Truncation(x)) == Truncation(tops[x])
    for x, y in zip(probes, probes[::-1]):
        assert dlps_hausdorff(space, Truncation(x), Truncation(y)) == (
            F(0) if tops[x] == tops[y] else max(tops[x], tops[y])
        )
        # A tail lies below every point, so no singleton is a truncation.
        if dlps_contains_reference(space, x):
            assert dlps_hausdorff(space, Singleton(x), Truncation(y)) == max(x, tops[y])


def test_points_given_in_other_forms_are_one_point():
    space = dlps_space(["2/4", "1/2", F(1, 2), "0.5", 3, "6/2", "1/3"])
    assert space.finite_points == (F(1, 3), F(1, 2), F(3))


@pytest.mark.parametrize("seed", range(2))
def test_refusals_near_ratio_one_keep_their_text_and_order(seed):
    points, zero, tails, probes = near_one_presentation(seed)
    on_tail, off_tail = probes[3], probes[6]
    first, ratio = tails[0]
    space = dlps_space(points, zero, tails)
    # The first tail, in the order given, that holds a point, by the walks.
    holder = next(t for t in space.tails if tail_contains_walk(t, on_tail))
    cases = [
        (lambda: dlps_space([*points, on_tail], zero, tails),
         f"point {on_tail} already lies on tail ({holder.first}, {holder.ratio})"),
        (lambda: dlps_space(points, zero, [*tails, (first * ratio**300, ratio**2)]),
         f"tails ({first}, {ratio}) and ({first * ratio**300}, {ratio**2}) intersect"),
        (lambda: dlps_space([*points, -off_tail], zero, tails),
         "finite points must be positive; use has_zero for 0"),
        (lambda: dlps_space(points, zero, [*tails, (-off_tail, ratio)]),
         f"tail first term must be positive, got {-off_tail}"),
        (lambda: dlps_space(points, zero, [*tails, (first, 1 / ratio)]),
         f"tail ratio must lie strictly between 0 and 1, got {1 / ratio}"),
        (lambda: normalize_ball(space, Singleton(off_tail)),
         f"singleton value {off_tail} is not in the space"),
        (lambda: normalize_ball(space, Truncation(-off_tail)),
         f"no element of the space lies at or below {-off_tail}"),
    ]
    for call, text in cases:
        with pytest.raises(BadParamsError) as err:
            call()
        assert str(err.value) == text


# --- balls -------------------------------------------------------------------


def test_ball_examples():
    space = finite_012()
    assert dlps_ball(space, 2, 1) == Singleton(F(2))
    # cutoffs normalize to the largest trapped element
    whole = dlps_ball(space, 2, 3)
    assert whole == Truncation(F(2))
    assert dlps_ball(space, 2, 2) == Truncation(F(2))
    assert dlps_ball(space, 1, 1) == Truncation(F(1))  # {0, 1}
    assert dlps_ball(space, 0, 0) == Truncation(F(0))  # degenerates to {0}


def test_ball_errors():
    space = finite_012()
    with pytest.raises(CenterNotInSpaceError):
        dlps_ball(space, 5, 1)
    with pytest.raises(NegativeRadiusError):
        dlps_ball(space, 1, -1)
    with pytest.raises(CenterNotInSpaceError):
        dlps_ball(space, -1, 1)  # no negative value is a member
    with pytest.raises(BadParamsError, match="singleton value 3 is not in the space"):
        normalize_ball(space, Singleton(F(3)))
    with pytest.raises(BadParamsError, match="no element of the space lies at or below 1/2"):
        normalize_ball(dlps_space(points=(1, 2)), Truncation(F(1, 2)))


# --- acc ---------------------------------------------------------------------


def test_acc_examples():
    assert dlps_acc(zero_tail()) == frozenset({F(0)})
    assert dlps_acc(finite_012()) == frozenset()
    assert dlps_acc(bare_tail()) == frozenset()


# --- predicate table ---------------------------------------------------------


@pytest.mark.parametrize(
    "factory, discrete, metrically, locally, boundedly",
    [
        (finite_012, True, True, True, True),
        (zero_tail, False, False, False, False),
        (bare_tail, True, False, False, False),
    ],
)
def test_predicates(factory, discrete, metrically, locally, boundedly):
    space = factory()
    assert dlps_is_discrete(space) == discrete
    assert dlps_is_metrically_discrete(space) == metrically
    assert dlps_is_locally_finite(space) == locally
    assert dlps_is_boundedly_compact(space) == boundedly


def test_min_positive_distance_closed_form():
    assert dlps_min_positive_distance(finite_012()) == 1  # second-smallest of {0,1,2}
    assert dlps_min_positive_distance(dlps_space(points=(1,), has_zero=True)) == 1  # of {0,1}
    assert dlps_min_positive_distance(zero_tail()) == 0  # infimum, not attained
    assert dlps_min_positive_distance(dlps_space(points=(5,))) is None


def test_min_positive_distance_matches_sampled_brute_force():
    space = finite_012()
    sample = dlps_sample(space, 3, 1)
    assert dlps_min_positive_distance(space) == min_positive_distance(sample)


def test_ball_count_at_most():
    space = finite_012()
    assert dlps_ball_count_at_most(space, 2) == 5  # 2*3 - 1
    assert dlps_ball_count_at_most(space, 1) == 3  # {0}, {1}, {0,1}
    assert dlps_ball_count_at_most(space, "1/2") == 1
    assert dlps_ball_count_at_most(zero_tail(), "1/2") is None


def test_ball_count_at_most_counts_the_balls_of_the_whole_sample():
    # A tail-free space is its own sample; count its balls at or below t.
    rng = random.Random(0)
    for has_zero in (False, True):
        for _ in range(40):
            points = {F(rng.randint(1, 40), rng.randint(1, 6)) for _ in range(rng.randint(not has_zero, 6))}
            space = dlps_space(points, has_zero)
            sample = dlps_sample(space, len(points) + has_zero, 1)
            values = [F(label) for label in sample.labels]
            balls = enumerate_ballean(sample)
            ordered = sorted(points | {F(0)})
            between = [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
            for t in [F(-1), F(0), *ordered, *between, ordered[-1] + 1]:
                expected = sum(all(values[m] <= t for m in b.members) for b in balls)
                assert dlps_ball_count_at_most(space, t) == expected, (space, t)


# --- ballean analysis --------------------------------------------------------


def test_ballean_analysis_examples():
    report = dlps_ballean_analysis(zero_tail())
    assert not report.ballean_discrete
    assert report.ballean_acc == frozenset({Singleton(F(0))})

    report = dlps_ballean_analysis(finite_012())
    assert report.ballean_discrete
    assert report.ballean_acc == frozenset()

    third = dlps_space(points=(1,), has_zero=True, tails=[("1/3", "1/2")])
    assert not dlps_ballean_analysis(third).ballean_discrete


def test_ballean_analysis_consistency():
    for space in (finite_012(), zero_tail(), bare_tail()):
        report = dlps_ballean_analysis(space)
        assert report.ballean_discrete == dlps_is_discrete(space)
        assert report.ballean_metrically_discrete == dlps_is_metrically_discrete(space)
        assert report.ballean_acc == frozenset(Singleton(x) for x in dlps_acc(space))


def test_ballean_discrete_vs_metrically_discrete_needs_zero():
    # without 0 the two ballean predicates can split: the bare tail is
    # discrete but not metrically discrete
    report = dlps_ballean_analysis(bare_tail())
    assert report.ballean_discrete and not report.ballean_metrically_discrete


# --- symbolic Hausdorff ------------------------------------------------------


def test_hausdorff_examples():
    assert dlps_hausdorff(dlps_space(points=(2, 3)), Singleton(F(2)), Singleton(F(3))) == 3
    space = finite_012()
    assert dlps_hausdorff(space, Singleton(F(2)), Truncation(F(1))) == 2
    assert dlps_hausdorff(space, Truncation(F(1)), Truncation(F(2))) == 2
    assert dlps_hausdorff(space, Truncation(F(1)), Truncation(F(1))) == 0


def test_hausdorff_equal_sets_across_kinds_is_zero():
    space = dlps_space(points=(2, 3))
    # nothing lies below 2, so the truncation at 2 is the bare singleton
    assert dlps_hausdorff(space, Singleton(F(2)), Truncation(F(2))) == 0
    assert dlps_hausdorff(finite_012(), Singleton(F(2)), Truncation(F(2))) != 0


def test_ball_set_equality_across_kinds():
    # Two symbolic balls hold the same points exactly when their Hausdorff
    # distance is 0, whichever kind each one is written as.
    for space in (dlps_space(points=(2, 3)), finite_012()):
        values = [F(lab) for lab in dlps_sample(space, 3, 1).labels]
        balls = [Singleton(v) for v in values] + [Truncation(v) for v in values]

        def points(ball):
            if isinstance(ball, Singleton):
                return {ball.value}
            return {v for v in values if v <= ball.cutoff}

        for b1 in balls:
            for b2 in balls:
                assert (dlps_hausdorff(space, b1, b2) == 0) == (points(b1) == points(b2))


# --- sampling ----------------------------------------------------------------


def test_sample_examples():
    full = dlps_sample(finite_012(), 3, 1)
    assert full.labels == ("0", "1", "2")

    s = dlps_sample(zero_tail(), 4, "1/8")
    assert s.labels == ("0", "1/4", "1/2", "1")

    assert dlps_sample(zero_tail(), 1, "1/8").n == 1


def test_sample_always_valid():
    for factory in (finite_012, zero_tail, bare_tail, mixed):
        for n in (1, 2, 5, 9):
            s = dlps_sample(factory(), n, "1/64")
            assert find_violation(s.dist, s.labels) is None


def test_sample_bad_params():
    with pytest.raises(BadParamsError):
        dlps_sample(finite_012(), 0, 1)
    with pytest.raises(BadParamsError):
        dlps_sample(finite_012(), 3, 0)


def test_sample_cut_above_everything_falls_back_to_max():
    s = dlps_sample(bare_tail(), 3, 4)
    assert s.labels == ("1",)
    assert dlps_space(points=(1, 2), tails=[("1/3", "1/2")]).max_element() == 2


# --- finite shadow agreement -------------------------------------------------


def test_finite_shadow_agreement_full_survival():
    """On a finite presentation every symbolic ball survives sampling, and
    symbolic Hausdorff distances match the sampled-space computation."""
    space = finite_012()
    sample = dlps_sample(space, 3, 1)
    value_of = {lab: F(lab) for lab in sample.labels}
    index_of = {v: i for i, v in enumerate(value_of[lab] for lab in sample.labels)}

    symbolic_balls = [Singleton(F(1)), Singleton(F(2)), Truncation(F(0)), Truncation(F(1)), Truncation(F(2))]

    def shadow(ball):
        if isinstance(ball, Singleton):
            members = (index_of[ball.value],)
        else:
            members = tuple(sorted(index_of[v] for v in index_of if v <= ball.cutoff))
        for b in enumerate_ballean(sample):
            if b.members == members:
                return b
        raise AssertionError(f"symbolic ball {ball} did not survive sampling")

    for i, b1 in enumerate(symbolic_balls):
        for b2 in symbolic_balls[i + 1 :]:
            assert dlps_hausdorff(space, b1, b2) == hausdorff_balls(sample, shadow(b1), shadow(b2))


def test_sampled_tail_min_distance_shrinks_with_cut():
    # evidence that the infimum of pairwise distances is 0 when a tail is present
    space = zero_tail()
    coarse = min_positive_distance(dlps_sample(space, 5, "1/8"))
    fine = min_positive_distance(dlps_sample(space, 8, "1/128"))
    assert fine < coarse


def test_sample_ballean_is_ultrametric():
    for factory in (finite_012, zero_tail, bare_tail):
        sample = dlps_sample(factory(), 6, "1/32")
        bspace = ballean_space(sample)
        assert find_violation(bspace.dist, bspace.labels) is None


# --- JSON --------------------------------------------------------------------


def test_json_round_trip():
    space = dlps_space(points=("1", "2"), has_zero=True, tails=[("1/3", "1/2")])
    again = dlps_from_json_dict(space.to_json_dict())
    assert again == space
    assert space.to_json_dict() == {
        "points": ["1", "2"],
        "zero": True,
        "tails": [{"first": "1/3", "ratio": "1/2"}],
    }
