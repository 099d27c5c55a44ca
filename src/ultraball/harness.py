"""Seeded randomized verification suite and structured reports.

Each check verifies one exact structural property of balleans on randomly
generated spaces (plus fixed symbolic instances).  Everything is driven by
a master seed through substreams: each trial draws one space, which every
per-space check reads, and each check body draws from its own (check,
trial) stream, seeded only when the body asks for it.  So identical
configurations yield identical reports, and every failure record carries
its trial and a serialized instance that reproduce the failure on its own.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, count, product
from operator import lt
from typing import Callable

try:
    # CPython's built-in SHA-256: unlike hashlib, it does not load OpenSSL.
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from .ballean import (
    _cases_rank,
    _family_ranks,
    _oracle_rank,
    _union_rank,
    ballean_space,
    enumerate_ballean,
    hausdorff_balls,
    min_positive_distance,
    singleton_embedding,
    smallest_ball_distance,
)
from .core import (
    ZERO,
    BadParamsError,
    Ball,
    ConfigError,
    FiniteUltrametricSpace,
    UltrametricViolation,
    _parse_space_json,
    equidistant_space,
    parse_rational,
    rational_str,
    space_to_json_dict,
    space_violation,
    validate_ultrametric,
)
from .dendrogram import _ballean_rows, _balls, _parse_pool, _random_space, are_isometric
from .dlps import (
    DlpsSpace,
    Singleton,
    dlps_acc,
    dlps_ball_count_at_most,
    dlps_ballean_analysis,
    dlps_hausdorff,
    dlps_is_boundedly_compact,
    dlps_is_discrete,
    dlps_is_locally_finite,
    dlps_is_metrically_discrete,
    dlps_min_positive_distance,
    dlps_sample,
    dlps_space,
)

DEFAULT_LEVEL_POOL: tuple[Fraction, ...] = _parse_pool(("1", "3/2", "2", "3", "7/2", "4"))


@dataclass(frozen=True)
class TrialConfig:
    seed: int = 42
    trials: int = 200
    max_points: int = 12
    checks: tuple[str, ...] = ()  # empty means: run every registered check

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.max_points < 1:
            raise ConfigError("max_points must be at least 1")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}; known: {sorted(CHECKS)}")

    def selected_checks(self) -> tuple[str, ...]:
        """The checks to run, each once, in first-seen order."""
        return tuple(dict.fromkeys(self.checks)) or tuple(CHECKS)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "max_points": self.max_points,
            "level_pool": [rational_str(v) for v in DEFAULT_LEVEL_POOL],
            "checks": list(self.selected_checks()),
        }


@dataclass
class CheckOutcome:
    check_id: str
    claim: str
    trials: int = 0
    failures: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "claim": self.claim,
            "trials": self.trials,
            "failures": self.failures,
            "stats": self.stats,
            "elapsed_s": round(self.elapsed_s, 6),
        }


@dataclass
class CheckReport:
    config: TrialConfig
    checks: list[CheckOutcome]

    @property
    def passed(self) -> bool:
        return all(not c.failures for c in self.checks)

    def outcome(self, check_id: str) -> CheckOutcome:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "checks": [c.to_json_dict() for c in self.checks],
            "status": "pass" if self.passed else "fail",
        }


def _substream(seed: int, *parts: object) -> int:
    data = ":".join([str(seed), *map(str, parts)]).encode()
    return int.from_bytes(sha256(data).digest()[:8], "big")


def _trial_rng(cfg: TrialConfig, stream: str, trial: int) -> random.Random:
    return random.Random(_substream(cfg.seed, stream, trial))


def _trial_space(cfg: TrialConfig, stream: str, trial: int) -> FiniteUltrametricSpace:
    rng = _trial_rng(cfg, stream, trial)
    n = rng.randint(1, cfg.max_points)
    return _random_space(rng.getrandbits(63), n, DEFAULT_LEVEL_POOL)


def _failure(trial: int | str, detail: str, space: FiniteUltrametricSpace | None = None, **extra) -> dict:
    record: dict = {"trial": trial, "detail": detail}
    if space is not None:
        record["space"] = space_to_json_dict(space)
    record.update(extra)
    return record


# --- per-space check bodies -------------------------------------------------
# Each body returns a failure detail string, or None when the space passes.
# ``stream()`` seeds and returns the body's own (check, trial) random stream.
Stream = Callable[[], random.Random]


def _body_h1(space: FiniteUltrametricSpace, stream: Stream) -> str | None:
    levels, bspace = space.levels, ballean_space(space)
    if not all(map(lt, levels, levels[1:])):  # so ranks order as distances
        return "levels do not strictly increase"
    if bspace.levels != levels:
        return "the ballean does not keep the space's levels"
    balls, rank = enumerate_ballean(space), space.ball_table.rank
    tops = [rank[b.members] for b in balls]
    pairs = list(combinations(range(len(balls)), 2))
    if len(pairs) > 300:
        pairs = stream().sample(pairs, 300)
    for i, j in pairs:
        m1, k1, m2, k2 = balls[i].members, tops[i], balls[j].members, tops[j]
        result = _union_rank(space, m1, k1, m2, k2)
        cases = _cases_rank(space, m1, k1, m2, k2)
        # On odd i + j the larger ball goes first, so nested pairs exercise both halves of the sup-inf.
        oracle = _oracle_rank(space, m2, m1) if (i + j) % 2 else _oracle_rank(space, m1, m2)
        if not result == cases == oracle:
            return (
                f"Hausdorff routes disagree on {m1} vs {m2}: "
                f"union-diam={levels[result]}, cases={levels[cases]}, sup-inf={levels[oracle]}"
            )
        if bspace.ranks[i][j] != oracle:
            return f"ballean matrix puts {m1}, {m2} at {levels[bspace.ranks[i][j]]}, sup-inf at {levels[oracle]}"
    return None


def _body_h2(space: FiniteUltrametricSpace, stream: Stream) -> str | None:
    bspace = ballean_space(space)
    violation = space_violation(bspace)
    if violation is not None:
        return f"ballean space failed validation: {violation.to_json_dict()}"
    # The rows read off the merges, which `ballean_space` and `ultraball ballean` give.
    _, rows = _ballean_rows(space.n, space.split[0], range(len(space.levels)))
    if space.levels != bspace.levels or tuple(rows) != bspace.ranks:
        return "ballean matrix differs from the merge-tree route"
    return None


def _mask(members: tuple[int, ...]) -> int:
    """A ball's member set as a bitmask: bit p for point p."""
    return sum(1 << p for p in members)


def _body_h3(space: FiniteUltrametricSpace, stream: Stream) -> str | None:
    balls = enumerate_ballean(space)
    masks = [_mask(b.members) for b in balls]
    # The balls containing each ball, as a bitmask of indices.  Those holding two balls form
    # a chain, and the table is sorted by size: the lowest shared bit is the smallest of them.
    sup = [sum(1 << i for i, t in enumerate(masks) if s & t == s) for s in masks]
    for (i1, b1), (i2, b2) in combinations(enumerate(balls), 2):
        bstar, value = smallest_ball_distance(space, b1, b2)
        common = sup[i1] & sup[i2]
        want = balls[(common & -common).bit_length() - 1]
        if bstar != want:
            got, expected = (f"{b.members} of diameter {b.diameter}" for b in (bstar, want))
            return f"smallest ball for {b1.members}, {b2.members} is {got}, not {expected}"
        h = hausdorff_balls(space, b1, b2)
        if value is not h and value != h:
            return f"smallest-ball diameter != Hausdorff distance for {b1.members}, {b2.members}"
    return None


def _body_h4(space: FiniteUltrametricSpace, stream: Stream) -> str | None:
    balls, rank = enumerate_ballean(space), space.ball_table.rank
    if len(balls) < 2:
        return None
    if not all(map(lt, space.levels, space.levels[1:])):  # so ranks order as distances
        return "levels do not strictly increase"
    table = [(b.members, rank[b.members]) for b in balls]
    rng = stream()
    for _ in range(50):
        size = rng.randint(2, min(8, len(balls)))
        family = rng.sample(table, size)
        try:
            _family_ranks(space, family)
        except AssertionError as exc:
            return f"family {[members for members, _ in family]}: {exc}"
    return None


def _body_h5(space: FiniteUltrametricSpace, stream: Stream) -> str | None:
    balls, bound = enumerate_ballean(space), 2 * space.n - 1
    if len(balls) > bound:
        return f"{len(balls)} balls, over the 2n-1 bound of {bound}"
    # The merges that `ultraball ballean` reads, and its ball list, in order.
    merges = space.split[0]
    if [members for members, _ in _balls(space.n, merges)] != [b.members for b in balls]:
        return "merge-tree node leaf sets differ from the ball table, in order"
    if all(len(kids) == 2 for _, kids in merges) and len(balls) != bound:
        return f"binary merge tree but only {len(balls)} balls (expected {bound})"
    return None


def _body_h6(space: FiniteUltrametricSpace, stream: Stream) -> str | None:
    singleton_embedding(space)  # raises AssertionError when not an isometry
    return None


def _body_h7(space: FiniteUltrametricSpace, stream: Stream) -> str | None:
    base = min_positive_distance(space)
    lifted = min_positive_distance(ballean_space(space))
    if base != lifted:
        return f"min positive distance changed: space={base}, ballean={lifted}"
    return None


def _body_h9(space: FiniteUltrametricSpace, stream: Stream) -> str | None:
    balls = enumerate_ballean(space)
    masks = [_mask(b.members) for b in balls]
    for y, y_mask in zip(balls, masks):
        # Restricting keeps point order and diameters: Y's renumbered subballs, in order.
        position = {orig: i for i, orig in enumerate(y.members)}
        expected = [
            Ball(tuple(map(position.__getitem__, b.members)), b.diameter)
            for b, b_mask in zip(balls, masks)
            if b_mask & y_mask == b_mask
        ]
        if expected != list(enumerate_ballean(space.restrict(y.members))):
            return f"subballs of {y.members} do not match the ballean of the restriction"
    return None


def _body_h11(space: FiniteUltrametricSpace, stream: Stream) -> str | None:
    # With every two balls at a positive distance, each subset is its own
    # isolated set and has no accumulation points, so the two partition it
    # and only the whole ballean is dense and discrete.  A pair at a rank
    # that is zero, or not above it, breaks that for the subset it forms.
    bspace = ballean_space(space)
    zero = bspace.zero
    for s, row in enumerate(bspace.ranks):
        for t, k in enumerate(row):
            if t != s and (k == zero or not k > zero):
                return f"balls {s} and {t} of the ballean are not at a positive distance"
    return None


def _body_h12(space: FiniteUltrametricSpace, stream: Stream) -> str | None:
    first = ballean_space(space)
    second = ballean_space(first)
    for stage, candidate in (("first", first), ("second", second)):
        violation = space_violation(candidate)
        if violation is not None:
            return f"{stage} iterated ballean failed validation: {violation.to_json_dict()}"
    return None


_PER_SPACE_BODIES = {
    "H1": _body_h1,
    "H2": _body_h2,
    "H3": _body_h3,
    "H4": _body_h4,
    "H5": _body_h5,
    "H6": _body_h6,
    "H7": _body_h7,
    "H9": _body_h9,
    "H11": _body_h11,
    "H12": _body_h12,
}


def _run_h8(cfg: TrialConfig, outcome: CheckOutcome) -> None:
    for n, t in product(range(1, min(10, cfg.max_points) + 1), (Fraction(1), Fraction(3, 2))):
        outcome.trials += 1
        space, problems = None, []
        try:
            space = equidistant_space(n, t)
            bl = enumerate_ballean(space)
            bspace = ballean_space(space)
            expected_size = 1 if n == 1 else n + 1
            if len(bl) != expected_size:
                problems.append(f"ballean size {len(bl)} != {expected_size}")
            off_diagonal = {bspace.d(i, j) for i, j in combinations(range(bspace.n), 2)}
            if n >= 2 and off_diagonal != {t}:
                problems.append(f"ballean distances {sorted(off_diagonal)} not all {t}")
            if are_isometric(space, bspace) != (n == 1):
                problems.append("isometry to own ballean has the wrong truth value")
        except Exception as exc:  # a crashing instance fails, and the others still run
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            outcome.failures.append(_failure(outcome.trials - 1, "; ".join(problems), space, n=n))


def _dlps_fixtures() -> list[tuple[str, DlpsSpace]]:
    return [
        ("finite {0,1,2}", dlps_space(points=(1, 2), has_zero=True)),
        ("zero plus tail(1,1/2)", dlps_space(has_zero=True, tails=[(1, "1/2")])),
        ("tail(1,1/2) without zero", dlps_space(tails=[(1, "1/2")])),
        ("{0,1} plus tail(1/3,1/2)", dlps_space(points=(1,), has_zero=True, tails=[("1/3", "1/2")])),
    ]


# (discrete, metrically discrete, locally finite, boundedly compact,
#  accumulation points; the ballean's discreteness, metrical discreteness
#  and accumulation balls)
_NONE, _ZERO_ACC, _ZERO_BALL = frozenset(), frozenset({ZERO}), frozenset({Singleton(ZERO)})
_DLPS_EXPECTED = {
    "finite {0,1,2}": (True, True, True, True, _NONE, True, True, _NONE),
    "zero plus tail(1,1/2)": (False, False, False, False, _ZERO_ACC, False, False, _ZERO_BALL),
    "tail(1,1/2) without zero": (True, False, False, False, _NONE, True, False, _NONE),
    "{0,1} plus tail(1/3,1/2)": (False, False, False, False, _ZERO_ACC, False, False, _ZERO_BALL),
}


def _run_h10(cfg: TrialConfig, outcome: CheckOutcome) -> None:
    for name, space in _dlps_fixtures():
        outcome.trials += 1
        problems: list[str] = []
        try:
            locally = dlps_is_locally_finite(space)
            report = dlps_ballean_analysis(space)
            expected = _DLPS_EXPECTED[name]
            got = (
                dlps_is_discrete(space),
                dlps_is_metrically_discrete(space),
                locally,
                dlps_is_boundedly_compact(space),
                dlps_acc(space),
                report.ballean_discrete,
                report.ballean_metrically_discrete,
                report.ballean_acc,
            )
            if got != expected:
                problems.append(f"predicate table {got} != expected {expected}")
            if (dlps_ball_count_at_most(space, space.max_element()) is not None) != locally:
                problems.append("bounded ball counts disagree with local finiteness")

            sample = dlps_sample(space, 6, Fraction(1, 32))
            violation = space_violation(sample)
            if violation is not None:
                problems.append(f"finite sample failed validation: {violation.to_json_dict()}")
            else:
                bsample = ballean_space(sample)
                if space_violation(bsample) is not None:
                    problems.append("ballean of the finite sample is not ultrametric")
                # Finite shadow: symbolic Hausdorff between surviving singleton
                # balls must match the sampled-space computation.
                values = [parse_rational(lab) for lab in sample.labels]
                for i in range(sample.n):
                    for j in range(i + 1, sample.n):
                        symbolic = dlps_hausdorff(space, Singleton(values[i]), Singleton(values[j]))
                        if symbolic != sample.dist[i][j]:
                            problems.append(
                                f"symbolic vs sampled distance differ at {values[i]}, {values[j]}"
                            )
                if not space.tails:
                    sampled_min = min_positive_distance(sample)
                    if sampled_min != dlps_min_positive_distance(space):
                        problems.append("sampled min positive distance != symbolic second-smallest")
        except Exception as exc:  # a crashing instance fails, and the others still run
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            outcome.failures.append(_failure(name, "; ".join(problems), dlps=space.to_json_dict()))


CHECKS: dict[str, str] = {
    "H1": "Hausdorff distance between distinct balls: sup-inf definition, "
    "disjoint/nested case split, and diameter of the union all agree exactly",
    "H2": "the ballean under the Hausdorff distance is a valid ultrametric space, and its "
    "matrix equals the one built from the merge tree",
    "H3": "the Hausdorff distance between distinct balls equals the diameter of the "
    "smallest ball containing their union",
    "H4": "a family of two or more balls has the same diameter measured between balls, "
    "on the union of their points, and on the smallest enclosing ball",
    "H5": "at most 2n-1 balls, ball member sets equal merge-tree node leaf sets, "
    "with equality of the bound for binary merge trees",
    "H6": "mapping points to singleton balls embeds the space isometrically in its ballean",
    "H7": "the minimum positive pairwise distance of the ballean equals that of the space",
    "H8": "an equidistant space has an equidistant ballean with the same value and one "
    "extra point, and is isometric to it only in the one-point case",
    "H9": "the balls contained in a ball Y are exactly the ballean of Y as a subspace",
    "H10": "symbolic max-metric spaces: the predicates and accumulation sets of the space "
    "and its ballean match a pinned table, ball counts are finite iff locally finite, and a "
    "finite sample and its ballean are ultrametric with the symbolic distances",
    "H11": "every two distinct balls of the ballean are at a positive Hausdorff distance",
    "H12": "the first and second iterated balleans are valid ultrametric spaces",
}


# Checks that build their own instances and read no trial space.
_RUNNERS = {"H8": _run_h8, "H10": _run_h10}


def _replay_instance(
    position: int, entry: dict
) -> tuple[int, FiniteUltrametricSpace, UltrametricViolation | None]:
    """A failure record, at its trial, or a bare space, at its position."""
    trial = position
    try:
        if isinstance(entry, dict) and "space" in entry:
            trial, entry = entry.get("trial", position), entry["space"]
            if type(trial) is not int:
                raise BadParamsError("trial must be an integer")
        space = _parse_space_json(entry)
    except BadParamsError as exc:
        raise BadParamsError(f"replay entry {position}: {exc}") from None
    return trial, space, space_violation(space)


def run_suite(config: TrialConfig, replay_spaces: list[dict] | None = None) -> CheckReport:
    """Run the selected checks and collect a deterministic report.

    Each trial draws one space from the shared "verify" stream, and every
    selected per-space check runs on it; a check's ``elapsed_s`` is the time
    spent in its bodies.  ``replay_spaces`` (failure records or bare spaces)
    replaces the drawn spaces, each parsed and validated once.  A space that
    is not ultrametric fails every per-space check with its first violation,
    and no check body runs on it; when no per-space check is selected, its
    violation is raised.
    """
    outcomes = {c: CheckOutcome(c, CHECKS[c]) for c in config.selected_checks()}
    bodies = [(c, _PER_SPACE_BODIES[c], o) for c, o in outcomes.items() if c in _PER_SPACE_BODIES]
    # Generators, so one space and its caches are alive at a time.
    if replay_spaces is not None:
        instances = map(_replay_instance, count(), replay_spaces)
    else:
        trials = range(config.trials if bodies else 0)
        instances = ((t, _trial_space(config, "verify", t), None) for t in trials)
    largest = 0
    for trial, space, violation in instances:
        if violation is not None and not bodies:
            raise violation  # no selected check reads the replay to report it
        largest = max(largest, space.n)
        for check_id, body, outcome in bodies:
            outcome.trials += 1
            if violation is not None:  # every check states a theorem about ultrametric spaces
                detail = f"input space invalid: {violation.to_json_dict()}"
            else:
                start = time.perf_counter()
                try:
                    detail = body(space, partial(_trial_rng, config, check_id, trial))
                except Exception as exc:  # a crashing check fails on this space
                    detail = f"{type(exc).__name__}: {exc}"
                outcome.elapsed_s += time.perf_counter() - start
            if detail is not None:
                outcome.failures.append(_failure(trial, detail, space))
    if largest:
        for _, _, outcome in bodies:
            outcome.stats["max_space_size"] = largest

    for check_id, run in _RUNNERS.items():
        if check_id in outcomes:
            start = time.perf_counter()
            run(config, outcomes[check_id])
            outcomes[check_id].elapsed_s = time.perf_counter() - start
    return CheckReport(config, list(outcomes.values()))


def _enumerate_small_spaces() -> list[FiniteUltrametricSpace]:
    """Every valid distance matrix over small value pools, up to 4 points."""
    pools = {2: [Fraction(1), Fraction(2), Fraction(3)],
             3: [Fraction(1), Fraction(2), Fraction(3)], 4: [Fraction(1), Fraction(2)]}
    spaces = [validate_ultrametric([[0]])]
    for n, pool in pools.items():
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for values in product(pool, repeat=len(slots)):
            matrix = [[ZERO] * n for _ in range(n)]
            for (i, j), v in zip(slots, values):
                matrix[i][j] = matrix[j][i] = v
            try:
                spaces.append(validate_ultrametric(matrix))
            except UltrametricViolation:
                pass
    return spaces


def probe_q63(config: TrialConfig) -> dict:
    """Finite-scale search for a non-equidistant space isometric to its ballean.

    None can exist: for n >= 2 the ballean always holds the n singletons plus
    the whole space, so it has at least n+1 points and the cardinalities
    already differ.  The probe verifies that excess on every instance it
    visits and reports the (always empty) witness list.  The corresponding
    question for infinite spaces is untouched by any finite search.
    """
    witnesses: list[dict] = []
    excess_ok = 0
    one_point_isometric = None

    exhaustive = _enumerate_small_spaces()
    # Drawn one at a time: each space keeps its split and ballean.
    randoms = (_trial_space(config, "q63", trial) for trial in range(config.trials))
    for space in chain(exhaustive, randoms):
        bspace = ballean_space(space)
        isometric = are_isometric(space, bspace)
        if space.n == 1:
            if one_point_isometric is None:
                one_point_isometric = isometric
            continue
        if bspace.n < space.n + 1:
            witnesses.append(
                {"detail": "ballean smaller than n+1", "space": space_to_json_dict(space)}
            )
            continue
        excess_ok += 1
        if isometric and len(space.levels) > 2:  # not equidistant
            witnesses.append(
                {"detail": "non-equidistant space isometric to its ballean",
                 "space": space_to_json_dict(space)}
            )
    return {
        "config": config.to_json_dict(),
        "exhaustive_instances": len(exhaustive),
        "random_instances": config.trials,
        "ballean_excess_verified": excess_ok,
        "one_point_space_isometric": bool(one_point_isometric),
        "witnesses": witnesses,
        "conclusion": (
            "no finite witness possible: |ballean| >= n+1 for n >= 2, so no "
            "finite space with at least two points is isometric to its "
            "ballean; the infinite case is left open"
        ),
    }
