"""Acceptance criteria, one test per criterion, exact equality throughout.

Criteria 1, 2, 5, 6, 11 and the bound half of 3 are read off the shared
acceptance-scale verification run (seed 42, 200 trials, up to 12 points);
the rest drive the library directly.  Every test prints a single verdict
line for its criterion.
"""

import hashlib
import json
from fractions import Fraction
from itertools import permutations

from oracles import brute_isometric
from ultraball import harness
from ultraball.ballean import (
    ballean_space,
    enumerate_ballean,
    hausdorff_balls,
    hausdorff_by_cases,
    hausdorff_oracle,
    min_positive_distance,
)
from ultraball.cli import cli_main
from ultraball.core import equidistant_space, find_violation, space_to_json_dict, validate_ultrametric
from ultraball.dendrogram import (
    _random_space,
    are_isometric,
    build_dendrogram,
    dendrogram_to_space,
    random_binary_space,
    random_space,
)
from ultraball.dlps import (
    dlps_acc,
    dlps_ballean_analysis,
    dlps_is_boundedly_compact,
    dlps_is_discrete,
    dlps_is_locally_finite,
    dlps_is_metrically_discrete,
    dlps_sample,
    dlps_space,
)
from ultraball.harness import TrialConfig, probe_q63

POOL = ("1", "3/2", "2", "3", "7/2", "4")


def _verdict(num, name, problems):
    status = "FAIL" if problems else "PASS"
    print(f"[criterion {num:02d}] {name}: {status}")
    assert not problems, f"criterion {num} ({name}): {problems[:3]}"


def _check(report, check_id):
    outcome = report.outcome(check_id)
    problems = []
    if outcome.failures:
        problems.append(f"{check_id} failures: {outcome.failures[:2]}")
    return outcome, problems


def test_criterion_01_hausdorff_three_way_agreement(default_report):
    outcome, problems = _check(default_report, "H1")
    if outcome.trials < 200:
        problems.append(f"only {outcome.trials} spaces checked")
    if default_report.config.max_points > 12:
        problems.append("spaces larger than 12 points would not be exhaustive")
    if outcome.elapsed_s >= 30:
        problems.append(f"took {outcome.elapsed_s:.1f}s, budget is 30s")
    _verdict(1, "three-way Hausdorff agreement", problems)


def test_criterion_02_ballean_ultrametricity(default_report):
    problems = _check(default_report, "H2")[1] + _check(default_report, "H12")[1]
    _verdict(2, "ballean and iterated ballean stay ultrametric", problems)


def test_criterion_03_ballean_size(default_report):
    outcome, problems = _check(default_report, "H5")
    if outcome.trials < 200:
        problems.append("size bound not exercised at acceptance scale")
    for seed in range(5):
        for n in range(2, 13):
            space = random_binary_space(seed, n)
            got = len(enumerate_ballean(space))
            if got != 2 * n - 1:
                problems.append(f"binary space seed={seed} n={n}: {got} balls != {2 * n - 1}")
    _verdict(3, "ballean size bound and binary-merge equality", problems)


def test_criterion_04_equidistant_structure():
    problems = []
    for t in (Fraction(1), Fraction(3, 2)):
        one = equidistant_space(1, t)
        if not are_isometric(one, ballean_space(one)):
            problems.append("one-point space must be isometric to its ballean")
        for n in range(2, 11):
            space = equidistant_space(n, t)
            bspace = ballean_space(space)
            if bspace.n != n + 1:
                problems.append(f"n={n} t={t}: ballean has {bspace.n} points, wanted {n + 1}")
            off_diag = {
                bspace.dist[i][j] for i in range(bspace.n) for j in range(bspace.n) if i != j
            }
            if off_diag != {t}:
                problems.append(f"n={n} t={t}: ballean not equidistant, values {sorted(off_diag)}")
            if are_isometric(space, bspace):
                problems.append(f"n={n} t={t}: wrongly isometric to its own ballean")
    _verdict(4, "equidistant spaces and their balleans", problems)


def test_criterion_05_metrical_discreteness(default_report):
    outcome, problems = _check(default_report, "H7")
    if outcome.trials < 200:
        problems.append("not run at acceptance scale")
    space = validate_ultrametric([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    if min_positive_distance(ballean_space(space)) != Fraction(1):
        problems.append("spot check: minimal positive Hausdorff distance moved")
    _verdict(5, "minimum positive distance preserved in the ballean", problems)


def test_criterion_06_smallest_ball_and_family_triple(default_report):
    problems = []
    for check_id in ("H3", "H4"):
        outcome, found = _check(default_report, check_id)
        problems += found
        if outcome.trials < 200:
            problems.append(f"{check_id} not run at acceptance scale")
    _verdict(6, "smallest-ball identity and family diameter triple", problems)


def test_criterion_07_dendrogram_round_trip_and_isometry():
    problems = []
    for seed in range(60):
        space = random_space(seed, 1 + seed % 12, POOL)
        if dendrogram_to_space(build_dendrogram(space)).dist != space.dist:
            problems.append(f"round trip broke matrix for seed {seed}")
            break
    pair_count = 0
    for seed in range(50):
        a = random_space(2 * seed, 1 + seed % 6, ("1", "2", "3"))
        b = random_space(2 * seed + 1, 1 + (seed + 3) % 6, ("1", "2", "3"))
        for s1, s2 in ((a, b), (b, a)):
            pair_count += 1
            if are_isometric(s1, s2) != brute_isometric(s1, s2):
                problems.append(f"code vs search disagree on seed pair {seed}")
    if pair_count < 100:
        problems.append(f"only {pair_count} random pairs tested")
    for base_seed, n in ((5, 5), (6, 5), (7, 6)):
        space = random_space(base_seed, n, POOL)
        for perm in permutations(range(n)):
            rows = [
                [space.dist[perm[i]][perm[j]] for j in range(n)] for i in range(n)
            ]
            shuffled = validate_ultrametric(rows)
            if not (are_isometric(space, shuffled) and brute_isometric(space, shuffled)):
                problems.append(f"permutation {perm} of seed {base_seed} not recognized")
                break
    _verdict(7, "round trips and isometry vs brute-force search", problems)


def test_criterion_08_dlps_block():
    problems = []
    fixtures = {
        "finite": dlps_space(points=(1, 2), has_zero=True),
        "zero+tail": dlps_space(has_zero=True, tails=[(1, "1/2")]),
        "bare tail": dlps_space(tails=[(1, "1/2")]),
    }
    # (discrete, metrically discrete, locally finite, boundedly compact,
    #  ballean discrete, ballean has the zero singleton as acc point)
    expected = {
        "finite": (True, True, True, True, True, False),
        "zero+tail": (False, False, False, False, False, True),
        "bare tail": (True, False, False, False, True, False),
    }
    for name, space in fixtures.items():
        report = dlps_ballean_analysis(space)
        got = (
            dlps_is_discrete(space),
            dlps_is_metrically_discrete(space),
            dlps_is_locally_finite(space),
            dlps_is_boundedly_compact(space),
            report.ballean_discrete,
            bool(report.ballean_acc),
        )
        if got != expected[name]:
            problems.append(f"{name}: predicate table {got} != {expected[name]}")
        acc_balls = {b.value for b in report.ballean_acc}
        if acc_balls != set(dlps_acc(space)):
            problems.append(f"{name}: ballean acc balls do not mirror acc points")

        sample = dlps_sample(space, 8, "1/64")
        if find_violation(sample.dist, sample.labels) is not None:
            problems.append(f"{name}: sample fails validation")
            continue
        balls = enumerate_ballean(sample)
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                b1, b2 = balls[i], balls[j]
                u = hausdorff_balls(sample, b1, b2)
                if not (u == hausdorff_by_cases(sample, b1, b2)
                        == hausdorff_oracle(sample, b1.members, b2.members)):
                    problems.append(f"{name}: three-way agreement broke on the sample")
        once = ballean_space(sample)
        twice = ballean_space(once)
        for stage, cand in (("ballean", once), ("iterated", twice)):
            if find_violation(cand.dist, cand.labels) is not None:
                problems.append(f"{name}: {stage} of the sample is not ultrametric")
    _verdict(8, "symbolic max-metric block", problems)


def test_criterion_09_negative_paths():
    problems = []
    cases = [
        ([[0, 1], [2, 0]], "AsymmetricEntry", ["a", "b"]),
        ([[0, 1], [1, 5]], "NonzeroDiagonal", ["b"]),
        ([[0, 0], [0, 0]], "ZeroOffDiagonal", ["a", "b"]),
        ([[0, -1], [-1, 0]], "NegativeEntry", ["a", "b"]),
        ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], "StrongTriangleViolation", ["a", "c", "b"]),
    ]
    for matrix, axiom, witness in cases:
        labels = ["a", "b", "c"][: len(matrix)]
        violation = find_violation(matrix, labels)
        if violation is None or violation.to_json_dict() != {"axiom": axiom, "witness": witness}:
            problems.append(f"{axiom}: got {violation and violation.to_json_dict()}")
    for seed in (42, 77):
        report = probe_q63(TrialConfig(seed=seed, trials=15, max_points=8))
        if report["witnesses"]:
            problems.append(f"probe seed {seed} found impossible witnesses")
        if "no finite witness possible" not in report["conclusion"]:
            problems.append("probe conclusion missing the finite-scale statement")
        if "|ballean| >= n+1" not in report["conclusion"]:
            problems.append("probe conclusion missing the size excess")
    _verdict(9, "violation witnesses and the finite probe", problems)


def test_criterion_10_determinism(tmp_path, capsys):
    problems = []
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        code = cli_main(
            ["verify", "--seed", "42", "--trials", "60", "--max-points", "10",
             "--out", str(path)]
        )
        if code != 0:
            problems.append(f"verify exited {code}")
    reports = []
    for path in paths:
        data = json.loads(path.read_text())
        for entry in data["checks"]:
            entry.pop("elapsed_s", None)
        reports.append(json.dumps(data, sort_keys=True))
    if reports[0] != reports[1]:
        problems.append("reports differ beyond timing fields")
    _verdict(10, "seeded verify runs are identical", problems)


# The seed-42 report without its timings, as sha256 of its sorted JSON.  A
# passing report holds no spaces, so it pins the checks' verdicts and stats,
# not their random streams: the trial spaces are pinned below.
ACCEPTANCE_REPORT_SHA256 = "cbe1772b6230250199b55680dc87d30d703eca631d2ccaae728f57e573672677"


def test_criterion_11_acceptance_report_is_pinned(default_report):
    data = default_report.to_json_dict()
    for entry in data["checks"]:
        del entry["elapsed_s"]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    _verdict(11, "the acceptance report is unchanged", [] if digest == ACCEPTANCE_REPORT_SHA256 else [digest])


# The 200 seed-42 trial spaces, each drawn once and read by every per-space
# check, as sha256 of their JSON forms in trial order: any drift in the
# generator or in the trial stream changes it.
TRIAL_SPACES_SHA256 = "03c5c6ebfdab8a541b9e74c5b2109af94a6a9fbaf63c69585e4ac1a9d67902a1"


def test_criterion_11_trial_spaces_are_pinned(monkeypatch):
    drawn = []

    def recording(*args):
        space = _random_space(*args)
        drawn.append(space_to_json_dict(space))
        return space

    monkeypatch.setattr(harness, "_random_space", recording)
    report = harness.run_suite(harness.TrialConfig())
    digest = hashlib.sha256(json.dumps(drawn, sort_keys=True).encode()).hexdigest()
    problems = [] if report.passed and len(drawn) == 200 else [f"{len(drawn)} spaces drawn"]
    if digest != TRIAL_SPACES_SHA256:
        problems.append(digest)
    _verdict(11, "the acceptance trial spaces are unchanged", problems)
