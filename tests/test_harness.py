import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import ultraball
from oracles import caterpillar
from ultraball.cli import cli_main
from ultraball import harness
from ultraball.core import (
    BadParamsError,
    ConfigError,
    FiniteUltrametricSpace,
    equidistant_space,
    find_violation,
    space_to_json_dict,
    validate_ultrametric,
)
from ultraball.ballean import _family_ranks
from ultraball.dendrogram import _random_space, random_binary_space, random_space
from ultraball.harness import (
    _PER_SPACE_BODIES,
    CHECKS,
    DEFAULT_LEVEL_POOL,
    TrialConfig,
    _enumerate_small_spaces,
    probe_q63,
    run_suite,
)

SMALL = TrialConfig(seed=1, trials=6, max_points=6)


def test_small_suite_passes():
    report = run_suite(SMALL)
    assert report.passed
    assert [c.check_id for c in report.checks] == list(CHECKS)
    for outcome in report.checks:
        assert outcome.trials >= 1
        assert outcome.failures == []


def test_one_point_config_passes_trivially():
    report = run_suite(TrialConfig(seed=1, trials=1, max_points=1))
    assert report.passed


_SUBSTREAM_GRID = [(seed, stream, trial) for seed in (0, 42, -7, 10**30)
                   for stream in ("verify", "H1", "H4", "q63") for trial in range(50)]

# Prints the substreams of the grid on argv with CPython's built-in SHA-256
# modules hidden, so the harness takes its hashlib fallback.
_SUBSTREAMS_VIA_HASHLIB = """
import json, sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
from ultraball import harness
print(json.dumps(["hashlib" in sys.modules, [harness._substream(*key) for key in json.loads(sys.argv[1])]]))
"""


def test_substreams_are_the_first_8_bytes_of_sha256_by_either_import():
    def reference(seed, *parts):
        data = ":".join([str(seed), *map(str, parts)]).encode()
        return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")

    expected = [reference(*key) for key in _SUBSTREAM_GRID]
    assert [harness._substream(*key) for key in _SUBSTREAM_GRID] == expected
    src = str(Path(ultraball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _SUBSTREAMS_VIA_HASHLIB, json.dumps(_SUBSTREAM_GRID)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert json.loads(result.stdout) == [True, expected]


def _timeless(report):
    """A report's JSON form without its timing fields."""
    data = report.to_json_dict()
    for entry in data["checks"]:
        del entry["elapsed_s"]
    return data


def test_reports_are_deterministic():
    a = _timeless(run_suite(SMALL))
    b = _timeless(run_suite(SMALL))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_h5_compares_the_walk_with_the_ball_table_in_order(monkeypatch):
    # The first two balls, both singletons, swapped: the same set of balls in
    # another order than the one `ultraball ballean` writes.
    real = harness._balls

    def swapped(n, merges):
        balls = real(n, merges)
        balls[:2] = balls[1::-1]
        return balls

    monkeypatch.setattr(harness, "_balls", swapped)
    config = TrialConfig(seed=1, trials=12, max_points=8)
    report = run_suite(config)
    failures = report.outcome("H5").failures
    # Every trial space of two or more points fails; a one-point space has one ball.
    assert [f["trial"] for f in failures] == [t for t in range(12) if harness._trial_space(config, "verify", t).n > 1]
    assert {f["detail"] for f in failures} == {"merge-tree node leaf sets differ from the ball table, in order"}
    assert all(outcome.failures == [] for outcome in report.checks if outcome.check_id != "H5")


def test_h5_names_the_2n_minus_1_bound(monkeypatch):
    # One ball too many: the whole space again.
    real = harness.enumerate_ballean
    monkeypatch.setattr(harness, "enumerate_ballean", lambda space: real(space) + real(space)[-1:])
    for seed in range(4):
        for n in (1, 2, 5, 9):
            detail = harness._body_h5(random_binary_space(seed, n), lambda: random.Random(0))
            assert detail == f"{2 * n} balls, over the 2n-1 bound of {2 * n - 1}"
            under = random_space(seed, n, DEFAULT_LEVEL_POOL)
            if len(real(under)) < 2 * n - 1:  # one more is within the bound: the ordered compare fails
                detail = harness._body_h5(under, lambda: random.Random(0))
                assert detail == "merge-tree node leaf sets differ from the ball table, in order"


def test_check_subset_selection():
    report = run_suite(TrialConfig(seed=3, trials=3, max_points=5, checks=("H2", "H5")))
    assert [c.check_id for c in report.checks] == ["H2", "H5"]


def test_config_errors(capsys):
    with pytest.raises(ConfigError):
        run_suite(TrialConfig(trials=0))
    with pytest.raises(ConfigError):
        run_suite(TrialConfig(max_points=0))
    with pytest.raises(ConfigError):
        run_suite(TrialConfig(checks=("H99",)))
    with pytest.raises(BadParamsError):
        random_space(0, 3, ())
    with pytest.raises(BadParamsError):
        random_space(0, 3, ("0",))
    assert cli_main(["probe-q63", "--trials", "0"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_corrupted_replay_space_fails_h2_with_witness():
    corrupted = {"labels": ["a", "b", "c"], "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}
    report = run_suite(
        TrialConfig(seed=1, trials=1, max_points=3, checks=("H2",)),
        replay_spaces=[corrupted],
    )
    assert not report.passed
    failure = report.outcome("H2").failures[0]
    assert "StrongTriangleViolation" in failure["detail"]
    assert "'a'" in failure["detail"] and "'c'" in failure["detail"]
    # the record carries the offending space for replay
    assert failure["space"]["matrix"][0][2] == "3"


def test_failure_record_replays_in_isolation():
    corrupted = {"labels": ["a", "b", "c"], "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}
    first = run_suite(
        TrialConfig(seed=1, trials=1, checks=("H2",)), replay_spaces=[corrupted]
    )
    record = first.outcome("H2").failures[0]
    second = run_suite(
        TrialConfig(seed=99, trials=1, checks=("H2",)), replay_spaces=[record["space"]]
    )
    assert second.outcome("H2").failures[0]["detail"] == record["detail"]


def test_a_replayed_record_keeps_its_trial():
    corrupted = {"labels": ["a", "b", "c"], "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}
    report = run_suite(
        TrialConfig(seed=1, trials=1, checks=("H2",)),
        replay_spaces=[{"trial": 7, "space": corrupted}, {"space": corrupted}, corrupted],
    )
    # A record without a trial, like a bare space, takes its position.
    assert [r["trial"] for r in report.outcome("H2").failures] == [7, 1, 2]
    for trial in ("7", 7.0, True, None):
        with pytest.raises(BadParamsError):
            run_suite(TrialConfig(checks=("H2",)), replay_spaces=[{"trial": trial, "space": corrupted}])


def test_a_replayed_h4_record_draws_the_families_of_its_generated_trial(monkeypatch):
    calls = []

    def recording(space, family):
        calls.append((space_to_json_dict(space), [members for members, _ in family]))
        return _family_ranks(space, family)

    monkeypatch.setattr(harness, "_family_ranks", recording)
    run_suite(TrialConfig(seed=42, trials=5, checks=("H4",)))
    before = len(calls)
    run_suite(TrialConfig(seed=42, trials=6, checks=("H4",)))
    generated = calls[2 * before:]  # trial 5: the first five trials repeat the first run
    assert len(generated) == 50
    calls.clear()
    record = {"trial": 5, "space": generated[0][0]}
    assert run_suite(TrialConfig(seed=42, checks=("H4",)), replay_spaces=[record]).passed
    assert calls == generated


def test_each_check_alone_matches_the_full_suite(monkeypatch):
    # The checks share each trial's space and its caches; none may change
    # what another sees.
    drawn = []

    def counting(*args):
        drawn.append(args)
        return _random_space(*args)

    monkeypatch.setattr(harness, "_random_space", counting)
    config = TrialConfig(seed=3, trials=8, max_points=9)
    full = _timeless(run_suite(config))
    assert len(drawn) == config.trials  # one space per trial, for every check
    for entry in full["checks"]:
        alone = _timeless(run_suite(TrialConfig(seed=3, trials=8, max_points=9, checks=(entry["id"],))))
        assert alone["checks"] == [entry]


def test_each_trial_space_builds_one_ballean(ballean_builds):
    # H1, H2, H7, H11 and H12 share the trial space's ballean; H12 adds the
    # ballean's own.
    config = TrialConfig(seed=3, trials=20, checks=("H1", "H2", "H7", "H11", "H12"))
    assert run_suite(config).passed
    assert len(ballean_builds) == 2 * config.trials
    assert len({id(space) for space in ballean_builds}) == len(ballean_builds)


def test_no_check_builds_a_ball_table_for_a_ballean(ballean_builds):
    # A ballean's rows are read off its base's merges, so the checks read
    # its ranks and its split, never its balls.
    assert run_suite(TrialConfig(seed=3, trials=20)).passed
    balleans = [vars(space)["_ballean"] for space in ballean_builds]
    assert balleans and [b for b in balleans if "ball_table" in vars(b)] == []


def test_h1_and_h4_validate_no_ball_and_compare_fractions_only_along_the_levels(
    checks_and_compares, monkeypatch
):
    # Table balls need no check, and one pass over the levels per space and
    # check ties the order of ranks to the order of distances.
    config = TrialConfig(trials=20, checks=("H1", "H4"))
    spaces = [harness._trial_space(config, "verify", t) for t in range(config.trials)]
    monkeypatch.setattr(harness, "_trial_space", lambda cfg, stream, trial: spaces[trial])
    checks_and_compares.clear()  # drawing a space ranks its levels
    assert run_suite(config).passed
    assert checks_and_compares["require_canonical"] == checks_and_compares["_as_index_tuple"] == 0
    compares = sum(v for name, v in checks_and_compares.items() if name.startswith("Fraction."))
    assert 0 < compares <= 2 * sum(len(space.levels) - 1 for space in spaces)


def test_each_ball_is_scanned_once_per_space(ball_scans):
    assert run_suite(TrialConfig(seed=3, trials=20)).passed
    assert ball_scans
    keys = [(id(space), c, k) for space, c, k in ball_scans]
    assert len(set(keys)) == len(keys)


def test_h3_and_h4_read_every_ball_off_the_table(ball_scans):
    # Their smallest balls are bisected from the table's chains, so no row is scanned.
    assert run_suite(TrialConfig(trials=20, checks=("H3", "H4"))).passed
    assert ball_scans == []


def test_repeated_checks_run_once(capsys):
    config = TrialConfig(seed=1, trials=2, max_points=4, checks=("H2", "H1", "H2", "H8", "H1"))
    assert config.selected_checks() == ("H2", "H1", "H8")
    report = run_suite(config)
    assert [c.check_id for c in report.checks] == ["H2", "H1", "H8"]
    assert [c.trials for c in report.checks] == [2, 2, 8]
    assert cli_main(["verify", "--trials", "2", "--checks", "H1,H1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["config"]["checks"] == ["H1"] and [c["id"] for c in out["checks"]] == ["H1"]


def _corrupted_corpus(count=60, seed=7):
    """Seeded 3- to 5-point spaces, each with one symmetric pair of distances
    moved to another level of the pool."""
    corpus = []
    for k in range(count):
        rng = random.Random(seed * 1000 + k)
        n = rng.randint(3, 5)
        data = space_to_json_dict(random_space(rng.getrandbits(32), n, DEFAULT_LEVEL_POOL))
        i, j = rng.sample(range(n), 2)
        old = data["matrix"][i][j]
        new = rng.choice([str(v) for v in DEFAULT_LEVEL_POOL if str(v) != old])
        data["matrix"][i][j] = data["matrix"][j][i] = new
        corpus.append(data)
    return corpus


_REPLAY_UNDER_O = """
import json, sys
from ultraball.harness import TrialConfig, run_suite
report = run_suite(TrialConfig(seed=1, trials=1), replay_spaces=json.load(sys.stdin)).to_json_dict()
for entry in report["checks"]:
    del entry["elapsed_s"]
print(json.dumps({"optimize": sys.flags.optimize, "report": report}))
"""


def test_replay_report_unchanged_under_python_O():
    # The invariants the checks rely on must not live in bare asserts.
    corpus = _corrupted_corpus()
    config = TrialConfig(seed=1, trials=1)
    expected = _timeless(run_suite(config, replay_spaces=corpus))
    assert expected["status"] == "fail"
    src = str(Path(ultraball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _REPLAY_UNDER_O],
        input=json.dumps(corpus), capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    out = json.loads(result.stdout)
    assert out["optimize"] == 1
    assert out["report"] == expected


def _invalid_detail(data):
    return f"input space invalid: {find_violation(data['matrix'], data['labels']).to_json_dict()}"


def test_invalid_corpus_spaces_fail_every_per_space_check():
    corpus = _corrupted_corpus()
    invalid = [t for t, d in enumerate(corpus) if find_violation(d["matrix"], d["labels"])]
    assert len(invalid) == 51
    report = run_suite(TrialConfig(seed=1, trials=1), replay_spaces=corpus)
    runs = {}
    for outcome in report.checks:
        if outcome.check_id in _PER_SPACE_BODIES:
            for record in outcome.failures:
                runs[outcome.check_id, record["trial"]] = record["detail"]
    # 510 of 510 runs on invalid spaces fail, each with its space's own
    # first violation; the 9 valid spaces pass every check.
    assert runs == {(c, t): _invalid_detail(corpus[t]) for c in _PER_SPACE_BODIES for t in invalid}


# One matrix per axiom, each breaking only that one.
AXIOM_MATRICES = {
    "AsymmetricEntry": [[0, 3], ["3/2", 0]],
    "NonzeroDiagonal": [[1, 2], [2, 0]],
    "NegativeEntry": [[0, -1], [-1, 0]],
    "ZeroOffDiagonal": [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    "StrongTriangleViolation": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
}


def _axiom_space(axiom):
    matrix = AXIOM_MATRICES[axiom]
    return {"labels": ["a", "b", "c"][: len(matrix)], "matrix": matrix}


@pytest.mark.parametrize("axiom", list(AXIOM_MATRICES))
def test_invalid_replay_fails_each_check_with_the_validate_witness(axiom, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_axiom_space(axiom)))
    assert cli_main(["validate", str(path)]) == 1
    witness = json.loads(capsys.readouterr().out)
    assert witness["axiom"] == axiom
    subsets = [[c] for c in _PER_SPACE_BODIES] + [["H2", "H5", "H6", "H12"], list(CHECKS)]
    for checks in subsets:
        assert cli_main(["verify", "--replay", str(path), "--checks", ",".join(checks)]) == 1
        report = json.loads(capsys.readouterr().out)
        for outcome in report["checks"]:
            if outcome["id"] in _PER_SPACE_BODIES:
                (record,) = outcome["failures"]
                assert record["detail"] == f"input space invalid: {witness}"
    # H8 and H10 do not read replayed spaces, so the violation is the error.
    for checks in ("H8", "H10", "H8,H10"):
        assert cli_main(["verify", "--replay", str(path), "--checks", checks]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "UltrametricViolation"
        assert {"axiom": error["axiom"], "witness": error["witness"]} == witness


def test_no_check_body_runs_on_an_invalid_replay(monkeypatch):
    called = []

    def raising(space, rng):
        called.append(space.labels)
        raise AssertionError("body ran")

    for check_id in _PER_SPACE_BODIES:
        monkeypatch.setitem(harness._PER_SPACE_BODIES, check_id, raising)
    good = {"labels": ["x", "y"], "matrix": [[0, 1], [1, 0]]}
    spaces = [_axiom_space(axiom) for axiom in AXIOM_MATRICES] + [good]
    report = run_suite(TrialConfig(seed=1, trials=1), replay_spaces=spaces)
    assert called == [("x", "y")] * len(_PER_SPACE_BODIES)  # the patch took, on the valid space only
    for check_id in _PER_SPACE_BODIES:
        details = [r["detail"] for r in report.outcome(check_id).failures]
        assert details == [_invalid_detail(d) for d in spaces[:-1]] + ["AssertionError: body ran"]


def test_a_crashing_check_fails_on_its_space_and_the_run_goes_on(monkeypatch):
    # A KeyError, as a misordered ball walk once raised inside H2, fails that
    # check on that space with a record to replay; the other checks still run.
    def crashing(space, rng):
        raise KeyError((8,))

    monkeypatch.setitem(harness._PER_SPACE_BODIES, "H2", crashing)
    report = run_suite(TrialConfig(seed=1, trials=3, max_points=5, checks=("H2", "H5")))
    failures = report.outcome("H2").failures
    assert [(f["trial"], f["detail"]) for f in failures] == [(t, "KeyError: (8,)") for t in range(3)]
    assert all("space" in f for f in failures)
    assert report.outcome("H5").failures == []


def test_crashing_h8_and_h10_instances_fail_and_the_others_still_run(monkeypatch):
    # Each failure keeps its record: H8's trial, space and n, H10's fixture and dlps.
    real_isometric, real_sample = harness.are_isometric, harness.dlps_sample

    def isometric(s1, s2):
        if s1.n == 3:
            raise AssertionError("three points")
        return real_isometric(s1, s2)

    def sample(space, n, cut):
        if space.tails:
            raise ValueError("a tail")
        return real_sample(space, n, cut)

    monkeypatch.setattr(harness, "are_isometric", isometric)
    monkeypatch.setattr(harness, "dlps_sample", sample)
    report = run_suite(TrialConfig(checks=("H8", "H10")))
    h8, h10 = report.outcome("H8"), report.outcome("H10")
    assert h8.trials == 20 and h10.trials == 4
    assert h8.failures == [
        {"trial": trial, "detail": "AssertionError: three points",
         "space": space_to_json_dict(equidistant_space(3, t)), "n": 3}
        for trial, t in ((4, 1), (5, Fraction(3, 2)))
    ]
    assert h10.failures == [
        {"trial": name, "detail": "ValueError: a tail", "dlps": space.to_json_dict()}
        for name, space in harness._dlps_fixtures() if space.tails
    ]
    # An instance whose space cannot be built fails too, with no space to record.
    def equidistant(n, t):
        if n == 2:
            raise ValueError("two points")
        return equidistant_space(n, t)

    monkeypatch.setattr(harness, "equidistant_space", equidistant)
    failures = run_suite(TrialConfig(checks=("H8",))).outcome("H8").failures
    assert [(f["trial"], f["detail"], "space" in f) for f in failures] == [
        (2, "ValueError: two points", False), (3, "ValueError: two points", False),
        (4, "AssertionError: three points", True), (5, "AssertionError: three points", True),
    ]


def test_h11_scans_every_corpus_space():
    # A valid corpus space passes H11, and an invalid one fails with its violation.
    report = run_suite(TrialConfig(seed=1, trials=1, checks=("H11",)), replay_spaces=_corrupted_corpus())
    failures = report.outcome("H11").failures
    assert report.outcome("H11").trials == 60 and 0 < len(failures) < 60
    assert all(f["detail"].startswith("input space invalid: ") for f in failures)


def test_valid_replay_space_passes():
    good = space_to_json_dict(validate_ultrametric([[0, 1], [1, 0]], ["a", "b"]))
    report = run_suite(TrialConfig(seed=1, trials=1, checks=("H1", "H2")), replay_spaces=[good])
    assert report.passed


def test_h2_and_h12_replay_a_120_point_space_quickly():
    # The two balleans here have 239 and 358 points, where a cubic
    # validation scan takes seconds.
    data = space_to_json_dict(random_binary_space(0, 120))
    start = time.perf_counter()
    report = run_suite(TrialConfig(seed=1, trials=1, checks=("H2", "H12")), replay_spaces=[data])
    assert time.perf_counter() - start < 2
    assert report.passed


def test_h3_replays_a_240_point_space_quickly():
    # Each smallest ball is bisected from the ball table's chains, not scanned per pair of balls.
    data = space_to_json_dict(random_binary_space(0, 240))
    start = time.perf_counter()
    report = run_suite(TrialConfig(seed=1, trials=1, checks=("H3",)), replay_spaces=[data])
    assert time.perf_counter() - start < 1
    assert report.passed


def test_h3_on_a_240_point_caterpillar_keeps_the_table_balls():
    # d(i, j) = max(i, j): 479 balls, and about 29k distinct (center, rank)
    # smallest-ball queries.  Each is answered with the ball table's own ball,
    # bisected from the center's chain, not with a copy of its members.
    start = time.perf_counter()
    assert harness._body_h3(caterpillar(240), lambda: random.Random(0)) is None
    assert time.perf_counter() - start < 2.2
    space = caterpillar(240)
    tracemalloc.start()
    try:
        assert harness._body_h3(space, lambda: random.Random(0)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_report_json_shape():
    report = run_suite(TrialConfig(seed=2, trials=2, max_points=4, checks=("H1",)))
    data = report.to_json_dict()
    assert data["status"] == "pass"
    assert data["config"]["seed"] == 2
    entry = data["checks"][0]
    assert set(entry) == {"id", "claim", "trials", "failures", "stats", "elapsed_s"}


def test_enumerate_small_spaces_all_valid():
    from ultraball.core import find_violation

    spaces = _enumerate_small_spaces()
    assert any(s.n == 4 for s in spaces)
    for s in spaces:
        assert find_violation(s.dist, s.labels) is None


def test_probe_q63_one_point():
    report = probe_q63(TrialConfig(seed=5, trials=2, max_points=1))
    assert report["one_point_space_isometric"] is True
    assert report["witnesses"] == []


def test_probe_q63_never_finds_witness():
    report = probe_q63(TrialConfig(seed=5, trials=20, max_points=7))
    assert report["witnesses"] == []
    assert report["ballean_excess_verified"] > 0
    assert "no finite witness possible" in report["conclusion"]
    assert "|ballean| >= n+1" in report["conclusion"]


def test_probe_q63_draws_its_random_spaces_one_at_a_time():
    # Each space keeps its ball table and ballean, so a list of all of them
    # peaked near 17 MB here.
    tracemalloc.start()
    try:
        report = probe_q63(TrialConfig(seed=1, trials=2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["random_instances"] == 2000 and report["witnesses"] == []
    assert peak < 4_000_000


def test_probe_q63_builds_no_ball_table(monkeypatch):
    # The ballean has one point per ball, so its size is the ball count.
    prop = FiniteUltrametricSpace.__dict__["ball_table"]
    built, build = [], prop.func
    monkeypatch.setattr(prop, "func", lambda space: built.append(space) or build(space))
    report = probe_q63(TrialConfig(trials=50))
    assert report["ballean_excess_verified"] > 50 and report["witnesses"] == []
    assert built == []


def test_probe_q63_schema_with_empty_search():
    report = probe_q63(TrialConfig(seed=5, trials=1, max_points=1))
    assert set(report) == {
        "config",
        "exhaustive_instances",
        "random_instances",
        "ballean_excess_verified",
        "one_point_space_isometric",
        "witnesses",
        "conclusion",
    }
