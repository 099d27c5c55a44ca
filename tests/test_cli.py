import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ballean_space_pairwise_reference, caterpillar, iterate_ballean_pairwise_reference
from ultraball.ballean import _ballean_tower, ballean_space, enumerate_ballean
from ultraball.cli import _emit, build_parser, cli_main
import ultraball
from ultraball import dendrogram, harness
from ultraball.core import (
    MalformedTreeError,
    equidistant_space,
    find_violation,
    space_from_json_dict,
    space_to_json_dict,
)
from ultraball.dendrogram import Dendrogram, Leaf, Merge, build_dendrogram, random_binary_space, random_space
from ultraball.dlps import SAMPLE_MATRIX_CHARS, dlps_from_json_dict, dlps_sample
from ultraball.harness import CHECKS

SPACE = {"labels": ["a", "b", "c"], "matrix": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]}
BAD = {"labels": ["a", "b", "c"], "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}
DLPS = {"points": [], "zero": True, "tails": [{"first": "1", "ratio": "1/2"}]}
# Two tails that meet only at exponents 200**2 and 200*199.
MEETING_DEEP = {"tails": [{"first": "1", "ratio": f"2/{3**199}"},
                          {"first": str(2**200), "ratio": f"2/{3**200}"}]}
# Shaped like a dlps-symbolic workload presentation: three tails of ratio
# (m-1)/m near 1, and points just off them at exponents 200 to 650.
NEAR_ONE_TAILS = [(Fraction(p, 100), Fraction(m - 1, m)) for p, m in ((101, 90), (107, 92), (113, 94))]
NEAR_ONE = {
    "points": [str(f * r**k * Fraction(1008, 1009)) for (f, r), k in zip(NEAR_ONE_TAILS, (200, 350, 650))],
    "zero": True,
    "tails": [{"first": str(f), "ratio": str(r)} for f, r in NEAR_ONE_TAILS],
}


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(SPACE))
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD))
    return str(path)


@pytest.fixture
def dlps_file(tmp_path):
    path = tmp_path / "dlps.json"
    path.write_text(json.dumps(DLPS))
    return str(path)


def test_validate_ok(space_file, capsys):
    assert cli_main(["validate", space_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": True, "points": 3, "labels": ["a", "b", "c"]}


def test_validate_bad_prints_witness(bad_file, capsys):
    assert cli_main(["validate", bad_file]) == 1
    captured = capsys.readouterr()
    witness = {"axiom": "StrongTriangleViolation", "witness": ["a", "c", "b"]}
    assert captured.out == json.dumps(witness, indent=2) + "\n"
    assert json.loads(captured.err) == {
        "error": "UltrametricViolation", "message": "StrongTriangleViolation at ('a', 'c', 'b')", **witness
    }


def test_ballean_output(space_file, capsys):
    assert cli_main(["ballean", space_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["balls"] == [["a"], ["b"], ["c"], ["a", "b"], ["a", "b", "c"]]
    assert out["hausdorff"][0][1] == "1"
    assert out["hausdorff"][3][4] == "2"


def test_ballean_iterated_and_out_file(space_file, tmp_path, capsys):
    target = tmp_path / "ballean.json"
    assert cli_main(["ballean", space_file, "--iterate", "2", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    # ballean of the 5-point ballean space: 5 singletons, {a,b,a+b}, everything
    assert len(data["balls"]) == 7


def test_ballean_out_file_pinned(tmp_path):
    source = tmp_path / "four.json"
    source.write_text(json.dumps({
        "labels": ["a", "b", "c", "d"],
        "matrix": [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, "3/2"], [2, 2, "3/2", 0]],
    }))
    target = tmp_path / "ballean.json"
    assert cli_main(["ballean", str(source), "--out", str(target)]) == 0
    expected = {
        "balls": [["a"], ["b"], ["c"], ["d"], ["a", "b"], ["c", "d"], ["a", "b", "c", "d"]],
        "hausdorff": [
            ["0", "1", "2", "2", "1", "2", "2"],
            ["1", "0", "2", "2", "1", "2", "2"],
            ["2", "2", "0", "3/2", "2", "3/2", "2"],
            ["2", "2", "3/2", "0", "2", "3/2", "2"],
            ["1", "1", "2", "2", "0", "2", "2"],
            ["2", "2", "3/2", "3/2", "2", "0", "2"],
            ["2", "2", "2", "2", "2", "2", "0"],
        ],
    }
    assert target.read_text() == json.dumps(expected, indent=2) + "\n"


# Labels with quotes, backslashes, a newline and non-ASCII text, a one-point
# space, a label that collides with a "+"-joined ball label, a deep tree, a
# node with 30 children and wide nodes at several levels.
BALLEAN_INPUTS = [
    SPACE,
    {"labels": ['q"x', "b\\s", "\u00e9", "\u65e5\u672c", "x\ny"],
     "matrix": [[0, 1, 3, 3, 2], [1, 0, 3, 3, 2], [3, 3, 0, "1/2", 3],
                [3, 3, "1/2", 0, 3], [2, 2, 3, 3, 0]]},
    {"labels": ["solo"], "matrix": [[0]]},
    {"labels": ["a", "b", "a+b"], "matrix": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]},
    space_to_json_dict(random_binary_space(3, 12)),
    space_to_json_dict(random_space(5, 10, ("1", "3/2", "2", "3"))),
    space_to_json_dict(caterpillar(60)),
    space_to_json_dict(equidistant_space(30, 1)),
    space_to_json_dict(random_space(7, 40, ("1", "3/2", "2", "3"))),
]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("data", BALLEAN_INPUTS)
def test_ballean_from_the_tree_writes_the_matrix_route_text(data, k, tmp_path, capsys):
    base = iterate_ballean_pairwise_reference(space_from_json_dict(data), k - 1)
    payload = {
        "balls": [[base.labels[m] for m in b.members] for b in enumerate_ballean(base)],
        "hausdorff": space_to_json_dict(ballean_space_pairwise_reference(base))["matrix"],
    }
    expected = json.dumps(payload, indent=2) + "\n"
    source, target = tmp_path / "space.json", tmp_path / "ballean.json"
    source.write_text(json.dumps(data))
    assert cli_main(["ballean", str(source), "--iterate", str(k)]) == 0
    assert capsys.readouterr().out == expected
    assert cli_main(["ballean", str(source), "--iterate", str(k), "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("payload", [
    {},
    {"matrix": []},
    {"matrix": [[]], "labels": ["a"]},
    {"matrix": [["\"", "\\"], [], ["\u00e9\u65e5", "\n"]], "n": 3},
    {"mixed": [["1", 2]], "tuples": [("a",)], "nested": [[["a"]]], "deep": {"x": [["1"]]}},
    {"strings": ["a", "b"], "none": None, "flag": True, "empty": {}},
])
def test_emit_writes_what_json_dumps_writes(payload, tmp_path, capsys):
    expected = json.dumps(payload, indent=2) + "\n"
    _emit(payload, None)
    assert capsys.readouterr().out == expected
    _emit(payload, str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == expected


def test_emit_writes_a_pair_as_the_lists_its_index_rows_pick(capsys):
    strings = ['"q"', "b\\s", "\u00e9", "x\ny"]
    rows = [(0,), (3, 1), (2, 2, 0)]
    _emit({"n": 1, "pair": (strings, rows)}, None)
    picked = [[strings[i] for i in r] for r in rows]
    assert capsys.readouterr().out == json.dumps({"n": 1, "pair": picked}, indent=2) + "\n"
    # Rows of JSON text, as `ballean` writes its matrix: one 1-cell row for a 1-ball space.
    for space in (equidistant_space(1, 1), random_binary_space(0, 5)):
        cells = [json.dumps(str(level)) for level in space.levels]
        _, _, text_rows = _ballean_tower(space, 1, cells)
        _emit({"pair": (None, text_rows)}, None)
        matrix = [[str(space.levels[k]) for k in row] for row in ballean_space(space).ranks]
        assert capsys.readouterr().out == json.dumps({"pair": matrix}, indent=2) + "\n"


def test_ballean_iterate_3_on_200_points_is_fast(tmp_path, capsys):
    # 0.09-0.12 s on a 2-vCPU machine (0.11-0.16 s when the last step built
    # the ballean tree), where the matrix route took 1.7-1.9 s.
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_to_json_dict(random_binary_space(0, 200))))
    start = time.perf_counter()
    assert cli_main(["ballean", str(path), "--iterate", "3"]) == 0
    elapsed = time.perf_counter() - start
    assert len(json.loads(capsys.readouterr().out)["balls"]) == 200 + 3 * 199
    assert elapsed < 1.2


def test_ballean_iterate_cap(space_file):
    assert cli_main(["ballean", space_file, "--iterate", "9"]) == 1


def test_running_out_of_memory_is_a_structured_error(space_file, monkeypatch, capsys):
    # `ballean --iterate 3` on caterpillar(300) writes labels that grow with
    # each level, past a 1.5 GB address space; the writer raises instead.
    def exhausted(payload, out):
        raise MemoryError

    monkeypatch.setattr("ultraball.cli._emit", exhausted)
    assert cli_main(["ballean", space_file, "--iterate", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "MemoryError", "message": ""}


def test_hausdorff_example(space_file, capsys):
    assert cli_main(["hausdorff", space_file, "--ball", "a,b", "--ball", "c"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_hausdorff_foreign_ball(space_file, capsys):
    # {a, c} is not a ball of this space
    assert cli_main(["hausdorff", space_file, "--ball", "a,c", "--ball", "b"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ForeignBallError"


def test_hausdorff_unknown_label_is_bad_params(space_file, capsys):
    assert cli_main(["hausdorff", space_file, "--ball", "a,zz", "--ball", "c"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadParamsError"
    assert "'zz'" in err["message"]


def test_smallest_ball(space_file, capsys):
    assert cli_main(["smallest-ball", space_file, "--subset", "a,c"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"members": ["a", "b", "c"], "diameter": "2"}


def test_tree(space_file, capsys):
    assert cli_main(["tree", space_file]) == 0
    assert capsys.readouterr().out.strip() == "(2 (1 a b) c)"


def test_tree_and_isometric_on_a_400_deep_tree(tmp_path, capsys):
    # The tree is 399 levels deep; validating each file is O(n^2).
    path = tmp_path / "caterpillar.json"
    path.write_text(json.dumps(space_to_json_dict(caterpillar(400))))
    assert cli_main(["tree", str(path)]) == 0
    assert capsys.readouterr().out.startswith("(399 (398 (397 ")
    assert cli_main(["isometric", str(path), str(path)]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_tree_commands_split_each_input_once(space_file, tmp_path, split_calls, capsys, monkeypatch):
    # Validation builds the merge tree; tree, ballean and isometric reuse it.
    # Ball labels are built only for a tree that a tower extends.
    labelled = []
    ball_labels = dendrogram.ball_labels
    monkeypatch.setattr(dendrogram, "ball_labels", lambda *a: labelled.append(a) or ball_labels(*a))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**SPACE, "labels": ["x", "y", "z"]}))
    for argv, inputs, labels in [
        (["tree", space_file], 1, 0),
        (["ballean", space_file], 1, 0),
        (["ballean", space_file, "--iterate", "2"], 1, 1),
        (["isometric", space_file, str(other)], 2, 0),
    ]:
        split_calls.clear()
        labelled.clear()
        assert cli_main(argv) == 0
        assert (len(split_calls), len(labelled)) == (inputs, labels)
    capsys.readouterr()


def _workload_shaped_inputs(folder):
    """Space files shaped like the large-spaces workload's, written into
    folder: a 48-point binary space, a 64-point default-pool space, a
    relabelled permutation of the first, the second with the level 3/2 moved
    to 7/4 (still ultrametric, not isometric), and the first with one pair
    raised above every distance, early and late."""
    binary = space_to_json_dict(random_binary_space(5, 48))
    shallow = space_to_json_dict(random_space(6, 64, harness.DEFAULT_LEVEL_POOL))
    perm = list(range(47, -1, -1))
    files = {
        "binary": binary,
        "shallow": shallow,
        "perm": {"labels": [f"q{k}" for k in range(48)],
                 "matrix": [[binary["matrix"][a][b] for b in perm] for a in perm]},
        "bumped": {**shallow, "matrix": [["7/4" if v == "3/2" else v for v in row] for row in shallow["matrix"]]},
    }
    for name, (i, j) in (("early", (2, 40)), ("late", (46, 47))):
        matrix = [row[:] for row in binary["matrix"]]
        matrix[i][j] = matrix[j][i] = "48"
        files[name] = {**binary, "matrix": matrix}
    for name, data in files.items():
        (folder / f"{name}.json").write_text(json.dumps(data))
    return [f"{name}.json" for name in files]


# Runs each argument as one `ultraball` command line and prints the optimize
# flag and one sha256 over every command's exit code, stdout and stderr.
_DIGEST = """
import contextlib, hashlib, io, sys
from ultraball.cli import cli_main
digest = hashlib.sha256()
for line in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(line.split())
    digest.update(f"{line}\\0{code}\\0{out.getvalue()}\\0{err.getvalue()}\\n".encode())
print(sys.flags.optimize, digest.hexdigest())
"""


# Runs `ultraball` commands in one process, their output dropped, and prints
# which of hashlib and OpenSSL's _hashlib were imported by the end.
_HASHLIB_LOADED = """
import contextlib, io, sys
import ultraball
from ultraball.cli import cli_main
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        print(line, cli_main(line.split()), file=sys.__stdout__)
print(sorted({"hashlib", "_hashlib"} & sys.modules.keys()))
"""


def test_no_command_imports_hashlib(tmp_path):
    # A subprocess, since pytest and Hypothesis may import hashlib themselves.
    (tmp_path / "space.json").write_text(json.dumps(SPACE))
    (tmp_path / "dlps.json").write_text(json.dumps(DLPS))
    lines = ["validate space.json", "tree space.json", "isometric space.json space.json",
             "ballean space.json", "dlps sample dlps.json -n 4 --cut 1/8", "verify --trials 2"]
    src = str(Path(ultraball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _HASHLIB_LOADED, *lines], capture_output=True, text=True,
                         cwd=tmp_path, env=env, timeout=120, check=True).stdout
    assert out == "".join(f"{line} 0\n" for line in lines) + "[]\n"


def test_space_commands_print_the_same_bytes_with_and_without_python_O(tmp_path):
    # The digest was taken from the commit before the space's split recorded
    # merges instead of building a tree, so it pins that commit's bytes.
    files = _workload_shaped_inputs(tmp_path)
    lines = [f"{command} {name}" for command in ("validate", "tree") for name in files]
    lines += ["isometric binary.json perm.json", "isometric shallow.json bumped.json",
              "isometric binary.json shallow.json", "isometric perm.json early.json"]
    lines += [f"ballean {name} --iterate {k}" for name in ("binary.json", "shallow.json") for k in (1, 2, 3)]
    src = str(Path(ultraball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    digests = [
        subprocess.run([sys.executable, *flag, "-c", _DIGEST, *lines], capture_output=True, text=True,
                       cwd=tmp_path, env=env, timeout=120, check=True).stdout.split()
        for flag in ([], ["-O"])
    ]
    want = "7cdce89757417f367203ee74984eb07dd1b1a67fb0ed893712f5fb81102f431a"
    assert digests == [["0", want], ["1", want]]


def test_validation_and_the_space_commands_build_no_tree_nodes(tmp_path, monkeypatch, capsys):
    built = []
    for cls in (Leaf, Merge, Dendrogram):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=init: built.append(self) or _init(self, *args))
    files = _workload_shaped_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    data = json.loads(Path("binary.json").read_text())
    late = json.loads(Path("late.json").read_text())
    assert space_from_json_dict(data).n == 48
    assert find_violation(data["matrix"], data["labels"]) is None
    assert find_violation(late["matrix"], late["labels"]).witness == (46, 47, 0)
    for argv in (["validate", "binary.json"], ["validate", "late.json"], ["isometric", "binary.json", "perm.json"],
                 ["ballean", "binary.json", "--iterate", "1"], ["ballean", "binary.json", "--iterate", "3"],
                 ["tree", "binary.json"]):
        assert cli_main(argv) in (0, 1)
    assert built == []
    assert build_dendrogram(space_from_json_dict(data)).n == 48 and len(built) == 1 + 48 + 47
    capsys.readouterr()


def test_ballean_towers_check_no_tree_they_build(tmp_path, monkeypatch, capsys):
    # The trees of `ballean --iterate` are merge trees by construction; a
    # hand-built tree passed to ballean_tree is still checked, and refused.
    checked = []
    fold = dendrogram._fold
    monkeypatch.setattr(dendrogram, "_fold", lambda d, *rest: checked.append(d) or fold(d, *rest))
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_to_json_dict(random_binary_space(7, 48))))
    assert cli_main(["ballean", str(path), "--iterate", "3"]) == 0
    assert checked == []
    capsys.readouterr()
    unary = Merge(2, (Merge(1, (Leaf(0), Leaf(1))),))
    with pytest.raises(MalformedTreeError, match="at least two children"):
        dendrogram.ballean_tree(Dendrogram(unary, ("a", "b")))
    assert len(checked) == 1


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_main_builds_its_parser_once(space_file, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    build_parser.cache_clear()
    assert _run(["validate", space_file])[0] == 0
    assert built  # the top parser and its sub-parsers
    first = len(built)
    for argv in (["validate", space_file], ["tree", space_file], ["ballean", space_file]) * 4:
        assert _run(argv)[0] == 0
    assert len(built) == first


def test_a_shared_parser_carries_nothing_from_call_to_call(space_file):
    # --ball appends to a list: a list left over from the first call would
    # make the second one see three balls, or pass with one.
    sequence = [
        ["hausdorff", space_file, "--ball", "a,b", "--ball", "c"],
        ["hausdorff", space_file, "--ball", "a,b"],
        ["hausdorff", space_file, "--ball", "c", "--ball", "a,b"],
        ["ballean", space_file, "--iterate"],
        ["--help"],
        ["validate", space_file],
        ["hausdorff", space_file, "--ball", "a"],
        ["ballean", space_file, "--iterate", "4"],
        ["dlps", "sample", "--help"],
        ["hausdorff", space_file, "--ball", "a,b", "--ball", "c"],
    ]
    alone = []
    for argv in sequence:
        build_parser.cache_clear()
        alone.append(_run(argv))
    interleaved = [_run(argv) for argv in sequence]
    assert interleaved == alone
    assert [code for code, _, _ in alone] == [0, 1, 0, 2, 0, 0, 1, 1, 0, 0]
    assert json.loads(alone[1][2])["message"] == "give --ball exactly twice"
    assert json.loads(alone[6][2])["message"] == "give --ball exactly twice"


@pytest.fixture(scope="module")
def caterpillar_1000(tmp_path_factory):
    path = tmp_path_factory.mktemp("deep") / "caterpillar.json"
    path.write_text(json.dumps(space_to_json_dict(caterpillar(1000))))
    return str(path)


@pytest.mark.parametrize("command", ["tree", "ballean", "isometric"])
def test_tree_commands_answer_on_a_999_deep_tree(command, caterpillar_1000, capsys):
    argv = [command, caterpillar_1000] + ([caterpillar_1000] if command == "isometric" else [])
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    if command == "tree":
        assert out.startswith("(999 (998 ")
    elif command == "isometric":
        assert out.strip() == "true"
    else:  # the 4M-cell matrix is left unparsed
        head = out[: out.index('"hausdorff"')].rstrip().rstrip(",")
        assert len(json.loads(head + "}")["balls"]) == 2 * 1000 - 1


def test_verify_replays_h5_on_a_999_deep_space(caterpillar_1000, capsys):
    assert cli_main(["verify", "--checks", "H5", "--replay", caterpillar_1000]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_hausdorff_on_a_999_deep_space(caterpillar_1000, capsys):
    # Resolving the balls builds the ball table, which must stay quadratic on
    # a 999-deep tree.
    start = time.perf_counter()
    assert cli_main(["hausdorff", caterpillar_1000, "--ball", "p0", "--ball", "p1"]) == 0
    assert time.perf_counter() - start < 3
    assert capsys.readouterr().out.strip() == "1"


def test_isometric(space_file, tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(
        json.dumps({"labels": ["x", "y", "z"], "matrix": [[0, 2, 2], [2, 0, 1], [2, 1, 0]]})
    )
    assert cli_main(["isometric", space_file, str(other)]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_dlps_analyze(dlps_file, capsys):
    assert cli_main(["dlps", "analyze", dlps_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["discrete"] is False
    assert out["boundedly_compact"] is False
    assert out["accumulation_points"] == ["0"]
    assert out["ballean"]["accumulation_balls"] == ["0"]


def test_dlps_sample(dlps_file, tmp_path, capsys):
    target = tmp_path / "sampled.json"
    assert cli_main(["dlps", "sample", dlps_file, "-n", "4", "--cut", "1/8", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    assert list(data) == ["labels", "matrix"]
    assert data["labels"] == ["0", "1/4", "1/2", "1"]
    # Written from ranks, the text is what json.dumps writes for the space.
    sample = dlps_sample(dlps_from_json_dict(DLPS), 4, "1/8")
    expected = json.dumps(space_to_json_dict(sample), indent=2) + "\n"
    assert target.read_text(encoding="utf-8") == expected
    assert cli_main(["dlps", "sample", dlps_file, "-n", "4", "--cut", "1/8"]) == 0
    assert capsys.readouterr().out == expected
    # the emitted space round-trips through validate
    assert cli_main(["validate", str(target)]) == 0


@pytest.mark.parametrize("command", ["analyze", "sample"])
@pytest.mark.parametrize(
    "doc",
    [
        [DLPS],  # a list where the object belongs
        {"points": "12"},  # a string is not a list of points
        {"points": [1], "zero": "no"},  # a string is not a boolean
        {"tails": [["1", "1/2"]]},  # a tail must be an object
        {"points": ["1"], "zero": True, "tail": [{"first": "1/2", "ratio": "1/2"}]},  # misspelt "tails"
        {"tails": [{"first": "1/2", "ratio": "1/2", "last": "1/8"}]},  # a tail key of no meaning
        {"points": ["0"]},  # 0 is given as "zero", not as a point
        {"tails": [{"first": "0", "ratio": "1/2"}]},  # a tail must start above 0
        {"tails": [{"first": "1/2"}]},  # a tail without its ratio
    ],
)
def test_dlps_malformed_json_is_bad_params(command, doc, tmp_path, capsys):
    path = tmp_path / "dlps.json"
    path.write_text(json.dumps(doc))
    extra = ["-n", "3", "--cut", "1/8"] if command == "sample" else []
    assert cli_main(["dlps", command, str(path), *extra]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadParamsError"


def test_dlps_analyze_ratio_near_one_is_fast(tmp_path, capsys):
    # Building the space asks whether 1 lies on a tail of about 13.8M terms
    # above it.
    doc = {"points": ["1"], "tails": [{"first": "1000000", "ratio": "999999/1000000"}]}
    path = tmp_path / "dlps.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli_main(["dlps", "analyze", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["locally_finite"] is False


@pytest.mark.parametrize(
    "doc, n, cut",
    [
        # Term 1000 has a 6,001-digit denominator.
        ({"tails": [{"first": "1", "ratio": "999999/1000000"}]}, "1000", "1/2"),
        # About 20.7M terms lie above the cut.
        ({"points": ["1"], "tails": [{"first": "1000000", "ratio": "999999/1000000"}]},
         "100000000", "1/1000"),
    ],
)
def test_dlps_sample_of_terms_that_cannot_print_is_refused_fast(doc, n, cut, tmp_path, capsys):
    path = tmp_path / "dlps.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli_main(["dlps", "sample", str(path), "-n", n, "--cut", cut]) == 1
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().err)["error"] == "BadParamsError"


@pytest.mark.parametrize(
    "doc, cut, message",
    [
        # At the default digit limit each tail stops at a term that cannot
        # print, which the sample keeps; with no limit, about 19,000 terms lie above the cut.
        (NEAR_ONE, "1/" + "9" * 30, None),
        # 14,001 terms of up to 4,215 digits: about 5 * 10**11 characters of matrix.
        ({"tails": [{"first": "1", "ratio": "1/2"}]}, f"1/{2**14000}",
         f"the sampled matrix could print over {SAMPLE_MATRIX_CHARS} characters"),
    ],
    ids=["near-one", "halves"],
)
def test_dlps_sample_that_cannot_be_held_is_refused_fast(doc, cut, message, tmp_path, capsys):
    path = tmp_path / "dlps.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli_main(["dlps", "sample", str(path), "-n", "1000000", "--cut", cut]) == 1
    assert time.perf_counter() - start < 5.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadParamsError"
    if message:
        assert err["message"] == message


def test_dlps_sample_past_the_print_budget_builds_no_more_terms_than_it_could_print(tmp_path, capsys):
    # With no digit limit about 19,000 terms lie above the cut, and every one
    # can print.  The first tail stops at the count the budget must refuse,
    # and no later tail is read: 0.06 s, where building every term took 11 s.
    path = tmp_path / "dlps.json"
    path.write_text(json.dumps(NEAR_ONE))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        start = time.process_time()
        code = cli_main(["dlps", "sample", str(path), "-n", "1000000", "--cut", "1/" + "9" * 30])
        elapsed = time.process_time() - start
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and elapsed < 0.5
    assert json.loads(capsys.readouterr().err)["message"] == (
        f"the sampled matrix could print over {SAMPLE_MATRIX_CHARS} characters"
    )


def test_dlps_sample_below_the_print_budget_prints_every_value(tmp_path, capsys):
    # 226 values of up to about 350 digits: about 5 MB of matrix, under the budget.
    path = tmp_path / "dlps.json"
    path.write_text(json.dumps(NEAR_ONE))
    assert cli_main(["dlps", "sample", str(path), "-n", "1000000", "--cut", "1/2"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == "e8afad5d33d3b91dfdaf77b08a6d4ae6bfc71895ff579d5213015fdaaa1e8830"


def test_dlps_output_unchanged_under_python_O(tmp_path):
    # The symbolic layer must not lean on bare asserts either.
    path = tmp_path / "dlps.json"
    path.write_text(json.dumps(NEAR_ONE))
    cut = str(NEAR_ONE_TAILS[0][0] * NEAR_ONE_TAILS[0][1] ** 700)
    src = str(Path(ultraball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = "import sys; from ultraball.cli import main; print(sys.flags.optimize, file=sys.stderr); main()"
    for args in (["analyze", str(path)], ["sample", str(path), "-n", "20", "--cut", cut]):
        plain, optimized = (
            subprocess.run([sys.executable, *flag, "-c", run, "dlps", *args],
                           capture_output=True, env=env, timeout=120, check=True)
            for flag in ([], ["-O"])
        )
        assert (plain.stderr, optimized.stderr) == (b"0\n", b"1\n")
        assert optimized.stdout == plain.stdout
        assert plain.stdout.count(b"\n") > 5


@pytest.mark.parametrize("command", ["analyze", "sample"])
def test_dlps_tails_meeting_deep_are_refused_fast(command, tmp_path, capsys):
    path = tmp_path / "dlps.json"
    path.write_text(json.dumps(MEETING_DEEP))
    extra = ["-n", "3", "--cut", "1/8"] if command == "sample" else []
    start = time.perf_counter()
    assert cli_main(["dlps", command, str(path), *extra]) == 1
    assert time.perf_counter() - start < 1.0
    assert "intersect" in json.loads(capsys.readouterr().err)["message"]


def test_dlps_huge_rational_is_bad_params(tmp_path, capsys):
    # A 60,001-digit denominator: no message could print it.
    doc = {"tails": [{"first": "1", "ratio": "1/10"}, {"first": "1e-60000", "ratio": "1/3"}]}
    path = tmp_path / "dlps.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli_main(["dlps", "analyze", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadParamsError"
    assert "too large" in err["message"]


def test_verify_small(capsys):
    assert cli_main(["verify", "--seed", "5", "--trials", "2", "--max-points", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass"


def test_verify_checks_subset(capsys):
    assert cli_main(
        ["verify", "--seed", "5", "--trials", "2", "--max-points", "4", "--checks", "H2,H5"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert [c["id"] for c in out["checks"]] == ["H2", "H5"]


def test_verify_replay_corrupted(bad_file, tmp_path, capsys):
    assert cli_main(
        ["verify", "--trials", "1", "--checks", "H2,H8", "--replay", bad_file]
    ) == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["status"] == "fail"
    assert "StrongTriangleViolation" in out["checks"][0]["failures"][0]["detail"]
    assert json.loads(captured.err) == {"error": "ChecksFailed", "message": "failing checks: H2"}


def test_verify_fails_crashing_h8_and_h10_instead_of_raising(monkeypatch, capsys):
    def raising(*args):
        raise AssertionError("raised")

    monkeypatch.setattr(harness, "equidistant_space", raising)
    monkeypatch.setattr(harness, "dlps_sample", raising)
    assert cli_main(["verify", "--checks", "H8,H10"]) == 1
    captured = capsys.readouterr()
    details = {f["detail"] for c in json.loads(captured.out)["checks"] for f in c["failures"]}
    assert details == {"AssertionError: raised"}
    assert json.loads(captured.err) == {"error": "ChecksFailed", "message": "failing checks: H8, H10"}


@pytest.mark.parametrize("n", [10, 64])
def test_verify_h11_replays_large_balleans_quickly(tmp_path, capsys, n):
    # 19 and 127 balls: a scan of every subset would not end.
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(space_to_json_dict(random_binary_space(0, n))))
    start = time.perf_counter()
    assert cli_main(["verify", "--checks", "H11", "--replay", str(path)]) == 0
    assert time.perf_counter() - start < 2
    outcome = json.loads(capsys.readouterr().out)["checks"][0]
    assert (outcome["id"], outcome["failures"]) == ("H11", [])


@pytest.mark.parametrize(
    "replay",
    [
        {"labels": ["a", "b"], "matrix": [[0, 1], [1]]},  # ragged matrix
        [[[0, 1], [1, 0]]],  # a bare matrix where a space object belongs
        {"labels": [["a"], {"b": 1}], "matrix": [[0, 1], [1, 0]]},  # labels that are not strings
        {"labels": ["a"], "matrix": [[0, 1], [1, 0]]},  # one label for two points
        [{"space": 5}],  # a failure record whose space is not a space object
    ],
)
def test_verify_replay_malformed_space_is_bad_params(replay, tmp_path, capsys):
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(replay))
    assert cli_main(["verify", "--trials", "1", "--checks", "H2", "--replay", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadParamsError"
    assert err["message"].startswith("replay entry 0: ")


def test_validate_string_labels_is_bad_params(tmp_path, capsys):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"labels": "ab", "matrix": [[0, 1], [1, 0]]}))
    assert cli_main(["validate", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadParamsError"


def test_probe_q63_cli(capsys):
    assert cli_main(["probe-q63", "--seed", "3", "--trials", "3", "--max-points", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["witnesses"] == []


def test_usage_error_exit_2():
    assert cli_main(["bogus"]) == 2
    assert cli_main([]) == 2


def test_missing_file_is_domain_error(capsys):
    assert cli_main(["validate", "/nonexistent/space.json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFound"


@pytest.mark.parametrize(
    "case, error",
    [
        ("directory", "IsADirectoryError"),
        ("utf16_bom", "InvalidJSON"),
        ("deep_nesting", "InvalidJSON"),
        ("huge_int", "InvalidJSON"),
        ("out_is_directory", "IsADirectoryError"),
    ],
)
def test_io_and_decode_failures_are_structured(case, error, space_file, tmp_path, capsys):
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    huge = tmp_path / "huge.json"
    huge.write_text('{"labels": ["a"], "matrix": [[' + "1" * 5000 + "]]}")
    argv = {
        "directory": ["validate", str(tmp_path)],
        "utf16_bom": ["validate", str(bom)],
        "deep_nesting": ["validate", str(deep)],
        "huge_int": ["validate", str(huge)],
        "out_is_directory": ["ballean", space_file, "--out", str(tmp_path)],
    }[case]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert isinstance(payload, dict)
    assert payload["error"] == error


# Hostile input: every command on malformed documents ends in exit 0, 1 or 2,
# never a traceback, and a domain error carries structured JSON.
# Fraction would build 10**6000000 or 10**1000000 before refusing these.
LONG_DECIMALS = ["1e6000000", "-1e-6000000", "0." + "0" * 10**6]
ATOM = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([1.5, float("nan"), 10**400]),
    st.sampled_from(["0", "1", "1/2", "-1", "1/0", "x", "", "1e-60000", "9" * 5000]),
    st.sampled_from(LONG_DECIMALS),
    st.sampled_from(["é", "½", "١", "a+b", '"', "\\", "\n"]),
)
LABELS = st.one_of(ATOM, st.lists(st.one_of(ATOM, st.text(max_size=2)), max_size=4))


def _generated_doc(seed: int, n: int) -> dict:
    return space_to_json_dict(random_space(seed, n, ("1", "3/2", "2")))


@st.composite
def _space_doc(draw):
    """A generated space with one entry or its labels perhaps replaced, or a
    ragged, non-list or non-object document."""
    kind = draw(st.sampled_from(["space", "entry", "labels", "ragged", "atom"]))
    if kind == "ragged":
        rows = st.one_of(ATOM, st.lists(st.sampled_from(["0", "1", 2]), max_size=3))
        return {"labels": draw(LABELS), "matrix": draw(st.one_of(ATOM, st.lists(rows, max_size=3)))}
    if kind == "atom":
        return draw(st.one_of(ATOM, st.lists(ATOM, max_size=2), st.just({"labels": ["a"]})))
    n = draw(st.integers(1, 4))
    data = _generated_doc(draw(st.integers(0, 99)), n)
    if kind == "entry":
        data["matrix"][draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ATOM)
    if kind == "labels":
        data["labels"] = draw(LABELS)
    return data


TAIL = st.one_of(ATOM, st.fixed_dictionaries({"first": ATOM, "ratio": ATOM}))
DLPS_DOC = st.one_of(
    ATOM,
    st.lists(ATOM, max_size=2),
    st.fixed_dictionaries({}, optional={
        "points": st.one_of(ATOM, st.lists(ATOM, max_size=3)),
        "zero": ATOM,
        "tails": st.one_of(ATOM, st.lists(TAIL, max_size=2)),
    }),
    st.just(MEETING_DEEP),
)


# A generated space, bare or wrapped as a failure record's "space".
VALID_SPACE = st.builds(_generated_doc, st.integers(0, 99), st.integers(1, 4)).flatmap(
    lambda data: st.sampled_from([data, {"space": data}]))
REPLAY_DOC = st.one_of(
    _space_doc(),
    st.lists(st.one_of(_space_doc(), st.fixed_dictionaries({"space": _space_doc()})), max_size=2),
)
RAW_TEXT = st.sampled_from(["", "{", "[" * 3000, '{"labels": ["a"], "matrix": [[' + "1" * 5000 + "]]}"])
NAME = st.one_of(st.text(max_size=3), st.sampled_from(["p0", "p1", "p0,p1", "p0,x"]))
SMALL = st.integers(-1, 4).map(str)


def _command(draw, path):
    """One argv over documents written under ``path``."""
    written = []

    def doc(strategy):
        written.append(path / f"doc{len(written)}.json")
        text = draw(RAW_TEXT) if draw(st.integers(0, 4)) == 0 else json.dumps(draw(strategy))
        written[-1].write_text(text, encoding="utf-8")
        return str(written[-1])

    command = draw(st.sampled_from([
        "validate", "ballean", "hausdorff", "smallest-ball", "tree", "isometric",
        "dlps analyze", "dlps sample", "verify", "verify generated", "probe-q63",
    ]))
    if command in ("validate", "tree"):
        return [command, doc(_space_doc())]
    if command == "ballean":
        return [command, doc(_space_doc()), "--iterate", draw(SMALL)]
    if command == "hausdorff":
        return [command, doc(_space_doc()), "--ball", draw(NAME), "--ball", draw(NAME)]
    if command == "smallest-ball":
        return [command, doc(_space_doc()), "--subset", draw(NAME)]
    if command == "isometric":
        return [command, doc(_space_doc()), doc(_space_doc())]
    if command == "dlps analyze":
        return ["dlps", "analyze", doc(DLPS_DOC)]
    if command == "dlps sample":
        cut = draw(st.sampled_from(["1/8", "0", "-1", "x", "1e-60000", *LONG_DECIMALS]))
        return ["dlps", "sample", doc(DLPS_DOC), "-n", draw(SMALL), "--cut", cut]
    if command == "verify generated":  # well-formed flags over generated spaces
        flags = ["--trials", "1", "--max-points", draw(st.sampled_from("1234"))]
        replay = st.lists(VALID_SPACE, min_size=1, max_size=3)
    else:
        flags = ["--trials", draw(st.sampled_from(["1", "0", "x"])), "--max-points", draw(SMALL)]
        replay = REPLAY_DOC
    if command == "probe-q63":
        return [command, *flags]
    checks = draw(st.one_of(st.none(), st.sets(st.sampled_from(sorted(CHECKS)), min_size=1)))
    selection = [] if checks is None else ["--checks", ",".join(sorted(checks))]
    return ["verify", *flags, *selection, "--replay", doc(replay)]


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_hostile_input_ends_in_a_structured_exit(data, hostile_dir):
    argv = _command(data.draw, hostile_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 1:  # a structured error on stderr, whatever stdout holds
        assert "error" in json.loads(err.getvalue())
    if argv[0] == "verify" and code == 0:
        # A passing verify replayed only ultrametric spaces.
        with open(argv[argv.index("--replay") + 1], encoding="utf-8") as f:
            loaded = json.load(f)
        for entry in loaded if isinstance(loaded, list) else [loaded]:
            space_from_json_dict(entry.get("space", entry))  # raises on an invalid space
