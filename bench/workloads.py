"""The benchmark's workloads: seeded inputs, request rounds and output checks.

Every request enters the program through a public entry point (``cli_main``
or a function of ``ultraball.dlps``), looked up on its module at call time
so that a traced run goes through the wrappers.  Every output is checked
against an answer fixed by how the input was built, or computed here from
the input matrix without calling the program.  Checks run outside the timed
section of a request.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import ultraball
from ultraball import cli, dlps, harness

# Per-request wall-clock caps.  A request over its cap counts as failed.
VERIFY_CAP_S = 60.0
REQUEST_CAP_S = 20.0


@dataclass(frozen=True)
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right
    cap_s: float = REQUEST_CAP_S


def cli_call(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    """A request that runs ``ultraball <argv>`` in-process and captures its output."""

    def call() -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _cli_failure(result: tuple[int, str, str], want_code: int) -> str | None:
    code, _, err = result
    if code != want_code:
        return f"exit code {code}, expected {want_code}: {err.strip()[:200]}"
    return None


def _json_dump(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# --- verify-acceptance ------------------------------------------------------

VERIFY_PARAMS = {
    "full": {"verify_seed": 42, "trials": 200, "max_points": 12},
    "tiny": {"verify_seed": 42, "trials": 3, "max_points": 5},
}
CHECK_IDS = [f"H{i}" for i in range(1, 13)]


class VerifyAcceptance:
    """``ultraball verify`` at the acceptance configuration.

    The ROADMAP's headline number is defined at verify seed 42, so every
    request runs that configuration; the workload seed does not change it.
    """

    name = "verify-acceptance"
    kinds = ("verify",)

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.params = dict(VERIFY_PARAMS[scale])
        self.out = workdir / "verify.json"
        self.harness_elapsed: list[dict[str, float]] = []
        p = self.params
        argv = [
            "verify",
            "--seed", str(p["verify_seed"]),
            "--trials", str(p["trials"]),
            "--max-points", str(p["max_points"]),
            "--out", str(self.out),
        ]
        self.rounds = [[Request("verify", cli_call(argv), self._check, VERIFY_CAP_S)]]

    def _check(self, result: tuple[int, str, str]) -> str | None:
        failure = _cli_failure(result, 0)
        if failure:
            return failure
        report = json.loads(self.out.read_text(encoding="utf-8"))
        self.out.unlink()
        ids = [c["id"] for c in report["checks"]]
        if ids != CHECK_IDS:
            return f"checks {ids}, expected {CHECK_IDS}"
        if report["status"] != "pass" or any(c["failures"] for c in report["checks"]):
            return "verify report does not pass"
        config = report["config"]
        p = self.params
        if (config["seed"], config["trials"], config["max_points"]) != (
            p["verify_seed"], p["trials"], p["max_points"]
        ):
            return f"report config {config} does not match the request"
        self.harness_elapsed.append({c["id"]: c["elapsed_s"] for c in report["checks"]})
        return None


# --- large-spaces -------------------------------------------------------------

LARGE_PARAMS = {
    # Two binary spaces per shallow one, so every kind's median falls inside
    # the binary cluster of latencies and stays put from run to run.
    "full": {
        "binary_n": 48,
        "shallow_n": 64,
        "shapes": ("binary", "binary", "shallow") * 6,
        "violations": 6,
        "oracle_pairs": 16,
    },
    "tiny": {
        "binary_n": 8,
        "shallow_n": 10,
        "shapes": ("binary", "shallow"),
        "violations": 1,
        "oracle_pairs": 4,
    },
}


@dataclass
class _Space:
    """One input space: its file, its labels and its exact matrix."""

    path: str
    labels: list[str]
    dist: list[list[Fraction]]
    _nodes: dict[int, Fraction] | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def nodes(self) -> dict[int, Fraction]:
        """Merge-tree nodes as member bitmasks, mapped to their levels.

        Built from the matrix alone: every set {y : d(x, y) <= r} over centres
        x and realised radii r, with the level taken as the full pairwise
        maximum.  For a matrix generated from a merge tree these are the
        tree's nodes and levels.
        """
        if self._nodes is None:
            n, dist = self.n, self.dist
            masks = set()
            for x in range(n):
                row = dist[x]
                for r in set(row):
                    masks.add(sum(1 << y for y in range(n) if row[y] <= r))
            nodes = {}
            for mask in masks:
                members = _bits(mask)
                nodes[mask] = max(dist[a][b] for a in members for b in members)
            self._nodes = nodes
        return self._nodes


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _space_data(labels: list[str], dist: list[list[Fraction]]) -> dict:
    return {"labels": labels, "matrix": [[str(v) for v in row] for row in dist]}


def _sup_inf(dist: list[list[Fraction]], a: list[int], b: list[int]) -> Fraction:
    """Hausdorff distance straight from the two-sided sup-inf definition."""
    forward = max(min(dist[x][y] for y in b) for x in a)
    backward = max(min(dist[x][y] for x in a) for y in b)
    return max(forward, backward)


class LargeSpaces:
    """Interleaved CLI requests on seeded spaces of a few dozen points."""

    name = "large-spaces"
    kinds = ("validate", "ballean", "tree", "isometric")

    def __init__(self, seed: int, scale: str, workdir: Path):
        p = self.params = dict(LARGE_PARAMS[scale])
        rng = random.Random(f"large-spaces:{seed}")
        self.rng = rng
        planted = set(rng.sample(range(len(p["shapes"])), p["violations"]))
        self.rounds: list[list[Request]] = []
        for i, shape in enumerate(p["shapes"]):
            space_seed = rng.getrandbits(32)
            if shape == "binary":
                generated = ultraball.random_binary_space(space_seed, p["binary_n"])
            else:
                generated = ultraball.random_space(
                    space_seed, p["shallow_n"], harness.DEFAULT_LEVEL_POOL
                )
            data = ultraball.space_to_json_dict(generated)
            labels = list(data["labels"])
            dist = [[Fraction(v) for v in row] for row in data["matrix"]]
            space = _Space(_json_dump(workdir / f"space{i}.json", data), labels, dist)
            perm = _json_dump(workdir / f"perm{i}.json", self._permuted(space))
            bumped = _json_dump(workdir / f"bumped{i}.json", self._bumped(space))
            rnd = [
                Request("validate", cli_call(["validate", space.path]),
                        lambda r, s=space: self._check_valid(r, s)),
                Request("ballean", cli_call(["ballean", space.path, "--iterate", "1"]),
                        lambda r, s=space: self._check_ballean(r, s)),
                Request("tree", cli_call(["tree", space.path]),
                        lambda r, s=space: self._check_tree(r, s)),
                Request("isometric", cli_call(["isometric", space.path, perm]),
                        lambda r: self._check_isometric(r, True)),
                Request("isometric", cli_call(["isometric", space.path, bumped]),
                        lambda r: self._check_isometric(r, False)),
            ]
            if i in planted:
                violated, witness = self._violated(space)
                path = _json_dump(workdir / f"violated{i}.json", violated)
                rnd.append(Request("validate", cli_call(["validate", path]),
                                   lambda r, w=witness: self._check_violation(r, w)))
            self.rounds.append(rnd)

    # Partner inputs whose verdicts are known from how they are built.

    def _permuted(self, space: _Space) -> dict:
        """The same space with its points shuffled and relabelled: isometric."""
        perm = list(range(space.n))
        self.rng.shuffle(perm)
        dist = [[space.dist[a][b] for b in perm] for a in perm]
        return _space_data([f"q{k}" for k in range(space.n)], dist)

    def _bumped(self, space: _Space) -> dict:
        """The same tree with one internal level moved to a fresh value.

        The new level lies strictly between the node's level and the largest
        level below it, so the matrix stays ultrametric; it occurs nowhere
        in the original, so the distance multisets differ: not isometric.
        """
        n, dist = space.n, space.dist
        x = self.rng.randrange(n)
        level = dist[x][self.rng.choice([z for z in range(n) if z != x])]
        members = [y for y in range(n) if dist[x][y] <= level]
        below = max(
            (dist[a][b] for a in members for b in members if dist[a][b] < level),
            default=Fraction(0),
        )
        used = {v for row in dist for v in row}
        new = (below + level) / 2
        while new in used:
            new = (new + level) / 2
        bumped = [list(row) for row in dist]
        for a in members:
            for b in members:
                if dist[a][b] == level:
                    bumped[a][b] = new
        return _space_data(space.labels, bumped)

    def _violated(self, space: _Space) -> tuple[dict, list[str]]:
        """One pair pushed above every other distance.

        Only the triples (i, j, k) and (j, i, k) break the strong triangle
        inequality, so the first witness in scan order is (i, j, k0) with k0
        the smallest index other than i and j.
        """
        i, j = sorted(self.rng.sample(range(space.n), 2))
        top = max(v for row in space.dist for v in row) + 1
        dist = [list(row) for row in space.dist]
        dist[i][j] = dist[j][i] = top
        k0 = min({0, 1, 2} - {i, j})
        return _space_data(space.labels, dist), [space.labels[t] for t in (i, j, k0)]

    # Checks.

    def _check_valid(self, result, space: _Space) -> str | None:
        failure = _cli_failure(result, 0)
        if failure:
            return failure
        want = {"ok": True, "points": space.n, "labels": space.labels}
        if json.loads(result[1]) != want:
            return "validate output differs from the input space"
        return None

    def _check_violation(self, result, witness: list[str]) -> str | None:
        failure = _cli_failure(result, 1)
        if failure:
            return failure
        want = {"axiom": "StrongTriangleViolation", "witness": witness}
        got = json.loads(result[1])
        if got != want:
            return f"validate reported {got}, expected {want}"
        return None

    def _check_ballean(self, result, space: _Space) -> str | None:
        failure = _cli_failure(result, 0)
        if failure:
            return failure
        out = json.loads(result[1])
        index = {lab: i for i, lab in enumerate(space.labels)}
        masks = [sum(1 << index[lab] for lab in ball) for ball in out["balls"]]
        nodes = space.nodes()
        if len(masks) != len(nodes) or set(masks) != set(nodes):
            return f"{len(masks)} balls, expected the {len(nodes)} merge-tree nodes"
        matrix = out["hausdorff"]
        for i, a in enumerate(masks):
            row = matrix[i]
            for j, b in enumerate(masks):
                common = a & b
                if a == b:
                    want = Fraction(0)
                elif common == a:
                    want = nodes[b]
                elif common == b:
                    want = nodes[a]
                else:  # disjoint balls: every cross distance is the LCA level
                    want = space.dist[a.bit_length() - 1][b.bit_length() - 1]
                if row[j] != str(want):
                    return f"hausdorff[{i}][{j}] = {row[j]}, expected {want}"
        for _ in range(self.params["oracle_pairs"]):
            i, j = self.rng.randrange(len(masks)), self.rng.randrange(len(masks))
            want = _sup_inf(space.dist, _bits(masks[i]), _bits(masks[j]))
            if matrix[i][j] != str(want):
                return f"hausdorff[{i}][{j}] = {matrix[i][j]}, sup-inf gives {want}"
        return None

    def _check_tree(self, result, space: _Space) -> str | None:
        failure = _cli_failure(result, 0)
        if failure:
            return failure
        index = {lab: i for i, lab in enumerate(space.labels)}
        tokens = re.findall(r"\(|\)|[^\s()]+", result[1])
        internal: dict[int, Fraction] = {}
        pos = 0

        def parse() -> int:
            nonlocal pos
            tok = tokens[pos]
            pos += 1
            if tok != "(":
                return 1 << index[tok]
            level = Fraction(tokens[pos])
            pos += 1
            mask, children = 0, 0
            while tokens[pos] != ")":
                child = parse()
                if mask & child:
                    raise ValueError("a leaf appears twice")
                mask |= child
                children += 1
            pos += 1
            if children < 2 or mask in internal:
                raise ValueError("unary or repeated node")
            internal[mask] = level
            return mask

        try:
            root = parse()
        except (IndexError, KeyError, ValueError) as exc:
            return f"malformed tree output: {exc!r}"
        want = {m: lvl for m, lvl in space.nodes().items() if m & (m - 1)}
        if pos != len(tokens) or root != (1 << space.n) - 1 or internal != want:
            return "tree nodes or levels differ from the merge tree of the input"
        return None

    def _check_isometric(self, result, want: bool) -> str | None:
        failure = _cli_failure(result, 0)
        if failure:
            return failure
        if result[1].strip() != ("true" if want else "false"):
            return f"isometric said {result[1].strip()}, expected {want}"
        return None


# --- dlps-symbolic ------------------------------------------------------------

DLPS_PARAMS = {
    "full": {
        "presentations": 3,
        "ratio_m": (90, 96),
        "point_depths": (200, 350, 500, 650),
        "query_depths": (300, 200, 400, 250, 350, 500, 450),
        "sample_cut_depth": 700,
        "sample_n": 20,
    },
    "tiny": {
        "presentations": 2,
        "ratio_m": (90, 96),
        "point_depths": (10, 20),
        "query_depths": (15, 10, 20, 12, 18, 25, 22),
        "sample_cut_depth": 30,
        "sample_n": 6,
    },
}
TAILS = 3
# Each tail's first term carries its own prime (all ratios use primes below
# 100), so no two tails meet.  Finite points carry POINT_PRIME and off-tail
# probes carry PROBE_PRIME in their denominators, so neither lies on a tail.
TAIL_PRIMES = (101, 103, 107, 109, 113, 127, 131)
POINT_PRIME = 1009
PROBE_PRIME = 1013


class DlpsSymbolic:
    """Symbolic max-metric spaces whose cost grows with the tail exponent.

    The seed draws each presentation's first terms, base ratio and zero; the
    spacing of the ratios and which tail and exponent each request uses are
    fixed, so that the cost of a round barely depends on the seed.  A round
    has five queries, an odd number, so the query median falls inside one
    query's cluster.
    """

    name = "dlps-symbolic"
    kinds = ("dlps_build", "dlps_query", "dlps_sample")

    def __init__(self, seed: int, scale: str, workdir: Path):
        p = self.params = dict(DLPS_PARAMS[scale])
        rng = random.Random(f"dlps-symbolic:{seed}")
        lo, hi = p["ratio_m"]
        self.rounds: list[list[Request]] = []
        for i in range(p["presentations"]):
            base = rng.randint(lo, hi)
            tails = [
                (Fraction(prime, 100), Fraction(m - 1, m))
                for prime, m in zip(rng.sample(TAIL_PRIMES, TAILS),
                                    range(base, base + 2 * TAILS, 2))
            ]

            def term(t: int, depth: int) -> Fraction:
                first, ratio = tails[t % TAILS]
                return first * ratio**depth

            tag = Fraction(POINT_PRIME - 1, POINT_PRIME)
            points = [term(t, k) * tag for t, k in enumerate(p["point_depths"])]
            has_zero = rng.random() < 0.5
            space = dlps.dlps_space(points, has_zero, tails)
            presented = {
                "points": [str(v) for v in sorted(points)],
                "zero": has_zero,
                "tails": [{"first": str(f), "ratio": str(r)} for f, r in tails],
            }
            path = _json_dump(workdir / f"dlps{i}.json", presented)

            c = [term(t, k) for t, k in enumerate(p["query_depths"])]
            probe = c[6] * Fraction(PROBE_PRIME - 1, PROBE_PRIME)
            trunc, single = dlps.Truncation, dlps.Singleton
            cut = term(0, p["sample_cut_depth"])
            rnd = [
                Request("dlps_build",
                        lambda pts=points, z=has_zero, tl=tails: dlps.dlps_space(pts, z, tl),
                        lambda r, want=presented: self._check_build(r, want)),
                self._query(lambda s=space, x=c[0]: dlps.normalize_ball(s, trunc(x)), trunc(c[0])),
                self._query(lambda s=space, x=c[1], y=c[2]:
                            dlps.dlps_hausdorff(s, trunc(x), trunc(y)), max(c[1], c[2])),
                self._query(lambda s=space, x=c[3], y=c[4]:
                            dlps.dlps_hausdorff(s, single(x), trunc(y)), max(c[3], c[4])),
                self._query(lambda s=space, x=c[5]: s.contains(x), True),
                self._query(lambda s=space, x=probe: s.contains(x), False),
                Request("dlps_sample",
                        cli_call(["dlps", "sample", path, "-n", str(p["sample_n"]),
                                  "--cut", str(cut)]),
                        lambda r, want=self._sample(points, has_zero, tails, cut):
                            self._check_sample(r, want)),
            ]
            self.rounds.append(rnd)

    @staticmethod
    def _query(call: Callable[[], Any], want: Any) -> Request:
        def check(result: Any) -> str | None:
            return None if result == want else f"query gave {result!r}, expected {want!r}"

        return Request("dlps_query", call, check)

    @staticmethod
    def _check_build(result: Any, want: dict) -> str | None:
        got = result.to_json_dict()
        return None if got == want else f"built {got}, expected {want}"

    def _sample(self, points, has_zero, tails, cut) -> list[Fraction]:
        """Expected sample values: 0 if present, then the largest positives.

        Tail terms fall with the exponent, so each tail contributes at most
        its first ``budget`` terms; no term below the top is generated.
        """
        budget = self.params["sample_n"] - (1 if has_zero else 0)
        positives = set(points)
        for first, ratio in tails:
            term = first
            for _ in range(budget):
                if term < cut:
                    break
                positives.add(term)
                term *= ratio
        values = sorted(positives, reverse=True)[:budget]
        return sorted(values + ([Fraction(0)] if has_zero else []))

    @staticmethod
    def _check_sample(result, values: list[Fraction]) -> str | None:
        failure = _cli_failure(result, 0)
        if failure:
            return failure
        out = json.loads(result[1])
        want = _space_data(
            [str(v) for v in values],
            [[Fraction(0) if x == y else max(x, y) for y in values] for x in values],
        )
        if out != want:
            return "sample differs from the top elements of the presentation"
        return None


WORKLOADS = {w.name: w for w in (VerifyAcceptance, LargeSpaces, DlpsSymbolic)}
