"""Command-line front end.

Exit codes: 0 success, 1 domain error (structured JSON message), 2 usage
error (argparse synopsis).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as encode
from operator import itemgetter

from .ballean import _MAX_DEPTH, _ballean_tower, hausdorff_balls
from .core import (
    BadParamsError,
    Ball,
    FiniteUltrametricSpace,
    UltraballError,
    UltrametricViolation,
    diam,
    rational_str,
    require_canonical,
    smallest_ball,
    space_from_json_dict,
)
from .dendrogram import _space_text, are_isometric
from .dlps import (
    dlps_acc,
    dlps_ballean_analysis,
    dlps_from_json_dict,
    dlps_is_boundedly_compact,
    dlps_is_discrete,
    dlps_is_locally_finite,
    dlps_is_metrically_discrete,
    dlps_sample,
)
from .harness import TrialConfig, probe_q63, run_suite


class _InvalidJSON(Exception):
    """A file that does not decode as JSON."""


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, or too deep
            raise _InvalidJSON(str(exc)) from exc


def _load_space(path: str) -> FiniteUltrametricSpace:
    return space_from_json_dict(_load_json(path))


def _emit(payload: dict[str, object], out: str | None) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline, where a pair
    ``(strings, rows)`` stands for the lists of ``strings`` that the index
    rows ``rows`` pick, and a pair ``(None, rows)`` for rows that already
    hold each cell's JSON text.

    A pair is written row by row, each string encoded once and each row one
    ``str.join`` (after one getter, for index rows): given an indent,
    ``json.dumps`` runs its pure-Python encoder, which costs more per cell.
    """
    items = []
    for key, value in payload.items():
        if type(value) is tuple:
            strings, rows = value
            if strings is not None:
                strings = list(map(encode, strings))
                # The repeated index makes a 1-element row's getter return a tuple.
                rows = (itemgetter(*r, r[0])(strings)[:-1] for r in rows)
            rows = ["[\n      " + ",\n      ".join(r) + "\n    ]" for r in rows]
            text = "[\n    " + ",\n    ".join(rows) + "\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"{encode(key)}: {text}")
    text = "{\n  " + ",\n  ".join(items) + "\n}" if items else "{}"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _resolve_ball(space: FiniteUltrametricSpace, members: str) -> Ball:
    indices = sorted(space.index_of(lab.strip()) for lab in members.split(","))
    candidate = Ball(tuple(indices), diam(space, indices))
    require_canonical(space, candidate)
    return candidate


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        space = _load_space(args.space)
    except UltrametricViolation as violation:  # its witness on stdout, and the error on stderr
        print(json.dumps(violation.to_json_dict(), indent=2))
        raise
    print(json.dumps({"ok": True, "points": space.n, "labels": list(space.labels)}, indent=2))
    return 0


def _cmd_ballean(args: argparse.Namespace) -> int:
    space = _load_space(args.space)
    if not 1 <= args.iterate <= _MAX_DEPTH:
        raise BadParamsError(f"--iterate must be between 1 and {_MAX_DEPTH}, got {args.iterate}")
    cells = [encode(rational_str(level)) for level in space.levels]
    labels, balls, rows = _ballean_tower(space, args.iterate, cells)
    _emit({"balls": (labels, balls), "hausdorff": (None, rows)}, args.out)
    return 0


def _cmd_hausdorff(args: argparse.Namespace) -> int:
    space = _load_space(args.space)
    if len(args.ball) != 2:
        raise BadParamsError("give --ball exactly twice")
    b1 = _resolve_ball(space, args.ball[0])
    b2 = _resolve_ball(space, args.ball[1])
    print(rational_str(hausdorff_balls(space, b1, b2)))
    return 0


def _cmd_smallest_ball(args: argparse.Namespace) -> int:
    space = _load_space(args.space)
    indices = [space.index_of(lab.strip()) for lab in args.subset.split(",")]
    ball = smallest_ball(space, indices)
    _emit(
        {
            "members": [space.labels[m] for m in ball.members],
            "diameter": rational_str(ball.diameter),
        },
        args.out,
    )
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    space = _load_space(args.space)
    print(_space_text(space))
    return 0


def _cmd_isometric(args: argparse.Namespace) -> int:
    result = are_isometric(_load_space(args.space1), _load_space(args.space2))
    print("true" if result else "false")
    return 0


def _cmd_dlps_analyze(args: argparse.Namespace) -> int:
    space = dlps_from_json_dict(_load_json(args.dlps))
    ballean = dlps_ballean_analysis(space)
    _emit(
        {
            "discrete": dlps_is_discrete(space),
            "metrically_discrete": dlps_is_metrically_discrete(space),
            "locally_finite": dlps_is_locally_finite(space),
            "boundedly_compact": dlps_is_boundedly_compact(space),
            "accumulation_points": sorted(rational_str(x) for x in dlps_acc(space)),
            "ballean": ballean.to_json_dict(),
        },
        args.out,
    )
    return 0


def _cmd_dlps_sample(args: argparse.Namespace) -> int:
    space = dlps_from_json_dict(_load_json(args.dlps))
    sample = dlps_sample(space, args.n, args.cut)
    levels = list(map(rational_str, sample.levels))
    _emit({"labels": list(sample.labels), "matrix": (levels, sample.ranks)}, args.out)
    return 0


def _config_from_args(args: argparse.Namespace) -> TrialConfig:
    raw = getattr(args, "checks", None)
    checks = tuple(c.strip() for c in raw.split(",")) if raw else ()
    return TrialConfig(
        seed=args.seed,
        trials=args.trials,
        max_points=args.max_points,
        checks=checks,
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    replay = None
    if args.replay:
        loaded = _load_json(args.replay)
        replay = loaded if isinstance(loaded, list) else [loaded]
    report = run_suite(_config_from_args(args), replay_spaces=replay)
    _emit(report.to_json_dict(), args.out)
    if report.passed:
        return 0
    failing = ", ".join(c.check_id for c in report.checks if c.failures)
    return _fail({"error": "ChecksFailed", "message": f"failing checks: {failing}"})


def _cmd_probe_q63(args: argparse.Namespace) -> int:
    _emit(probe_q63(_config_from_args(args)), args.out)
    return 0


def _add_suite_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--max-points", type=int, default=12)
    parser.add_argument("--out", default=None)


@functools.cache  # one parser per process: parse_args leaves a parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultraball",
        description="Exact balleans of ultrametric spaces under the Hausdorff metric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a distance matrix against the ultrametric axioms")
    p.add_argument("space")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("ballean", help="enumerate the balls and their Hausdorff distances")
    p.add_argument("space")
    p.add_argument("--iterate", type=int, default=1, metavar="K")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ballean)

    p = sub.add_parser("hausdorff", help="Hausdorff distance between two balls")
    p.add_argument("space")
    p.add_argument("--ball", action="append", required=True, metavar="LABELS",
                   help="comma-separated member labels; give exactly twice")
    p.set_defaults(func=_cmd_hausdorff)

    p = sub.add_parser("smallest-ball", help="smallest ball containing a subset")
    p.add_argument("space")
    p.add_argument("--subset", required=True, metavar="LABELS")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_smallest_ball)

    p = sub.add_parser("tree", help="print the merge tree of a space")
    p.add_argument("space")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("isometric", help="decide whether two spaces are isometric")
    p.add_argument("space1")
    p.add_argument("space2")
    p.set_defaults(func=_cmd_isometric)

    dlps = sub.add_parser("dlps", help="symbolic max-metric spaces")
    dlps_sub = dlps.add_subparsers(dest="dlps_command", required=True)

    p = dlps_sub.add_parser("analyze", help="decide the structural predicates")
    p.add_argument("dlps")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dlps_analyze)

    p = dlps_sub.add_parser("sample", help="extract a finite sub-space")
    p.add_argument("dlps")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--cut", required=True, metavar="RATIONAL")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dlps_sample)

    p = sub.add_parser("verify", help="run the randomized verification suite")
    _add_suite_flags(p)
    p.add_argument("--checks", default=None, metavar="H1,H2,...")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="run the checks on failure records or spaces instead of generated ones")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("probe-q63", help="finite search for a space isometric to its ballean")
    _add_suite_flags(p)
    p.set_defaults(func=_cmd_probe_q63)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UltraballError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, UltrametricViolation):
            payload.update(exc.to_json_dict())
    except _InvalidJSON as exc:
        payload = {"error": "InvalidJSON", "message": str(exc)}
    except OSError as exc:
        name = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        payload = {"error": name, "message": str(exc)}
    except MemoryError as exc:  # e.g. ballean --iterate 3, whose labels grow with each level
        payload = {"error": "MemoryError", "message": str(exc)}
    return _fail(payload)


def _fail(payload: dict) -> int:
    """Write an exit-1 error, ``{"error": ..., "message": ...}``, to stderr."""
    print(json.dumps(payload, indent=2), file=sys.stderr)
    return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
