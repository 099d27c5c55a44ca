"""Smoke self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For every workload, untraced and traced, it checks that the run exits 0,
that the last line names every metric of BENCHMARK.json with its unit, that
no request failed, and that no wrapper is left installed.  It also checks
that a bare copy of the benchmark, without the library sources, exits
non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# One per-layer figure per workload that must be non-zero when traced.
EXERCISED = {
    "verify-acceptance": ("harness.H4.s", "core.require_canonical.calls", "cli.verify.self_s"),
    "large-spaces": ("ballean.enumerate_ballean.calls", "cli.ballean.self_s",
                     "dendrogram.canonical_code.calls", "core.find_violation.calls"),
    "dlps-symbolic": ("dlps.normalize_ball.calls", "dlps.dlps_sample.yield",
                      "dlps.GeometricTail.terms_at_least.calls"),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run(workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(last)}")
    if not (last["correct"] and last["failed"] == 0 and last["attempted"] >= 1):
        problems.append(f"error rate not 0: {last['failed']} of {last['attempted']}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ: {sorted(set(got) ^ set(want))}")
    saved = ROOT / ".bench_work" / "results" / f"{workload}-seed7-trace{trace}-tiny.json"
    result = json.loads(saved.read_text())
    if result["wrappers_left"]:
        problems.append(f"{result['wrappers_left']} wrappers left installed")
    if trace:
        idle = [k for k in EXERCISED[workload] if not last["metrics"][k]["value"]]
        if idle:
            problems.append(f"traced figures are zero: {idle}")
    else:
        problems += [f"{name} is not positive" for name, m in last["metrics"].items()
                     if not m["value"] > 0]
    return problems


def check_bare() -> list[str]:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("large-spaces", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy exited {proc.returncode} with output {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    failed = False
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace)
            failed |= bool(problems)
            print(f"{workload} trace={trace}: {'; '.join(problems) or 'ok'}")
    problems = check_bare()
    failed |= bool(problems)
    print(f"bare copy: {'; '.join(problems) or 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
