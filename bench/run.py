"""Benchmark for ultraball: one workload, one seed, one run.

    python3 bench/run.py --workload large-spaces --seed 1 --seconds 30 --trace 0

Runs from a checkout of the repository and imports the library from its
``src`` directory.  The workload runs in a fresh interpreter (``worker.py``)
as a closed loop with one client.  Set-up (interpreter start, import and
input generation) is timed over several fresh interpreters and reported as
the median, scaled like every time (see speed.py) by the machine speed
measured right after it.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics; see NOTES.md for what each one means.

The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Earlier lines list every figure by name with its unit, and the full result,
with run metadata, is written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
RUN_LIMIT_S = 170
WORKLOAD_NAMES = ("verify-acceptance", "large-spaces", "dlps-symbolic")
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "latency_p50_geomean_s": "s",
}
# The per-kind median of verify is the ROADMAP's headline ``verify_s``.
KIND_NAMES = {"verify": "verify_s"}


class BenchError(Exception):
    pass


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _worker_cmd(args: argparse.Namespace, workdir: Path, setup_only: bool) -> list[str]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--trace-out", str(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")]
    return cmd


def _start(cmd: list[str], err_path: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return it and the set-up time."""
    start = time.perf_counter()
    with err_path.open("ab") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
    except BaseException:
        _stop(proc)
        raise
    setup_s = time.perf_counter() - start
    if line.strip() != b"ready":
        _stop(proc)
        raise BenchError(f"worker did not get ready: {err_path.read_text()[-2000:]}")
    return proc, setup_s


def run_worker(args: argparse.Namespace, workdir: Path) -> tuple[dict, list[float]]:
    """Time set-up in fresh interpreters, then run the measured worker."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    err_path = workdir.parent / f"{workdir.name}.stderr"
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        proc, setup_s = _start(_worker_cmd(args, workdir / f"probe{i}", True), err_path)
        try:
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("a set-up probe did not exit") from None
        finally:
            _stop(proc)
        if code != 0:
            raise BenchError(f"set-up failed: {err_path.read_text()[-2000:]}")
        setups.append(setup_s)
    proc, setup_s = _start(_worker_cmd(args, workdir / "run", False), err_path)
    setups.append(setup_s)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the run limit") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err_path.read_text()[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1]), setups


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args: argparse.Namespace, params: dict) -> dict:
    return {
        "implementation": platform.python_implementation(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "params": params,
        "traced": bool(args.trace),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "ultraball" / "__init__.py").is_file():
        print(f"no ultraball sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, setups = run_worker(args, workdir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir.parent / f"{workdir.name}.stderr").unlink(missing_ok=True)

    result["setup_samples_s"] = setups
    result["metadata"] = metadata(args, result.pop("params"))
    if args.trace:
        units = per_layer_units()
        values = result["layers"]
    else:
        units = E2E_UNITS
        values = {
            "setup_s": statistics.median(setups) * result["setup_scale"],
            "peak_rss_mb": result["peak_rss_mb"],
            "req_per_s": result["req_per_s"],
            "latency_p50_geomean_s": result["latency_p50_geomean_s"],
        }
        for kind, stats in result["kinds"].items():
            name = KIND_NAMES.get(kind, f"{kind}_p50_s")
            print(f"{name} {stats['p50_s']:.6f} s  (raw {stats['raw_p50_s']:.6f} s, "
                  f"{stats['samples']} samples)")
            if "p90_s" in stats:
                print(f"{kind}_p90_s {stats['p90_s']:.6f} s")
        print(f"raw_req_per_s {result['raw_req_per_s']:.6f} 1/s")
    step = result["probe_step_s"]
    print(f"probe_step_s {step['median']:.6f} s  ({step['steps']} steps)")
    print(f"error_rate {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']} of {result['attempted']} requests)")
    for failure in result["failures"]:
        print(f"failure: {failure}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tiny = "-tiny" if args.scale == "tiny" else ""
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{tiny}.json"
    (results / name).write_text(json.dumps({**result, "metrics": metrics}, indent=2) + "\n")
    correct = result["failed"] == 0 and result["wrappers_left"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
