"""One workload in a fresh single-threaded interpreter, as a closed loop.

Started by ``run.py``.  It builds the workload's inputs, prints ``ready``,
then issues one request at a time, the next only when the previous one has
returned, until ``--seconds`` have passed at the end of a round.  Each
request runs under a SIGALRM wall-clock cap, and its time is also scaled to
a reference machine speed with ``speed.SpeedProbe``.  The last line of
output is a JSON object with the measurements.

With ``--trace 1`` the worker runs whole cycles of the workload untraced
for half the time, then with wrappers installed for the other half, and
reports per-layer numbers per cycle; untraced runs never install wrappers.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


class RequestTimeout(BaseException):
    """Raised by SIGALRM when a request overruns its cap.

    A BaseException, so the program's own ``except Exception`` handlers
    cannot swallow it.
    """


def _alarm(signum, frame):
    raise RequestTimeout


@dataclass
class Record:
    kind: str
    raw_s: float  # wall time, less the speed probe's own steps
    scaled_s: float  # the same at the probe's reference speed
    failure: str | None


def run_request(
    req: workloads.Request, probe: SpeedProbe, tracer: tracing.Tracer | None
) -> Record:
    gc.collect()
    if tracer is not None:
        tracer.request_id += 1
    first, probe_s = len(probe.samples), probe.spent_s
    failure = None
    signal.setitimer(signal.ITIMER_REAL, req.cap_s)
    start = time.perf_counter()
    try:
        try:
            result = req.call()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        failure = f"over the {req.cap_s} s cap"
    except Exception as exc:  # a request that raises is a failed request
        failure = f"{type(exc).__name__}: {exc}"[:300]
    raw = elapsed - (probe.spent_s - probe_s)
    if failure is None:
        try:
            failure = req.check(result)
        except Exception as exc:  # malformed output fails its check
            failure = f"check raised {type(exc).__name__}: {exc}"[:300]
    return Record(req.kind, raw, raw * probe.scale_since(first), failure)


def run_loop(
    rounds, seconds: float, probe: SpeedProbe, tracer: tracing.Tracer | None = None
) -> list[Record]:
    """Issue rounds in order, cycling, until ``seconds`` have passed."""
    records: list[Record] = []
    start = time.perf_counter()
    for rnd in itertools.cycle(rounds):
        for req in rnd:
            records.append(run_request(req, probe, tracer))
        if time.perf_counter() - start >= seconds:
            break
    return records


def kind_stats(records: list[Record], kinds: tuple[str, ...]) -> dict:
    """Median, and the 90th percentile where at least ten samples lie above it."""
    stats = {}
    for kind in kinds:
        lat = sorted(r.scaled_s for r in records if r.kind == kind)
        entry = {
            "samples": len(lat),
            "p50_s": statistics.median(lat),
            "raw_p50_s": statistics.median(r.raw_s for r in records if r.kind == kind),
        }
        if len(lat) >= 100:
            entry["p90_s"] = statistics.quantiles(lat, n=10)[-1]
        stats[kind] = entry
    return stats


def summary(records: list[Record], kinds: tuple[str, ...]) -> dict:
    stats = kind_stats(records, kinds)
    return {
        "req_per_s": len(records) / sum(r.scaled_s for r in records),
        "raw_req_per_s": len(records) / sum(r.raw_s for r in records),
        "latency_p50_geomean_s": math.exp(
            statistics.fmean(math.log(s["p50_s"]) for s in stats.values())
        ),
        "kinds": stats,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    rounds = workload.rounds
    result = {"workload": args.workload, "params": workload.params}
    probe = SpeedProbe()
    probe.start()
    # The steps taken at start follow set-up directly; run.py scales set-up by them.
    result["setup_scale"] = probe.scale_since(0)

    if not args.trace:
        records = run_loop(rounds, args.seconds, probe)
        result.update(summary(records, workload.kinds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Whole cycles, so per-cycle counts repeat exactly for a given seed.
        cycle = [[req for rnd in rounds for req in rnd]]
        plain = run_loop(cycle, args.seconds / 2, probe)
        plain_cycles = len(plain) // len(cycle[0])
        harness_runs = list(getattr(workload, "harness_elapsed", []))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_loop(cycle, args.seconds / 2, probe, tracer)
        finally:
            tracer.restore()
        cycles = len(traced) // len(cycle[0])
        layers = tracer.layer_metrics(cycles)
        for check in tracing.HARNESS_CHECKS:
            times = [run[check] for run in harness_runs]
            layers[f"harness.{check}.s"] = statistics.median(times) if times else 0.0
        plain_sum, traced_sum = summary(plain, workload.kinds), summary(traced, workload.kinds)
        for key in ("latency_p50_geomean_s", "req_per_s"):
            layers[f"trace.overhead.{key}"] = traced_sum[key] - plain_sum[key]
        result["layers"] = layers
        result["cycles"] = {"untraced": plain_cycles, "traced": cycles}
        result["spans"] = {"recorded": tracer.span_count, "kept": len(tracer.spans)}
        if args.trace_out is not None:
            tracer.write_spans(args.trace_out)
            result["spans"]["file"] = str(args.trace_out)
        records = plain + traced
    probe.stop()

    failures = [f"{r.kind}: {r.failure}" for r in records if r.failure]
    result.update(
        probe_step_s={"median": statistics.median(probe.samples), "steps": len(probe.samples)},
        attempted=len(records),
        failed=len(failures),
        failures=failures[:5],
        wrappers_left=tracing.installed_wrappers(),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
