"""Machine-speed probe, so that request times can be scaled to one reference speed.

The 2-vCPU machine this benchmark was defined on drifts in speed by up to
1.7x over tens of seconds, which no run length can average away.  While a
workload runs, a profiling timer interrupts it every PROBE_INTERVAL_S of CPU
time and times one fixed calibration step: a strong-triangle scan, a
closed-ball enumeration and a small Hausdorff table on a 12-point
ultrametric matrix built here.  The step mimics the library's work but runs
none of its code, so a change to the program cannot move it.  Over 20-second
windows on that machine, a fixed ``ballean`` request varied by 1.72x raw and
by 1.18x after scaling with a 14-point version of this step; an
arithmetic-only loop tracked the drift worse.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.25
# Median step time in the machine's usual (slower) phase: a 2-vCPU x86_64
# machine at 2.1 GHz under CPython 3.11.7.  It only fixes the scale.
PROBE_REFERENCE_S = 0.0030
_N = 12


def _matrix() -> list[list[Fraction]]:
    rng = random.Random(12)
    clusters = [[i] for i in range(_N)]
    dist = [[Fraction(0)] * _N for _ in range(_N)]
    level = Fraction(1)
    while len(clusters) > 1:
        a = clusters.pop(rng.randrange(len(clusters)))
        b = clusters.pop(rng.randrange(len(clusters)))
        level += Fraction(1, 3)
        for x in a:
            for y in b:
                dist[x][y] = dist[y][x] = level
        clusters.append(a + b)
    return dist


_DIST = _matrix()


def calibration_step() -> str:
    dist = _DIST
    for i in range(_N):
        row = dist[i]
        for j in range(_N):
            if i != j:
                dij = row[j]
                for k in range(_N):
                    if dij > row[k] and dij > dist[k][j]:
                        raise ValueError("calibration matrix is not ultrametric")
    balls = set()
    for x in range(_N):
        row = dist[x]
        for r in set(row):
            balls.add(tuple(y for y in range(_N) if row[y] <= r))
    ordered = sorted(balls, key=lambda b: (len(b), b))
    table = [[max(dist[a[0]][y] for y in a + b) for b in ordered] for a in ordered[:4]]
    return json.dumps([[str(v) for v in row] for row in table])


class SpeedProbe:
    """Times a calibration step every PROBE_INTERVAL_S of process CPU time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # total time taken by the probe itself

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_step()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def start(self) -> None:
        self.samples += calibration_step_times(5)
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale_since(self, first: int) -> float:
        """Factor taking times measured since sample ``first`` to the reference speed.

        Work done at the reference speed in a stretch of wall time is that
        time multiplied by the mean of ``PROBE_REFERENCE_S / step``, so the
        factor is that mean over the steps taken since then (or the last
        five, when fewer than three were), with the top and bottom fifths
        trimmed against steps disturbed by something else.
        """
        recent = self.samples[first:]
        if len(recent) < 3:
            recent = self.samples[-5:]
        rates = sorted(PROBE_REFERENCE_S / step for step in recent)
        trim = len(rates) // 5
        return statistics.fmean(rates[trim:len(rates) - trim])


def calibration_step_times(count: int) -> list[float]:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        calibration_step()
        times.append(time.perf_counter() - start)
    return times
