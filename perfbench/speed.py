"""Machine-speed probe for scaling wall times to a reference speed.

On a shared host the same instance can run 1.5x slower for tens of seconds
at a time, which no statistic inside one run removes.  A probe times a
fixed pure-Python kernel (the benchmark's own GF(2) rank and
sum-over-paths code on fixed inputs) a few times and keeps the fastest.
During the timed loop a timer signal takes a probe every INTERVAL seconds,
also in the middle of a long instance.  A timing is then reported as
seconds at the speed where the kernel takes REF_S: its wall time, minus
the probes taken inside it, times REF_S over the median of the probes
taken during it and within WINDOW seconds before and after it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

from . import check, gen

REF_S = 0.0015  # kernel time at the speed the reported seconds refer to
REPEATS = 3
INTERVAL = 0.25  # seconds between probes while the clock runs
WINDOW = 1.0  # probes this close to a timing scale it; slow spells last longer


class SpeedProbe:
    def __init__(self):
        rng = gen.rng_for("speed-probe")
        self._matrices = [gen.invertible_matrix(rng, 32) for _ in range(6)]
        self._circuit = gen.universal_circuit(rng, 12, 1500, 0.0)

    def _kernel(self) -> None:
        for rows in self._matrices:
            gen.gf2_rank(rows, 32)
        check.sum_over_paths(12, self._circuit)

    def probe(self) -> float:
        """Seconds the kernel takes now (fastest of a few runs)."""
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        return best


def scaled(seconds: float, *probes: float) -> float:
    """Wall seconds expressed at the reference speed."""
    return seconds * REF_S / statistics.median(probes)


class SpeedClock:
    """Probes the machine speed from a SIGALRM timer while running."""

    def __init__(self):
        self._probe = SpeedProbe()
        self.times: list[float] = []  # when each probe finished
        self.values: list[float] = []
        self.spent = 0.0  # seconds spent probing so far

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.values.append(self._probe.probe())
        self.times.append(time.perf_counter())
        self.spent += self.times[-1] - t0

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """Scale a timing taken between perf_counter values start and end by
        the probes within WINDOW seconds of it, and at least the last one
        before it and the first after it."""
        lo = max(bisect.bisect_left(self.times, start - WINDOW) - 1, 0)
        hi = min(bisect.bisect_right(self.times, end + WINDOW) + 1, len(self.values))
        return scaled(seconds, *self.values[lo:hi])
