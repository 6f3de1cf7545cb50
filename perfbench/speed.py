"""Machine-speed probe used to normalize the benchmark's times.

On a shared machine the speed of one CPU drifts by tens of percent over
seconds to minutes, and a probe run on the *other* CPU does not follow it.
So the worker pins itself to one CPU and, while a pass runs, a sampler
thread in the same process runs a fixed pure-Python probe (rational
arithmetic, dictionary updates and a lattice-point loop, about a
millisecond) every 20 ms.  Each probe time p gives the speed
REFERENCE_PROBE_S / p at that moment; a time measured over an interval is
multiplied by the mean speed of the probes inside it (the time integral of
the speed, for evenly spaced probes).  The result is in *reference
seconds*: plain seconds on a machine where the probe takes exactly 1 ms.

The probe uses no code of the program under test, so a change to the
program cannot move it.  It takes the interpreter lock for about 5% of a
pass, the same share for every commit measured.
"""

import statistics
import threading
from fractions import Fraction
from math import isqrt
from time import perf_counter

REFERENCE_PROBE_S = 0.001
INTERVAL_S = 0.02


def probe() -> None:
    acc = Fraction(0)
    for k in range(1, 25):
        acc += Fraction((-1) ** k * k, 2 * k + 1)
    d = {}
    for i in range(1000):
        key = (i % 37, i % 101)
        d[key] = d.get(key, 0) + i * i
    out = []
    for y in range(-12, 13):
        s = isqrt(400 + 3 * y * y)
        for x in range(-s, s + 1):
            if x * x + 3 * x * y + 7 * y * y <= 400:
                out.append((x, y))


def time_probe() -> float:
    t0 = perf_counter()
    probe()
    return perf_counter() - t0


def mean_speed(probe_times) -> float:
    """Mean of REFERENCE_PROBE_S / p over the probe times p."""
    return statistics.fmean(REFERENCE_PROBE_S / p for p in probe_times)


class Sampler:
    """Runs the probe every INTERVAL_S seconds in a background thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, probe time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(INTERVAL_S):
            t = perf_counter()
            self.samples.append((t, time_probe()))

    def speed(self, t0, t1, default=None) -> float:
        """Mean speed over [t0, t1]; ``default`` when fewer than three
        probes fall inside."""
        inside = [p for t, p in self.samples if t0 <= t <= t1]
        return mean_speed(inside) if len(inside) >= 3 else default

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
