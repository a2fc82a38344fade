"""Machine-speed probe and the scaling of times to a reference speed.

The probe is a fixed Fraction elimination, standard library only.  It
shares no code with cutdim, so it moves with the machine and never with
the program.  The 2-core box the benchmark was defined on switches
between fast and slow phases every few seconds to minutes, with
everything up to 2.2x slower in the slow phase; one run can fall
entirely into either (NOTES.md has the numbers).

While calls are timed, a Sampler thread probes the machine every 50 ms,
and a call's seconds are scaled by REFERENCE_S over the median probe
during the call (during the last 0.25 s for shorter calls): "seconds
at reference speed".  On that box in its fast
phase the scaled and the raw seconds agree.

This module is also imported inside the fresh interpreters that time
`import cutdim`, after cutdim, so it imports nothing but the standard
library.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from fractions import Fraction

# seconds of one probe in the fast phase of the 2-core Xeon (KVM) box
# where the benchmark was defined, Python 3.11
REFERENCE_S = 0.00105
PERIOD_S = 0.05
WINDOW_S = 0.25  # a short call is scaled by the probes of its last 0.25 s
SIZE = 6
_BASE = [
    [Fraction((7 * i + 13 * j * j + 5) % 23 - 11, 1 + (i + j) % 5) for j in range(2 * SIZE)]
    for i in range(SIZE)
]


def probe() -> float:
    """Seconds of one Gauss-Jordan elimination of a fixed Fraction matrix."""
    rows = [row[:] for row in _BASE]
    size = len(rows)
    start = time.perf_counter()
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return time.perf_counter() - start


def scale(seconds: float, probes) -> float:
    """`seconds` at reference speed, given probes taken while they ran."""
    return seconds * REFERENCE_S / statistics.median(probes)


class Sampler:
    """Probes the machine every PERIOD_S seconds in a background thread.

    The probe holds the interpreter lock for about a millisecond per
    period, a fixed share of every timed call.
    """

    def __init__(self):
        self.times: list = []  # perf_counter at the end of each probe
        self.probes: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="probe", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            seconds = probe()
            end = time.perf_counter()
            self.probes.append(seconds)  # first: readers index it by `times`
            self.times.append(end)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def during(self, start: float, end: float) -> list:
        """Probes that ended within [start, end], widened to the last
        WINDOW_S seconds for short calls; the last one, or a fresh one,
        when none ended there."""
        times = self.times[:]
        lo = bisect.bisect_left(times, min(start, end - WINDOW_S))
        hi = bisect.bisect_right(times, end)
        if hi > lo:
            return self.probes[lo:hi]
        return self.probes[hi - 1 : hi] if hi else [probe()]
