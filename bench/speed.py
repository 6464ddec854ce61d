"""CPU speed probe: times in reference-speed seconds.

On a shared VM the speed one process sees drifts by tens of percent over
seconds to minutes, so the same op can take 5 s in one run and 8 s in the
next.  `SpeedProbe` times a fixed pure-Python loop on SIGALRM every
`interval` seconds while an op runs.  `scale` turns a measured time into
the time it would have taken at the reference probe speed `REF_PROBE_S`:

    normalised = measured * REF_PROBE_S / median(probe times during the op)

A slower program still reads slower (the probe does not run faster when
the program does more work); a slower machine does not.  The probe adds
about 2 % to an op's measured time, the same in every run.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_LOOPS = 3000
# median probe time on a calm 2-core x86-64 VM (Python 3.11): the
# normalised times read about as the raw times do on that machine
REF_PROBE_S = 2.0e-4
MIN_SAMPLES = 3


def probe_once() -> float:
    """Seconds for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples `probe_once` every `interval` seconds while entered.

    Only for the main thread (signal handlers run there).  `mark()` returns
    a position in the sample list; `scale(mark)` is the factor that turns
    a time measured since that mark into reference-speed seconds."""

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.samples: list[float] = []
        self._old = None

    def _handler(self, signum, frame):
        self.samples.append(probe_once())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        self.samples.extend(probe_once() for _ in range(MIN_SAMPLES))
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """REF_PROBE_S over the median probe time since `mark`; with fewer
        than MIN_SAMPLES since then, the latest MIN_SAMPLES are used."""
        window = self.samples[mark:]
        if len(window) < MIN_SAMPLES:
            window = self.samples[-MIN_SAMPLES:]
        return REF_PROBE_S / statistics.median(window)
