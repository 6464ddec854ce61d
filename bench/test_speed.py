"""Tests of the benchmark's CPU speed probe.

    python3 -m pytest -q bench
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import MIN_SAMPLES, REF_PROBE_S, SpeedProbe  # noqa: E402


def test_scale_uses_samples_since_mark():
    probe = SpeedProbe()
    probe.samples = [1e-4] * 5
    mark = probe.mark()
    probe.samples += [4e-4, 4e-4, 5e-4]
    # a machine at half the reference speed halves the measured time
    assert probe.scale(mark) == pytest.approx(REF_PROBE_S / 4e-4)


def test_scale_falls_back_to_latest_samples():
    probe = SpeedProbe()
    probe.samples = [9e-4] * 4 + [2e-4] * MIN_SAMPLES
    mark = probe.mark()
    probe.samples.append(1e-4)
    # one sample since the mark is too few: the latest MIN_SAMPLES count
    assert probe.scale(mark) == pytest.approx(REF_PROBE_S / 2e-4)


def test_probe_samples_while_entered_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.005) as probe:
        start = probe.mark()
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:
            pass
        assert probe.mark() - start >= 3
        assert probe.scale(start) > 0
    n = probe.mark()
    time.sleep(0.02)
    assert probe.mark() == n
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
