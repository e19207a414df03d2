"""The machine's speed, sampled all through the timed rounds.

The benchmark shares its cores with other work on the host, and that load
changes the speed of every instruction it runs: in loaded phases the same
round takes up to 2.2 times as long as in quiet ones, and CPU time grows
with it, so it is not descheduling. The probe measures that speed next to
the workload. Every PERIOD_S of wall time an interval timer (SIGALRM) runs
one fixed calibration slice in the main thread, between two bytecodes of
whatever is running; no thread or process is started. The slice mixes what
burstlab spends its time on: scalar float arithmetic with Python calls, as
in the rhs and the DOPRI step, and small numpy arrays and eigenvalues, as
in the equilibrium scans and hopf_test.

A round's corrected time is its wall time, less the slices run inside it,
times REF_SLICE_S over the mean slice time during the round: the seconds
the round would take on a machine where one slice takes REF_SLICE_S.
"""
from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.1          # wall time between slices
REF_SLICE_S = 2.5e-3    # slice time that defines the reference speed

_M = np.array([[-0.9, 0.4, 0.1], [0.3, -1.1, 0.2], [0.05, 0.6, -0.7]])


def _scalar(x: float, y: float) -> tuple:
    e = math.exp(-x * x)
    return y * e - 0.3 * x, -x + 0.1 * y * (1.0 - e)


def calibration_slice() -> float:
    """A fixed piece of work; returns a number so nothing is optimised out."""
    x, y, h = 0.5, 0.1, 0.01
    for _ in range(600):                    # RK2 steps on a 2D scalar rhs
        k1 = _scalar(x, y)
        k2 = _scalar(x + h * k1[0], y + h * k1[1])
        x, y = x + 0.5 * h * (k1[0] + k2[0]), y + 0.5 * h * (k1[1] + k2[1])
    acc = 0.0
    v = np.linspace(-80.0, 20.0, 64)
    for k in range(80):                     # small-array scans and eigs
        g = np.tanh((v + k) / 9.0) - 1.0 / (1.0 + np.exp(-v / 7.0))
        acc += float(np.count_nonzero(np.diff(np.sign(g))))
        acc += float(np.linalg.eigvals(_M * (1.0 + 0.01 * k)).real.max())
    return x + y + acc


class SpeedProbe:
    """Runs calibration slices on a timer while it is active.

    `spent` is the wall time spent inside the timer handler, `slices` the
    time of each slice, both since the probe started.
    """

    def __init__(self):
        self.slices: list = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._busy:      # a slice slower than PERIOD_S: no nesting
            return
        self._busy = True
        t0 = time.perf_counter()
        calibration_slice()
        dt = time.perf_counter() - t0
        self.slices.append(dt)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple:
        """A point in time, for `corrected` to measure from."""
        return time.perf_counter(), self.spent, len(self.slices)

    def corrected(self, since: tuple) -> tuple:
        """(wall, corrected) seconds of the work since the mark `since`.

        Both leave out the slices run in between. An interval with no
        slice cannot be corrected: a round is many periods long, so the
        timer has not fired and the run stops rather than report it.
        """
        t0, spent0, n0 = since
        wall = time.perf_counter() - t0 - (self.spent - spent0)
        window = self.slices[n0:]
        if not window:
            raise RuntimeError(f"speed probe: no calibration slice in "
                               f"{wall:.3f} s of work")
        return wall, wall * REF_SLICE_S / (sum(window) / len(window))
