"""Machine-speed calibration for the untraced timings.

The reference machine is a shared 2-core VM whose speed drifts: the same pass
runs 1.5 times slower or more in one state than in another, and a state can
last from seconds to minutes, longer than one run.  A fixed calibration kernel,
which is benchmark code and does not change with the program, is timed at
checkpoints all through each pass.  Each stretch between two
checkpoints is scaled by REFERENCE_S over the mean kernel time at its two
ends, which gives its time at the reference machine's median speed: a slow
machine state slows both the stretch and the kernel and cancels, a slow
program does not.

The kernel mixes the kinds of work the package does, about 5 ms each on the
reference machine: a pure-Python loop, elementwise numpy over an array larger
than the L2 cache, scalar ``scipy.special`` calls from Python, and small
matrix products.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
from scipy import special

#: Median time of the calibration kernel on the reference machine (2-core
#: Xeon VM, Python 3.11, numpy/scipy with one BLAS thread): the median over
#: 19 untraced passes of each pass's median.  A fixed constant: it converts
#: kernel units to seconds and never changes between the commits compared.
REFERENCE_S = 0.0175


class Calibration:
    """The calibration kernel; calling it returns its run time in seconds."""

    def __init__(self) -> None:
        self._small = np.random.default_rng(0).standard_normal((64, 64))
        self._large = np.linspace(0.0, 1.0, 200_000)

    def __call__(self) -> float:
        start = time.perf_counter()
        s = 0
        for i in range(50_000):
            s += i * i
        x = self._large
        for _ in range(3):
            x = np.exp(-x) * x + 0.5
        acc = 0.0
        for k in range(2_000):
            acc += math.exp(-1e-4 * k) * float(special.gammainc(3 + k % 50, 20.0))
        m = self._small
        for _ in range(110):
            m = np.sin(m) @ self._small * 1e-3
        return time.perf_counter() - start


class CalibratedClock:
    """Splits a pass into stretches at checkpoints and times each stretch
    and the calibration kernel at both of its ends.  Calibration time is not
    part of any stretch."""

    def __init__(self) -> None:
        self._calibrate = Calibration()
        self._calibrate()  # warm-up: first-call costs are not machine speed
        self.stretches: list[tuple[float, float, float]] = []
        self._mark: float | None = None
        self._cal = 0.0

    def begin(self) -> None:
        self.stretches = []
        self._mark = None
        self.checkpoint()

    def checkpoint(self) -> None:
        now = time.perf_counter()
        cal = self._calibrate()
        if self._mark is not None:
            self.stretches.append((now - self._mark, self._cal, cal))
        self._cal = cal
        self._mark = time.perf_counter()

    @property
    def raw_s(self) -> list[float]:
        """Each stretch's time, as measured."""
        return [t for t, _, _ in self.stretches]

    @property
    def scaled_s(self) -> list[float]:
        """Each stretch's time at the reference machine speed."""
        return [t * REFERENCE_S / (0.5 * (before + after))
                for t, before, after in self.stretches]

    @property
    def calibration_s(self) -> list[float]:
        return [before for _, before, _ in self.stretches] + [self._cal]


@contextmanager
def checkpoints(clock: CalibratedClock):
    """Checkpoint on entry to each Monte Carlo run and each quadrature, the
    calls that make up most of every workload, so that no stretch is long
    next to a machine state.  The pass boundaries are checkpoints too."""
    from bfoutage import analytic, montecarlo
    from tracing import rebind

    undo: list = []
    for module, attr in ((montecarlo, "simulate_outage"), (analytic, "outage_semianalytic")):
        original = vars(module)[attr]

        def wrapper(*args, _original=original, **kwargs):
            clock.checkpoint()
            return _original(*args, **kwargs)

        rebind(original, wrapper, undo)
    try:
        yield clock
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
