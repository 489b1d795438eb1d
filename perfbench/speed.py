"""Machine-speed probe: how fast the host runs while an operation runs.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes with identical work, and CPU time drifts with wall time, so the
drift is not waiting but slower execution.  The probe measures that speed
during the timed work itself: a real-time interval timer interrupts the
process every ``INTERVAL_S`` and the signal handler times one fixed kernel
(a few small numpy array operations driven from Python, the kind of work
quadfield's point location and basis evaluation do).  ``stop`` returns the
seconds the kernel took in total, to be taken out of the measured time, and
the speed factor: the kernel's mean time over its nominal time.  Dividing
the rest of the measured time by that factor gives the time the work would
take on a host running at nominal speed.

The kernel is the benchmark's own code and never calls quadfield, so a
faster quadfield still reads as faster.  The handler runs between Python
bytecodes only, so long compiled calls are sampled less often than
interpreted code.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
NOMINAL_S = 4.2e-4          # the kernel's time on an idle 2-vCPU Xeon host (NOTES.md)

_M = np.random.default_rng(0).standard_normal((6, 10))
_X = np.array([[0.3, -0.4]])


def kernel():
    for _ in range(20):
        r, s = _X[:, 0], _X[:, 1]
        a = np.stack([r, s, r * s, r * r, s * s, r + s], axis=1)
        np.linalg.norm(a @ _M)


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """(seconds spent in the kernel, speed factor); factor 1.0 without samples."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        spent = sum(self.samples)
        factor = spent / len(self.samples) / NOMINAL_S if self.samples else 1.0
        return spent, factor
