"""Host speed, sampled while a run goes, to correct run times for it.

The shared host this benchmark runs on changes speed by 30% or more, in
phases of seconds to minutes, in CPU time as well as in wall time. A phase can
cover a whole invocation, so no statistic over the runs of one invocation
removes it. So every run is timed together with the host: every ``PERIOD_S``
seconds a SIGALRM handler in the benchmark's own thread (no extra thread or
process) runs a fixed loop twice and times the second, warm pass. The loop
(``reference_loop``) is float arithmetic in the interpreter, then small numpy
operations, like samo's own inner loops. A span of the run is then corrected
by the loop times that fall inside it:

    corrected = measured * NOMINAL_S / mean(loop times in the span)

that is, the span's time on a host that runs the loop in ``NOMINAL_S``. The
loop does not call samo, so a change to samo's code moves the corrected time
about as much as the measured one. Not wholly: run in the handler, the warm
pass takes 7% (MGDA) to 19% (qcar) longer than it does alone, so a change to
what samo leaves in the caches or the heap can move the correction by part
of that. The handler takes 2-3% of a run, the same on every commit.
"""

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 5.0e-4  # the loop's typical time on the 2-vCPU VM the benchmark was tuned on
PERIOD_S = 0.05


def reference_loop() -> float:
    """Seconds for one pass of the fixed loop."""
    start = time.perf_counter()
    x = 0.0
    for i in range(2500):
        x += i * 0.5
    a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    b = np.eye(8) * 0.5
    for _ in range(30):
        a = np.tanh(a @ b + 0.1)
        np.maximum(a, 0.2).min(axis=0)
        x += float(a.sum())
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that samples ``reference_loop`` every PERIOD_S seconds.

    ``samples`` holds (perf_counter at the sample, loop seconds) pairs.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        # the first pass brings the loop's code and data back into the caches
        # the run has used; only the second is timed, so the sample depends
        # on the host far more than on what samo left in the caches
        reference_loop()
        self.samples.append((time.perf_counter(), reference_loop()))

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float):
        """The correction for [start, end), or None if no sample fell in it."""
        inside = [d for t, d in self.samples if start <= t < end]
        return correction(inside) if inside else None


def correction(loop_seconds) -> float:
    """NOMINAL_S over the mean of the given loop times."""
    return NOMINAL_S / statistics.fmean(loop_seconds)
