"""Reference seconds: timings that hold still while the host's load moves.

The host this benchmark was written on runs the reference loop below in
anywhere between 3.8 and 7.8 ms as other tenants load it (up to 19 ms with
both of its cores busy), drifting within seconds, and wall times drift with
it by up to 2x between runs.  Timings
are therefore also given in reference seconds: wall time rescaled to the
speed at which the loop takes PROBE_REF_S, its time on an idle core of that
host (Intel Xeon, 2.0 GHz).  The speed is probed right before and after a
timed interval and, from a SIGALRM handler, every SAMPLE_PERIOD_S inside it;
the time of the probes inside is taken out of the interval's.
"""

from __future__ import annotations

import contextlib
import signal
import time

PROBE_REF_S = 0.004
SAMPLE_PERIOD_S = 0.2
_PROBE_DATA = [2.0 + 0.1 * (i % 7) for i in range(100_000)]


def probe():
    """Seconds the reference loop, a Sturm-style recurrence in plain Python
    like the solver's hot loop, takes right now."""
    t0 = time.perf_counter()
    q = 1.0
    for d in _PROBE_DATA:
        q = (d - 0.5) - 1.0 / q
    return time.perf_counter() - t0


def to_reference(seconds, probes):
    """Wall seconds rescaled to the speed at which the loop takes
    PROBE_REF_S, the speed being the mean of the probes taken during them."""
    return seconds * PROBE_REF_S * len(probes) / sum(probes)


@contextlib.contextmanager
def sampling(samples):
    """Append a probe to `samples` every SAMPLE_PERIOD_S of wall time."""

    def handler(signum, frame):
        samples.append(probe())

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
