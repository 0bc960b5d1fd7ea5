"""Arithmetic of the benchmark's figures: the tail percentile and the
failure tally."""

from __future__ import annotations

import math

# Percentiles a tail may be reported at; the highest one that still leaves
# TAIL_MIN_BEYOND samples above it is used, so the choice does not hop
# between neighbouring ranks as the sample count changes slightly.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def tail(values):
    """(percentile, value) of the highest ladder percentile that has at
    least TAIL_MIN_BEYOND samples beyond it, or None when even the median
    has fewer.  The value is the nearest-rank sample."""
    data = sorted(values)
    n = len(data)
    best = None
    for q in TAIL_LADDER:
        rank = math.ceil(round(q * n / 100.0, 6))
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (q, data[rank - 1])
    return best


class Tally:
    """Attempted and failed ops.  An op fails when it raised, exited with a
    non-zero code, or failed any correctness check; it counts once however
    many of these happened."""

    def __init__(self):
        self.attempted = 0
        self.failures = []          # (op label, [problem, ...])

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append((label, list(problems)))

    @property
    def failed(self):
        return len(self.failures)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0
