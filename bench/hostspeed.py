"""A fixed piece of work that measures how fast the host runs.

The benchmark's timings come from a shared host whose speed changes by
up to twofold, in steps that last from a fraction of a second to
minutes. The probe below does the same Python and small-array numpy
work every time and depends on nothing in chainsim, so its time moves
only with the host. The benchmark runs it after every set-up repeat,
before the first job and after every job, and multiplies each time it
measured by ``REFERENCE_S`` over the mean time of the probes around it:
the result is that time at the probe's reference speed, in seconds. A
change to chainsim moves it; a change of host speed cancels out.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The probe's time, in seconds, on the 2-core Intel Xeon host the
# benchmark was written on, in the fastest of the host's speed states.
REFERENCE_S = 0.08
ROUNDS = 400_000
# A job's speed is that of the probes this many jobs before and after it.
# A single probe lasts a tenth of a second of a speed that changes
# within one, so it tracks the speed of the job next to it only in part;
# the mean of six does better and still follows changes that last a few
# jobs.
NEIGHBOURS = 3


def _work(rounds: int) -> float:
    """Dictionary lookups and float arithmetic, with a small numpy dot
    product every 32 rounds: the mix of chainsim's inner loops."""
    table = {i: (i * 0.618033) % 1.0 for i in range(256)}
    vec = np.linspace(0.5, 1.5, 16)
    acc = 0.0
    for r in range(rounds):
        x = table[(r * 7) % 256]
        acc += x * x - 0.5 * x
        if r % 32 == 0:
            acc += float(np.dot(vec * x, vec))
    return acc


def probe() -> float:
    """Seconds one run of the fixed work takes."""
    t0 = perf_counter()
    _work(ROUNDS)
    return perf_counter() - t0


def job_scales(probes: list) -> list:
    """For job i, run between ``probes[i]`` and ``probes[i + 1]``, the
    factor that brings its time to the reference speed."""
    return [REFERENCE_S / statistics.mean(
                probes[max(0, i - NEIGHBOURS + 1): i + NEIGHBOURS + 1])
            for i in range(len(probes) - 1)]
