"""The machine's speed, probed next to every timed job.

The benchmark runs on shared virtual machines whose speed swings within
fractions of a second: on a 2-vCPU Xeon, a fixed pure-Python loop ran 1x
to 1.7x its fastest time from one quarter second to the next, and a
workload's fastest pass drifted by a third over a few minutes.  Other
tenants slow process CPU time as much as wall time, so ``cpu_s`` does not
escape it either.

So every job is timed between two probes: a fixed piece of exact
arithmetic on stdlib ``Fraction``s that uses nothing from ``ribce``.  A
job's time divided by the mean of its two probes is its cost in probes,
independent of how loaded the machine was at that moment; multiplied by
``REFERENCE_S`` it reads again in seconds, the seconds the job takes when
the probe takes ``REFERENCE_S``.  A change to ``ribce`` moves a job's time
and not the probe, so it moves the scaled time by the same share.
"""

import time
from fractions import Fraction

# The probe's wall time on an idle core of the 2-vCPU, 2.1 GHz Xeon on which
# the baseline was measured: its fastest quarter-second medians there were
# 0.0033-0.0034 s.  Any fixed value would do; this one makes reference
# seconds read about like seconds on that machine when it is quiet.
REFERENCE_S = 0.0035

_ROW = tuple(Fraction(i * 7 % 13 - 6, 1 + i % 5) for i in range(60))


def _work():
    total = Fraction(0)
    for x in _ROW:
        for y in _ROW[:20]:
            total += x * y
    return total


def probe():
    """Time one probe; returns (wall s, cpu s)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _work()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def scaled(seconds, before, after):
    """``seconds`` measured between two probe times, in reference seconds."""
    return seconds * REFERENCE_S * 2 / (before + after)
