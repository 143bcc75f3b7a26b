"""Host-speed reference for the end-to-end times.

On a shared virtual machine the same single-threaded code runs up to twice
as slow for stretches of seconds to minutes, and process CPU time slows
with it, so neither wall nor CPU time is steady from run to run.  The
benchmark therefore samples the host's speed with a short fixed loop
(interpreter work and numpy calls, the two kinds of work the package does):
a few times right before and right after each measured call, and, for
calls that run in this process, every SAMPLE_INTERVAL_S during it, from a
SIGALRM handler.  The call's wall time, less the time the handler spent, is
rescaled by NOMINAL_S / (mean loop time).  The result is the call's wall
time at the host speed at which the loop takes NOMINAL_S: seconds at
nominal host speed, a unit of their own that reads below wall-clock seconds
on most hosts.  The loop touches no sanovdual code, so no change to the
package can move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Fastest time of the loop on the 2-vCPU Xeon (Sapphire Rapids) virtual
# machine the benchmark was written on; a unit, not a measurement to match.
NOMINAL_S = 0.00083
SAMPLE_INTERVAL_S = 0.05
EDGE_LOOPS = 4

_V = np.random.default_rng(0).random(512)


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference loop."""
    t0 = time.perf_counter()
    s = 0
    store = {}
    for i in range(6_000):
        s += (i * 7) % 13
        store[i & 63] = s
    total = 0.0
    for _ in range(150):
        total += float(np.exp(_V).sum())
    return time.perf_counter() - t0


def timed(call, sample_during: bool = True) -> tuple[float, float, float]:
    """Wall seconds of call(), the same at nominal host speed, and the
    seconds spent sampling during the call (left out of the first two).

    Sampling during the call uses SIGALRM and the real-time interval timer,
    so it must run in the main thread of a process that uses neither.  A
    call that waits for a child process should not sample during it: the
    samples would compete with the child for the CPU.
    """
    samples = [reference_seconds() for _ in range(EDGE_LOOPS)]
    inside = []

    def sample(signum, frame):
        inside.append(reference_seconds())

    previous = signal.signal(signal.SIGALRM, sample)
    try:
        if sample_during:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            call()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    sampled = sum(inside)
    wall -= sampled
    samples += inside
    samples += [reference_seconds() for _ in range(EDGE_LOOPS)]
    return wall, wall * NOMINAL_S * len(samples) / sum(samples), sampled
