"""Host speed probe, for rescaling op times to a reference speed.

The speed of a shared host drifts by up to 1.6x over tens of seconds as
other tenants come and go, and the drift shows in CPU time as much as in
wall time. ``probe()`` times a fixed pure-Python loop in the process that
does an op's work, once before the op and once after it; ``rescale()``
multiplies the op's wall time by ``PROBE_REF_S`` over the mean of those two
probe times. roughmix never runs inside the probe, so a change to roughmix
moves the rescaled time as much as the wall time.

This module imports nothing beyond the standard library, because every
``cli`` op loads it into a fresh process (see cli_child.py).
"""

import time

PROBE_LOOPS = 100_000
PROBE_REF_S = 0.010  # probe time at the reference speed, near its median on a 2-vCPU Xeon


def probe() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for k in range(PROBE_LOOPS):
        acc += (k % 7) * 0.5
        table[k & 255] = acc
    return time.perf_counter() - t0


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time at the reference speed, given the probes around it."""
    return seconds * PROBE_REF_S / (0.5 * (before + after))
