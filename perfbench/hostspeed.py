"""The host's speed, measured with a fixed piece of reference work.

On a shared virtual machine the speed of the host changes by up to a
factor of two, in spells of a few seconds to tens of seconds, and a whole
run's figures move with it.  The benchmark interleaves short runs of the
reference work with the program's calls and scales each call's time by
``NOMINAL_S / reference time`` measured around it, which gives the time the
call would have taken on a host that runs the reference in exactly
``NOMINAL_S``.  The reference is the benchmark's own code, the same on
every commit, so a change to the program moves only the program's times.

The reference is plain interpreter work (a loop of integer arithmetic and
dict updates, like the program's own inner loops) and runs with the garbage
collector off, so the program's garbage is never collected on its time.

This module imports nothing from tubecalc: the set-up children import it
after timing the program's import.
"""

from __future__ import annotations

import gc
from time import perf_counter

NOMINAL_S = 0.0015  # the reference's time on the host the figures are scaled to
ROUNDS = 5000


def reference_s() -> float:
    """Seconds one run of the reference work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        acc = 0
        for i in range(ROUNDS):
            k = (i * 7919) % 1021
            table[k] = table.get(k, 0) + i
            acc ^= k << (i & 15)
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if acc == 0 or len(table) != 1021:  # keeps the work from being skipped, and checks it
        raise RuntimeError("the reference work gave a wrong result")
    return elapsed
