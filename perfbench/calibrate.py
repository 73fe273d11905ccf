"""Host-speed calibration for the gated wall-clock metrics.

The benchmark was built on a shared host whose speed drifts by ±20-30%
over tens of seconds.  Identical work, and CPU time too, drift with it.
So the gated metrics are scaled by a fixed pure-Python kernel, timed
right before and after each set-up and each pass in the same process.
The kernel uses no repository code.  A speed factor of 1 means the
kernel took ``REFERENCE_S``; the scaled figures are in "reference
seconds".  The kernel shares the simulator's dominant operations: tuple
keys, dict grouping, string formatting and sorting.
"""

from __future__ import annotations

import gc
import time

#: Kernel wall time that defines speed factor 1 (a typical reading on
#: the 2-core host the benchmark was tuned on).
REFERENCE_S = 0.32


def _kernel() -> int:
    # A small working set (a few hundred KiB), rebuilt 80 times, so the
    # kernel adds nothing to the process's peak memory.
    total = 0
    for round_ in range(80):
        groups: dict[tuple[str, int], list[tuple[int, str]]] = {}
        for i in range(3000):
            groups.setdefault((f"s{i % 500}", (i + round_) % 97), []).append((i, str(i)))
        total += len(sorted(groups, key=lambda key: (key[1], key[0])))
    return total


def kernel_seconds() -> float:
    """Wall time of one kernel run.  The collector is paused so that the
    reading does not depend on how many objects the program holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(before: float, after: float) -> float:
    """Host slowness over an interval bracketed by two kernel timings
    (>1 means slower than the reference)."""
    return (before + after) / 2.0 / REFERENCE_S
