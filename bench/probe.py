"""Host-speed probe: a fixed task, timed next to every measurement.

On a shared host the same code runs up to about 1.8x slower while other
tenants contend for the core, and the slow and fast spells switch every
few seconds.  Left in, they made ten runs of the same code spread by up
to 37%.  The probe is a small task that no change to biasedcube can
touch.  It runs immediately before and after each job on the same
pinned core, and the job's time is rescaled by `speed` to what it would
have been with the probe at its reference time.  Raw times are kept in
the run record.

Two tasks, matched to the code the workload spends its time in:
"py" is interpreter-bound (dict and integer work); "py+np" adds numpy
passes over an 8 MiB table, like the dense kernels at n=20.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np


def _py_task() -> None:
    d: dict = {}
    for i in range(20000):
        d[i & 255] = d.get(i & 255, 0) + i * i


@functools.cache
def _np_buffers() -> tuple:
    return np.random.default_rng(0).random(1 << 20), np.empty(1 << 19)


def _py_np_task() -> None:
    _py_task()
    table, out = _np_buffers()
    for _ in range(4):
        np.multiply(table[: 1 << 19], 0.3, out=out)
        np.add(out, table[1 << 19:], out=out)


# task, and its time on an uncontended core of the reference machine
TASKS = {"py": (_py_task, 2.3e-3), "py+np": (_py_np_task, 6.0e-3)}


def pin_to_one_core() -> None:
    """Keep this process and its children on one core, so the probe and
    the work it calibrates share the core's contention."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def seconds(kind: str) -> float:
    """Time of the probe task, best of two tries."""
    task = TASKS[kind][0]
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        task()
        best = min(best, time.perf_counter() - t0)
    return best


def speed(kind: str, before: float, after: float) -> float:
    """Factor that rescales a time measured between two probes."""
    return TASKS[kind][1] / (0.5 * (before + after))
