"""Host-drift probe: a fixed single-threaded workload, timed in a fresh process.

Prints one JSON line ``{"numpy_s": ..., "python_s": ...}``.  ``run.py``
runs it before and after each workload; the pair is recorded as context
next to the metrics, so a slower host can be told apart from a slower
program.  It is not a metric.
"""

from __future__ import annotations

import json
import time

import numpy as np


def numpy_part() -> float:
    state = np.full(1 << 16, 1.0 + 0.5j)
    phase = np.exp(-0.3j * np.arange(1 << 16))
    start = time.perf_counter()
    for _ in range(60):
        state *= phase
        view = state.reshape(-1, 2, 64)
        top = 0.8 * view[:, 0, :] - 0.6j * view[:, 1, :]
        view[:, 1, :] = 0.8 * view[:, 1, :] - 0.6j * view[:, 0, :]
        view[:, 0, :] = top
    return time.perf_counter() - start


def python_part() -> float:
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(300_000):
        total += (i * i) % 7
        table[i & 1023] = total
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"numpy_s": numpy_part(), "python_s": python_part()}))
