"""Time a fixed piece of work, independent of mrsi-cs, whenever asked.

Usage::

    python3 perfbench/host_reference.py

Each line read from standard input runs the reference once and prints one
line with the seconds of its three parts: an interpreter loop, many small
LAPACK calls made from a Python loop, and triangular solves that stream
75 MB from memory.  The process ends at end of input, so it also ends when
its parent does.  ``run.py`` times it between CLI processes to follow the
host's speed.  It runs in a process of its own so that its arrays do not
count towards the peak RSS of the CLI processes, which inherit their
parent's high-water mark across fork and exec.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import scipy.linalg


def main() -> None:
    rng = np.random.default_rng(12345)
    small = rng.standard_normal((32, 16, 16))
    small = np.linalg.cholesky(small @ small.transpose(0, 2, 1) + 16 * np.eye(16))
    rhs = rng.standard_normal(16)
    large = np.tril(rng.standard_normal((64, 384, 384))) + 384 * np.eye(384)
    ones = np.ones(384)

    def parts() -> list[float]:
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(450_000):
            acc[i & 255] = acc.get(i & 255, 0) + i * i % 7
        t1 = time.perf_counter()
        x = rhs
        for k in range(4_000):
            x = scipy.linalg.cho_solve((small[k & 31], True), rhs) + 0.5 * x
        t2 = time.perf_counter()
        for _ in range(14):
            for factor in large:
                scipy.linalg.solve_triangular(factor, ones, lower=True, check_finite=False)
        t3 = time.perf_counter()
        return [t1 - t0, t2 - t1, t3 - t2]

    parts()  # warm-up: page faults and first calls
    print("ready", flush=True)
    for _ in sys.stdin:
        print(json.dumps(parts()), flush=True)


if __name__ == "__main__":
    main()
