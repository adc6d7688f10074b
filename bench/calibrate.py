"""Reference kernels: fixed workloads that measure how fast the machine runs
a kind of code at the moment.

On a shared host the speed of one process drifts by a third and more, for
seconds to minutes at a time, and not alike for all code: a loop whose data
sits in the CPU caches slows when a neighbour takes the core, a loop that
streams megabytes through memory slows when a neighbour takes the memory
bus. So there is one kernel per kind of op:

* ``python``: a breadth-first search of the Nielsen graph N_2(Z) from
  (1, 1) to radius 12, written here without ``nielsen``: tuple building,
  dict lookups and small-integer arithmetic, the mix of the program's own
  searches and checks.
* ``numpy``: minimum-label propagation over 2**19 int64 labels along three
  fixed random permutations, the gather-heavy array work of the program's
  vectorized components engine.

The benchmark times the kernel of an op's kind between ops, divides each
op's time by the median of the nearest kernel times and multiplies by the
kernel's ``NOMINAL_S``. The result is the op's time at a fixed reference
speed. A change to the program moves it as it moves the raw time; a change
in the speed the host gives the process cancels out. The kernels never
change, so normalised times stay comparable across commits.
"""

from __future__ import annotations

import gc
import statistics
import time

KINDS = ("python", "numpy")
NOMINAL_S = {"python": 0.010, "numpy": 0.025}   # seconds of one kernel run at the reference speed

RADIUS = 12          # python kernel: 18,432 vertices
VERTICES = 18_432
LABELS = 1 << 19     # numpy kernel
ROUNDS = 3


def python_kernel() -> int:
    seen = {(1, 1)}
    frontier = [(1, 1)]
    for _ in range(RADIUS):
        nxt = []
        for a, b in frontier:
            for t in ((a + b, b), (a - b, b), (a, b + a), (a, b - a), (-a, b), (a, -b)):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return len(seen)


def numpy_kernel(perms: list) -> int:
    """Propagate minimum labels; returns how many labels reached 0."""
    import numpy as np

    labels = np.arange(LABELS, dtype=np.int64)
    for _ in range(ROUNDS):
        for perm in perms:
            np.minimum(labels, labels[perm], out=labels)
    return int(np.count_nonzero(labels == 0))


def permutations() -> list:
    """The numpy kernel's fixed permutations."""
    import numpy as np

    rng = np.random.default_rng(0)
    return [rng.permutation(LABELS) for _ in range(3)]


def kernel_seconds(kind: str = "python", at_least: float = 0.0) -> list[float]:
    """Time kernel runs until they add up to ``at_least`` seconds, and at
    least one; raises if a run did not do its fixed work.

    The collector is off while a run is timed: its pauses depend on how many
    objects the program keeps alive, not on the speed of the machine. The
    numpy kernel's permutations are built before and dropped after, so they
    never sit in memory while the program runs.
    """
    perms = permutations() if kind == "numpy" else None
    times = []
    while not times or sum(times) < at_least:
        gc.disable()
        try:
            t0 = time.perf_counter()
            n = python_kernel() if perms is None else numpy_kernel(perms)
            times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        if perms is None and n != VERTICES:
            raise RuntimeError(f"python kernel reached {n} vertices, expected {VERTICES}")
        if perms is not None and not 1 <= n < LABELS:
            raise RuntimeError(f"numpy kernel left {n} zero labels")
    return times


def normalise(seconds: float, kernel_samples: list[float], kind: str = "python") -> float:
    """``seconds`` at the reference speed, given kernel times taken around it."""
    return seconds * NOMINAL_S[kind] / statistics.median(kernel_samples)
