"""Machine-speed calibration: a fixed pure-Python kernel timed beside the work.

The measuring machine shares its cores with other tenants, and their load
slows everything that runs by 20-60%, for anything from a fraction of a
second to minutes.  A run that falls in a slow phase would read as a
regression of the program.  So every timing the benchmark reports is
scaled to the speed the machine had while it was taken:

    reported = measured * KERNEL_REF_S / kernel_s

where ``kernel_s`` is the time of ``kernel()`` measured right next to the
work.  ``kernel`` does the same kind of interpreter work as the package
(small tuples, recursion, dict updates) and never imports it, so a change
to the package moves the measured time but not the kernel's.
``KERNEL_REF_S`` is a fixed unit, not a measurement.
"""

from __future__ import annotations

from time import perf_counter

# a reported time of t means the work took t / KERNEL_REF_S kernel runs
KERNEL_REF_S = 1.0e-3


def _build(depth: int):
    return (depth,) if depth == 0 else (_build(depth - 1), depth,
                                         _build(depth - 1))


def _walk(tree) -> int:
    return tree[0] if len(tree) == 1 else _walk(tree[0]) + tree[1] + _walk(
        tree[2])


def kernel() -> int:
    total = 0
    for _ in range(6):
        total += _walk(_build(8))
    counts: dict = {}
    for i in range(2500):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return total + len(counts)


KERNEL_RESULT = kernel()  # also warms the kernel's code paths


def kernel_s() -> float:
    """The time of one kernel run now."""
    t0 = perf_counter()
    result = kernel()
    elapsed = perf_counter() - t0
    assert result == KERNEL_RESULT
    return elapsed


def scaled(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_seconds``,
    expressed at the reference speed."""
    return seconds * KERNEL_REF_S / kernel_seconds
