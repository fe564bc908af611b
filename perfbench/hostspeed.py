"""Scaling of measured times to a fixed reference host speed.

A host that shares its cores with other tenants changes speed by a third
within seconds, while the ratio between two pieces of interpreted work timed
side by side stays within a few percent. So a fixed pure-Python kernel
(`reference_work`) is timed just before and just after each measured piece
of work, and the work's time is scaled by REFERENCE_KERNEL_S over the mean
of the two kernel times: the result is the time on a host on which the
kernel takes exactly REFERENCE_KERNEL_S. On the 2-vCPU 2.1 GHz Xeon VM the
benchmark was built on (Python 3.11) the kernel took 1.1-1.7 ms.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_KERNEL_S = 1.5e-3


def reference_work() -> int:
    """Fixed interpreted work of about a millisecond and a half: tuple keys
    in a dict, a keyed sort and string building, as in lcstrs's own code."""
    table = {}
    for i in range(3000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
    items = sorted(table.items(), key=lambda kv: (kv[1] % 13, kv[0]))
    text = " ".join(f"{a}:{b}" for (a, b), _ in items[:200])
    return len(text.split())


def kernel_seconds() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """`seconds` at reference speed, from the kernel times around it."""
    return seconds * 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)


def timed(fn) -> tuple:
    """(seconds at reference speed, result) of one call of `fn`."""
    before = kernel_seconds()
    start = perf_counter()
    result = fn()
    seconds = perf_counter() - start
    return scaled(seconds, before, kernel_seconds()), result
