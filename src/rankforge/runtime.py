"""Execution budget, and a chunked map kept for one outside caller.

Every enumeration-heavy operation estimates its step count up front and
charges it against a Budget; operations refuse (raise BudgetExceededError)
rather than start a computation they cannot finish.

Every computation in the package is serial.  ParallelContext and SERIAL
remain only because perfbench/workloads.py builds a ParallelContext and
passes it as `ctx`, and perfbench/tracer.py patches map_chunks; nothing in
the package calls map_chunks.  They go once the benchmark stops using them.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from .errors import BudgetExceededError

DEFAULT_BUDGET = 10**8

T = TypeVar("T")


class Budget:
    """Step budget for enumeration loops."""

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = int(limit)

    def charge(self, estimate: int, what: str = "") -> None:
        if estimate > self.limit:
            raise BudgetExceededError(int(estimate), self.limit, what)


class ParallelContext:  # kept only for perfbench/workloads.py and perfbench/tracer.py
    """Deterministic chunked map-reduce over an index range."""

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)

    def chunks(self, total: int) -> list[tuple[int, int]]:
        """Split range(total) into at most 4*workers contiguous chunks."""
        if total <= 0:
            return []
        nchunks = min(total, max(1, 4 * self.workers))
        step = (total + nchunks - 1) // nchunks
        return [(lo, min(lo + step, total)) for lo in range(0, total, step)]

    def map_chunks(self, fn: Callable[[int, int], T], total: int) -> list[T]:
        """Apply fn(lo, hi) to every chunk; results come back in chunk order."""
        spans = self.chunks(total)
        if self.workers == 1 or len(spans) <= 1:
            return [fn(lo, hi) for lo, hi in spans]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(fn, lo, hi) for lo, hi in spans]
            return [f.result() for f in futures]


SERIAL = ParallelContext(1)  # exported beside ParallelContext, and goes with it
