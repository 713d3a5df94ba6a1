"""Execution budget, and a serial stand-in for a chunked map.

Every enumeration-heavy operation estimates its step count up front and
charges it against a Budget; operations refuse (raise BudgetExceededError)
rather than start a computation they cannot finish.

Every computation in the package is serial.  ParallelContext remains only
because perfbench/workloads.py builds one and passes it as `ctx`, and
perfbench/tracer.py patches its map_chunks; nothing in the package calls
map_chunks.  It goes once the benchmark stops using it.
"""

from __future__ import annotations

from .errors import BudgetExceededError

DEFAULT_BUDGET = 10**8


class Budget:
    """Step budget for enumeration loops."""

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = int(limit)

    def charge(self, estimate: int, what: str = "") -> None:
        if estimate > self.limit:
            raise BudgetExceededError(int(estimate), self.limit, what)


class ParallelContext:  # kept only for perfbench/workloads.py and perfbench/tracer.py
    """A worker count, and a map over an index range that runs in one chunk."""

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)

    def map_chunks(self, fn, total: int) -> list:
        """[fn(0, total)], or [] when the range is empty."""
        return [fn(0, total)] if total > 0 else []
