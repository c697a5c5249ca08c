"""Configurable task execution for the mine's job fan-outs.

:class:`JobPool` runs batches of zero-argument callables and returns
their results **in job order**, on one of two executors:

* ``"serial"`` — plain loop in the calling thread (the reference
  behaviour; also used whenever ``workers <= 1`` or a batch holds one
  job, so the pool is never spun up for nothing);
* ``"process"`` — :class:`~concurrent.futures.ProcessPoolExecutor`; real
  CPU parallelism at the cost of pickling each job's arguments, so jobs
  must be module-level callables (``functools.partial`` over picklable
  arguments).

There is no thread executor: the mining jobs are GIL-bound Python, and
on 2 CPUs a thread pool mined slower than the serial loop.

One pool instance survives several ``run`` calls, so a mine that fans
out more than once (per-shard indexing, then the per-dimension
graph-build + Louvain jobs) pays the pool start-up cost once instead of
once per batch.

Because the mining core is deterministic by construction (canonical node
order, sorted adjacency, seeded Louvain shuffle), both executors produce
*identical* results — scheduling only changes wall-clock time, never the
output.  That equivalence is asserted by the parallel-equivalence tests.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import TypeVar

T = TypeVar("T")

#: The accepted executor kinds, in increasing order of start-up cost.
EXECUTOR_KINDS = ("serial", "process")

#: The accepted shard-dispatcher kinds for the sharded mine's map phase
#: (see :mod:`repro.core.dispatch`): ``"pool"`` runs shard jobs on the
#: mine's :class:`JobPool`, and ``"subprocess"`` runs them on long-lived
#: worker processes that talk only in store paths + partial digests.
#: Lives here (not in :mod:`repro.core.dispatch`) so :mod:`repro.config`
#: can validate the field without importing the core.
DISPATCH_KINDS = ("pool", "subprocess")


def resolve_workers(workers: int) -> int:
    """Translate a ``workers`` setting into a concrete worker count.

    ``0`` means "one per available CPU"; any positive value is taken
    as-is.  "Available" honours CPU affinity / cgroup cpusets where the
    platform exposes them, so ``workers=0`` in a container pinned to 2
    of a 64-core host gives 2, not 64.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    return workers


class JobPool:
    """A reusable executor for several job batches.

    A ``JobPool`` is created once per mine and reused across the
    per-shard index fan-out and the per-dimension fan-out — the
    underlying process pool is started lazily on the first batch that
    actually needs it and lives until :meth:`close`.

    Results come back in job order and the first job exception is
    re-raised in the caller; no pool is ever started for serial
    execution or single-job batches.
    """

    def __init__(self, workers: int = 1, executor: str = "serial") -> None:
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTOR_KINDS}")
        self.workers = resolve_workers(workers)
        self.executor = executor
        self._pool: ProcessPoolExecutor | None = None

    @property
    def parallel(self) -> bool:
        """Whether this pool can actually run jobs concurrently."""
        return self.executor != "serial" and self.workers > 1

    def run(self, jobs: Sequence[Callable[[], T]]) -> list[T]:
        """Run one batch of *jobs*; results in job order."""
        jobs = list(jobs)
        if not self.parallel or len(jobs) <= 1:
            return [job() for job in jobs]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        futures = [self._pool.submit(job) for job in jobs]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the underlying pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "JobPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
