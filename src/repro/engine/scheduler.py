"""A small multiprocessing scheduler with deterministic result ordering.

The engine's unit of distribution is a *task*: a picklable payload handed to
a top-level worker function that returns a picklable result.  ``jobs=1`` (or
a single task) runs everything in-process with zero multiprocessing
machinery, which keeps the sequential path exactly as debuggable as the old
verifier; ``jobs>1`` fans tasks out over a process pool.  Results always come
back in submission order regardless of completion order.

If the pool cannot be created at all (sandboxes without semaphore support,
missing /dev/shm, restricted platforms) the scheduler silently degrades to
in-process execution — parallelism is an optimisation, never a requirement.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.telemetry import trace as _trace

_Payload = TypeVar("_Payload")
_Result = TypeVar("_Result")

#: Errors that mean "no worker pool on this host", not "the task failed".
_POOL_BOOTSTRAP_ERRORS = (ImportError, OSError, PermissionError, ValueError)


def default_jobs() -> int:
    """A sensible ``--jobs auto`` value: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def _start_context():
    """Prefer ``fork`` (cheap, inherits the imported package) when available."""
    import multiprocessing  # only a pool needs it, not the in-process path

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerPool:
    """Map a worker function over payloads with ``jobs`` processes.

    ``initializer``/``initargs`` follow the ``multiprocessing.Pool``
    convention: run once per worker process before any task.  Use them to
    ship shared read-only state (e.g. the engine's subgoal-cache snapshot)
    once per worker instead of once per task.  When the pool cannot be
    created and the map degrades to in-process execution, the initializer
    is invoked once locally so the worker function sees the same state.
    """

    def __init__(self, jobs: int = 1, initializer: Optional[Callable] = None,
                 initargs: Sequence = ()) -> None:
        self.jobs = max(1, int(jobs))
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.used_processes = False   # did the last map actually fan out?

    def _run_in_process(self, worker, payloads):
        if self.initializer is not None:
            self.initializer(*self.initargs)
        return [worker(payload) for payload in payloads]

    def map(self, worker: Callable[[_Payload], _Result],
            payloads: Sequence[_Payload]) -> List[_Result]:
        """Apply ``worker`` to every payload, returning results in order.

        Worker exceptions propagate to the caller (matching what the same
        code raising in-process would do); only *pool construction* failures
        trigger the sequential fallback.
        """
        payloads = list(payloads)
        tracer = _trace.current()
        if tracer is None:
            return self._map(worker, payloads, None)
        # Split queue time from execute time: ``spawn_seconds`` is pool
        # bootstrap (process forking), the span's remaining duration is the
        # map itself; per-task queue wait rides on the tasks' own spans.
        with tracer.span("scheduler.map", kind="scheduler", jobs=self.jobs,
                         tasks=len(payloads)) as handle:
            results = self._map(worker, payloads, handle.attrs)
            handle.attrs["used_processes"] = self.used_processes
        return results

    def _map(self, worker, payloads, span_attrs):
        self.used_processes = False
        # Queue-time attribution: stamp dict payloads with the submission
        # instant so workers can report enqueue->start wait on their own
        # spans.  ``setdefault`` keeps an upstream stamp (e.g. a scheduler
        # layered above this one) authoritative; non-dict payloads simply
        # go unstamped.
        submitted = time.perf_counter()
        for payload in payloads:
            if isinstance(payload, dict):
                payload.setdefault("submitted_at", submitted)
        if self.jobs <= 1 or len(payloads) <= 1:
            return self._run_in_process(worker, payloads)
        # Validate picklability up front: a worker or payload that cannot
        # cross the process boundary means "run locally", and checking here
        # keeps in-task exceptions cleanly separated from transport errors
        # (a task's own TypeError must propagate, not trigger a silent
        # sequential re-run).
        try:
            pickle.dumps(worker)
            for payload in payloads:
                pickle.dumps(payload)
        except Exception:
            return self._run_in_process(worker, payloads)
        try:
            spawn_started = time.perf_counter()
            context = _start_context()
            processes = min(self.jobs, len(payloads))
            pool = context.Pool(processes=processes, initializer=self.initializer,
                                initargs=self.initargs)
            if span_attrs is not None:
                span_attrs["spawn_seconds"] = round(
                    time.perf_counter() - spawn_started, 6)
        except _POOL_BOOTSTRAP_ERRORS:
            return self._run_in_process(worker, payloads)
        try:
            results = pool.map(worker, payloads, chunksize=1)
            self.used_processes = True
            return results
        finally:
            pool.close()
            pool.join()


def parallel_map(worker: Callable[[_Payload], _Result],
                 payloads: Sequence[_Payload], jobs: int = 1,
                 pool: Optional[WorkerPool] = None) -> List[_Result]:
    """Convenience wrapper: one-shot :class:`WorkerPool` map."""
    return (pool or WorkerPool(jobs)).map(worker, payloads)
