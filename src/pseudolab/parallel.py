"""One fork map for all work split into independent parts: the cross-validation
folds, and the contiguous runs of embedding chunks of `features.embed_many` and
`ensemble.predict_ensemble_batch`.

`multiprocessing` and `concurrent.futures` are imported only when a map forks,
so a command that forks nothing (`--version`, `ingest`) never loads them.
"""

from __future__ import annotations

import mmap
import os
import sys
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

# The task of the running `map_forked`. It is set before the pool forks, so
# the workers inherit it and the closure is never pickled.
_task: Callable[[int], object] | None = None
# Set in every worker: a map started there runs in place and never forks again.
_in_worker = False


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    return not _in_worker and hasattr(os, "fork")


def worker_count(parts: int) -> int:
    """The processes to split `parts` independent parts over: min(usable_cpus(), parts).

    It is 1 inside a worker, where `fork` is unavailable, and for no parts.
    """
    return max(1, min(usable_cpus(), parts)) if _can_fork() else 1


def shared_array(shape: tuple[int, ...], dtype: np.typing.DTypeLike) -> np.ndarray:
    """A zero-filled array in anonymous shared memory; a forked worker's writes to it reach this process.

    tracemalloc does not see its buffer.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, count * dtype.itemsize), dtype, count).reshape(shape)


def _release_free_heap() -> None:
    """Hand the free pages of the C heap back to the OS, so that no forked worker
    starts with them in its resident set.

    glibc raises its trim threshold as large blocks are freed, so a stage can
    keep tens of MB of freed heap (24 MB in `evaluate` on the 5k fixture).
    Where malloc_trim is missing this does nothing.
    """
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # no C library to load, or not glibc
        return
    trim(0)


def _enter_worker() -> None:
    global _in_worker
    _in_worker = True


def _run_task(i: int):
    return _task(i)


def map_forked(task: Callable[[int], T], n_tasks: int, *, work: str) -> list[T]:
    """`[task(i) for i in range(n_tasks)]`, run in `worker_count(n_tasks)` forked processes.

    With one usable CPU or one task, or inside a worker, or where `fork` is
    unavailable, the tasks run in this process. Workers are forked, not
    spawned, so they share everything loaded copy-on-write (and arrays from
    `shared_array` for writing), and only task numbers and results are
    pickled (the pipeline starts no thread of its own that a fork could copy
    mid-operation). Tasks start in order, at most one per worker at a time.
    After a failure no further task starts, the running ones finish, and the
    exception of the lowest-numbered failing task is raised, as the serial
    loop would raise it. A worker that dies raises ChildProcessError naming
    `work`.
    """
    workers = worker_count(n_tasks)
    if workers < 2:
        return [task(i) for i in range(n_tasks)]
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    global _task
    _task = task
    results: dict[int, T] = {}
    errors: dict[int, BaseException] = {}
    # a forked worker flushes the stream buffers it inherited when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    _release_free_heap()
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"), initializer=_enter_worker
        ) as pool:
            running = {}
            next_task = 0
            while True:
                while next_task < n_tasks and len(running) < workers and not errors:
                    running[pool.submit(_run_task, next_task)] = next_task
                    next_task += 1
                if not running:
                    break
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    i = running.pop(future)
                    exc = future.exception()
                    if exc is None:
                        results[i] = future.result()
                    else:
                        errors[i] = exc
    finally:
        _task = None
    if errors:
        error = errors[min(errors)]
        if isinstance(error, BrokenProcessPool):  # it names no task
            raise ChildProcessError(f"a worker process died during {work}") from error
        raise error
    return [results[i] for i in range(n_tasks)]
