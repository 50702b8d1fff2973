"""One fork map for all work split into independent parts: the cross-validation
folds, and the contiguous runs of embedding chunks of `features.embed_many` and
`ensemble.predict_ensemble_batch`. It forks with `os.fork` and starts no thread,
so no command loads `multiprocessing` or `concurrent.futures`.
"""

from __future__ import annotations

import mmap
import os
import pickle
import selectors
import signal
import sys
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

# Set in every forked child: a map started there runs in place and never forks again.
_in_worker = False


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(parts: int) -> int:
    """The processes to split `parts` independent parts over: min(usable_cpus(), parts).

    It is 1 inside a forked child, where `fork` is unavailable, and for no parts.
    """
    return max(1, min(usable_cpus(), parts)) if not _in_worker and hasattr(os, "fork") else 1


def shared_array(shape: tuple[int, ...], dtype: np.typing.DTypeLike) -> np.ndarray:
    """A zero-filled array in anonymous shared memory; a forked child's writes to it reach this process.

    tracemalloc does not see its buffer.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, count * dtype.itemsize), dtype, count).reshape(shape)


def _release_free_heap() -> None:
    """Hand the free pages of the C heap back to the OS, so that no forked child
    starts with them in its resident set. glibc raises its trim threshold as
    large blocks are freed, so a stage can keep tens of MB of freed heap (24 MB
    in `evaluate` on the 5k fixture). Where malloc_trim is missing this does nothing.
    """
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # no C library to load, or not glibc
        return
    trim(0)


def _run_child(task: Callable[[int], object], i: int, fd: int) -> None:
    """In a forked child: pickle `(ok, task(i) or its exception)` into the pipe
    `fd` and leave with `os._exit`; this never returns."""
    global _in_worker
    _in_worker = True
    try:
        try:
            payload = pickle.dumps((True, task(i)))
        except BaseException as exc:
            payload = pickle.dumps((False, exc))
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        os._exit(0)
    finally:
        os._exit(1)


def map_forked(task: Callable[[int], T], n_tasks: int, *, work: str) -> list[T]:
    """`[task(i) for i in range(n_tasks)]`, one forked child per task and at most
    `worker_count(n_tasks)` children at once; in this process where that is 1.

    The children share all loaded memory copy-on-write (and `shared_array`
    arrays for writing); only results are pickled (the pipeline starts no
    thread that a fork could copy mid-operation). Tasks start in order; after
    a failure none starts, the running ones finish, and the lowest-numbered
    failure is raised, as the serial loop would raise it. A dead child raises
    ChildProcessError naming `work`, caused by one naming its signal or exit
    status. Every child is reaped; if this process raises, running ones are killed.
    """
    workers = worker_count(n_tasks)
    if workers < 2:
        return [task(i) for i in range(n_tasks)]
    results: dict[int, T] = {}
    errors: dict[int, BaseException] = {}
    # so that no child that writes to a stream writes this process's buffer again
    sys.stdout.flush()
    sys.stderr.flush()
    _release_free_heap()
    running = selectors.DefaultSelector()  # each child's pipe, its data (task, pid, bytes read)
    next_task = 0
    try:
        while next_task < n_tasks and not errors or running.get_map():
            while next_task < n_tasks and len(running.get_map()) < workers and not errors:
                read_end, write_end = os.pipe()
                if (pid := os.fork()) == 0:
                    _run_child(task, next_task, write_end)
                os.close(write_end)
                running.register(read_end, selectors.EVENT_READ, (next_task, pid, []))
                next_task += 1
            for key, _ in running.select():
                i, pid, chunks = key.data
                chunks.append(os.read(key.fd, 1 << 16))  # a pipe holds 64 KiB
                if chunks[-1]:  # read as it comes, so that no child blocks on a full pipe
                    continue
                running.unregister(key.fd)
                os.close(key.fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code:
                    how = (f"killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
                           else f"exit status {code}")
                    errors[i] = ChildProcessError(f"a worker process died during {work}")
                    errors[i].__cause__ = ChildProcessError(f"worker process {pid}: {how}")
                    continue
                ok, value = pickle.loads(b"".join(chunks))
                (results if ok else errors)[i] = value
    finally:
        for key in list(running.get_map().values()):
            os.kill(key.data[1], signal.SIGKILL)
            os.waitpid(key.data[1], 0)
            os.close(key.fd)
        running.close()
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(n_tasks)]
