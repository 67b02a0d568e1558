"""Work that splits over independent items, over forked processes or threads.

count sizes a split: one worker per usable CPU, each with a minimum share of
the work, and one in a forked worker.  Monte Carlo paths (liqzone.montecarlo)
split over forked processes (run) writing into shared memory (shared): their
step loop is many small numpy calls that hold the GIL.  Quadrature panels
(liqzone.signals) split over threads (threads): a panel's few large ufunc and
BLAS calls release the GIL, and a thread needs no fork.
"""

from __future__ import annotations

import contextvars
import math
import mmap
import os
import pickle
import signal
import sys
import threading

import numpy as np

# set in a forked worker
_forked = False


def shared(shape) -> np.ndarray:
    """A zeroed float array on an anonymous shared mmap: what a forked worker
    writes into it, the caller reads."""
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * size), count=size).reshape(shape)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def count(items: int, work: int, min_share: int) -> int:
    """Workers for `work` units over `items` items: one per usable CPU and at
    most one per item, each with min_share units; one off Linux or in a worker."""
    if _forked or sys.platform != "linux":
        return 1
    return max(1, min(_usable_cpus(), items, work // min_share))


def run(work, items: int, workers: int) -> None:
    """Run work(lo, hi) on `workers` contiguous ranges covering [0, items).

    The calling process runs range 0 and an os.fork() child each other
    range.  A child reports an exception over a pipe and leaves with
    os._exit; the caller raises the first one, in range order, with its type
    and message (a RuntimeError carrying its text if it does not pickle).  If
    the caller fails or is interrupted, it kills the children it has not
    reaped, and it reaps every child before it returns or raises.
    """
    bounds = [items * w // workers for w in range(workers + 1)]
    children = []  # (pid, read end of the child's report pipe), in range order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(work, lo, hi, write)
            children.append((pid, read))
            os.close(write)
        work(bounds[0], bounds[1])
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                report = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(read)
            if report:
                text, payload = pickle.loads(report)
                try:
                    error = pickle.loads(payload)
                except Exception:
                    error = RuntimeError(f"a worker process raised {text}")
                raise error
            if status != 0:
                raise RuntimeError(f"a worker process ended with wait status {status}")
    finally:
        for pid, read in children:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            os.close(read)


def _child(work, lo, hi, write):
    """A forked worker: run work(lo, hi), report an exception, never return."""
    global _forked
    _forked = True
    status = 0
    try:
        work(lo, hi)
    except BaseException as exc:  # raised again in the caller
        status = 1
        text = f"{type(exc).__name__}: {exc}"
        try:
            payload = pickle.dumps(exc)
        except Exception:
            payload = None
        with open(write, "wb", closefd=False) as pipe:
            pipe.write(pickle.dumps((text, payload)))
    finally:
        os._exit(status)


def threads(work, items: int, workers: int) -> None:
    """Run the generator work(lo, hi), which yields after each item, on `workers`
    contiguous ranges covering [0, items).

    The calling thread runs range 0 and a helper thread each other range, in
    a copy of the caller's context (numpy's errstate is a context variable).
    If a range fails or the caller is interrupted, every range stops at its
    next item; every helper is joined, then the first exception in range
    order is raised as it was raised.
    """
    bounds = [items * w // workers for w in range(workers + 1)]
    stop = threading.Event()
    errors = [None] * workers

    def walk(w):
        try:
            for _ in work(bounds[w], bounds[w + 1]):
                if stop.is_set():
                    return
        except BaseException as exc:  # raised again in the caller
            errors[w] = exc
            stop.set()

    helpers = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(walk, w))
            thread.start()
            helpers.append(thread)
        walk(0)
        for thread in helpers:  # each finishes its range before stop is set
            thread.join()
    finally:
        stop.set()
        for thread in helpers:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
