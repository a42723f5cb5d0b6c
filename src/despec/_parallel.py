"""Row-chunked execution on one fixed schedule.

Per-pixel stages are written as functions over a row slice.  Every
operation inside those functions is elementwise (no reductions across
pixels), and the image is always cut into the same CHUNK_ROWS-row
chunks at absolute rows 0, 16, 32, ..., whatever the worker count.  So
each chunk computes the same bits on any thread, and results are
byte-identical for any worker count.  Short chunks also keep a stage's
temporaries small and cache-resident however large the image is.

Worker counts are decided here alone, from ``cpu_count()``, the CPUs
this process may run on.  The helpers come from one thread pool per
process, built on first use with that many threads and reused by every
call; a forked child builds its own.
"""

from __future__ import annotations

import os
import threading

CHUNK_ROWS = 16

_pool = None  # the ThreadPoolExecutor, once built
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Drop the parent's pool in a forked child, whose threads it lacks."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_pool)


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU of the machine, and at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, so a run that never pools never loads it
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=cpu_count(),
                                       thread_name_prefix="despec-rows")
        return _pool


def run_rows(fn, height: int, threads: int) -> list:
    """[fn(rows) for each CHUNK_ROWS-row slice of [0, height)], in row order.

    The chunks run on at most ``threads`` workers, ``cpu_count()`` for 0,
    never more than there are chunks or CPUs; with one worker they run
    inline.  Otherwise the calling thread and up to ``workers - 1`` pool
    helpers take chunks in turn from one shared counter.  After a chunk
    raises, each worker stops at its next turn, and the exception is
    raised once every running helper has stopped.  A helper the pool has
    not started when the caller runs out of chunks is cancelled, never
    waited for, so nested or concurrent calls cannot deadlock on a busy
    pool.
    """
    chunks = [slice(r, min(r + CHUNK_ROWS, height)) for r in range(0, height, CHUNK_ROWS)]
    cpus = cpu_count()
    workers = min(threads or cpus, len(chunks), cpus)
    if workers <= 1:
        return [fn(rows) for rows in chunks]
    out = [None] * len(chunks)
    turns = iter(range(len(chunks)))  # next() on it is atomic under the GIL
    failed = []

    def work():
        for i in turns:
            if failed:
                return
            try:
                out[i] = fn(chunks[i])
            except BaseException:
                failed.append(i)
                raise

    pool = _executor()
    helpers = [pool.submit(work) for _ in range(workers - 1)]
    try:
        work()
    finally:
        # cancel the helpers not yet started and wait for the others
        errors = [helper.exception() for helper in helpers if not helper.cancel()]
    for error in errors:
        if error is not None:
            raise error
    return out
