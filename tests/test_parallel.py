"""Row-chunked execution: the fixed chunk schedule and the reused worker pool."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from despec import _parallel, pipeline, synth
from despec._parallel import CHUNK_ROWS, run_rows


@pytest.fixture
def fresh_pool(monkeypatch):
    """run_rows builds its pool anew inside the test, under the test's
    patches; that pool is shut down afterwards and the old one restored."""
    monkeypatch.setattr(_parallel, "_pool", None)
    yield
    if _parallel._pool is not None:
        _parallel._pool.shutdown(wait=False, cancel_futures=True)


def allow_cpus(monkeypatch, cpus):
    """Let this process run on ``cpus`` CPUs; with ``cpus`` None, the
    platform has no affinity mask and does not know its CPU count."""
    if cpus is None:
        monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _chunk_threads(workers):
    """(fn, seen): fn returns its rows and records in ``seen`` the thread
    that ran it; each thread's first chunk waits until ``workers`` threads
    hold one, so a call on ``workers`` workers runs on exactly that many."""
    arrived = threading.Barrier(workers)
    seen = set()
    lock = threading.Lock()

    def fn(rows):
        me = threading.get_ident()
        with lock:
            first = me not in seen
            seen.add(me)
        if first:
            arrived.wait(timeout=10)
        return rows

    return fn, seen


@pytest.mark.parametrize("cores, threads, workers", [
    (2, 7, 2),        # more chunks than cores: capped at the core count
    (8, 4, 4),        # fewer threads than cores: one worker per thread
    (64, 12, 8),      # fewer chunks than threads: one worker per chunk
    (None, 3, 1),     # core count unknown: one worker, inline
    (4, 10**9, 4),    # a huge request still gets at most one worker per core
    (3, 0, 3),        # 0 asks for every core the process may run on
    (64, 0, 8),       # ... and still one worker per chunk at most
])
def test_pool_capped_at_core_count(fresh_pool, monkeypatch, cores, threads, workers):
    """``cores`` is the CPUs of the process's affinity mask."""
    allow_cpus(monkeypatch, cores)
    before = set(threading.enumerate())
    fn, seen = _chunk_threads(workers)
    out = run_rows(fn, 128, threads)
    # the caller and workers - 1 helpers, each on its own new pool thread
    assert len(seen) == workers and threading.get_ident() in seen
    started = set(threading.enumerate()) - before
    assert len(started) == workers - 1
    # the chunks follow the height alone, not the worker count
    assert out == [slice(r, r + CHUNK_ROWS) for r in range(0, 128, CHUNK_ROWS)]

    # a second call reuses the pool's threads and starts none
    fn, seen = _chunk_threads(workers)
    assert run_rows(fn, 128, threads) == out
    assert len(seen) == workers
    assert set(threading.enumerate()) - before == started


def test_cpu_count_follows_the_affinity_mask(monkeypatch):
    """The CPUs the process may run on, not the machine's, and the
    machine's count, at least 1, where there is no mask."""
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 64)
    allow_cpus(monkeypatch, 2)
    assert _parallel.cpu_count() == 2
    monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
    assert _parallel.cpu_count() == 64
    allow_cpus(monkeypatch, None)
    assert _parallel.cpu_count() == 1


def test_one_cpu_starts_no_helper(fresh_pool, monkeypatch):
    """Under a one-CPU mask, threads=0 and threads=4 run every chunk
    inline, and so does a pipeline run at threads=0: no pool is built."""
    allow_cpus(monkeypatch, 1)
    before = set(threading.enumerate())
    for threads in (0, 4):
        seen = set()
        assert run_rows(lambda rows: seen.add(threading.get_ident()) or rows.start,
                        128, threads) == list(range(0, 128, CHUNK_ROWS))
        assert seen == {threading.get_ident()}
    img = synth.render(synth.builtin_scene("four-materials", 64, 48)).input
    result, _ = pipeline.run(img, pipeline.PipelineConfig(threads=0))
    assert np.array_equal(result.diffuse + result.specular, img)
    assert _parallel._pool is None
    assert not set(threading.enumerate()) - before  # no thread started


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool(fresh_pool, monkeypatch):
    allow_cpus(monkeypatch, 2)
    run_rows(lambda rows: rows, 64, 2)  # the parent's pool now has a thread
    pid = os.fork()
    if pid == 0:
        # the first two chunks each wait for the other, so the child
        # finishes only if a helper runs next to the caller
        code = 1
        try:
            fn, seen = _chunk_threads(2)
            if run_rows(fn, 32, 2) == [slice(0, 16), slice(16, 32)] and len(seen) == 2:
                code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_failed_chunk_stops_the_rest(fresh_pool, monkeypatch):
    """The caller's chunk raises while the helper is inside the other one."""
    allow_cpus(monkeypatch, 2)
    caller = threading.get_ident()
    helper_busy = threading.Event()
    started = []
    running = [0]
    lock = threading.Lock()

    def fn(rows):
        with lock:
            started.append(rows.start // CHUNK_ROWS)
            running[0] += 1
        try:
            if threading.get_ident() == caller:
                assert helper_busy.wait(timeout=10)
                raise ZeroDivisionError("the caller's chunk")
            helper_busy.set()
            time.sleep(0.05)
        finally:
            with lock:
                running[0] -= 1

    with pytest.raises(ZeroDivisionError, match="the caller's chunk"):
        run_rows(fn, 10 * CHUNK_ROWS, 2)
    # the two threads took chunks 0 and 1; the helper finds the failure
    # when its chunk is done and starts no other, and run_rows raises only
    # once the helper has stopped
    assert running[0] == 0
    assert sorted(started) == [0, 1]


def test_nested_calls_finish(fresh_pool, monkeypatch):
    """Chunks that call run_rows themselves, three deep, on a pool of two
    threads: every caller runs its own chunks and cancels the helpers the
    busy pool never started, so none waits for a thread that cannot come."""
    allow_cpus(monkeypatch, 2)

    def level(depth):
        def fn(rows):
            return rows.start if depth == 0 else sum(run_rows(level(depth - 1), 48, 2))
        return fn

    result = []
    caller = threading.Thread(target=lambda: result.append(run_rows(level(2), 48, 2)),
                              daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert result == [[3 * 48] * 3]


def test_concurrent_calls_run_each_chunk_once(fresh_pool, monkeypatch):
    """Four callers at once, each on eight workers over two cores, with
    a thread switch every microsecond: every call runs each of its
    chunks exactly once, so no turn of the shared counter is lost or
    repeated."""
    allow_cpus(monkeypatch, 8)
    height = 2000 * CHUNK_ROWS
    expected = list(range(0, height, CHUNK_ROWS))
    results = []

    def call():
        runs = []
        out = run_rows(lambda rows: runs.append(rows.start) or rows.start, height, 8)
        results.append((out, sorted(runs)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [(expected, expected)] * 4


@pytest.mark.parametrize("height", [0, 1, 15, 16, 17, 100, 300])
@pytest.mark.parametrize("threads", [1, 2, 3, 7])
def test_chunks_tile_each_block(height, threads):
    expected = [slice(r, min(r + CHUNK_ROWS, height)) for r in range(0, height, CHUNK_ROWS)]
    seen = []
    lock = threading.Lock()

    def fn(rows):
        with lock:
            seen.append(rows)
        return rows.start

    out = run_rows(fn, height, threads)
    assert CHUNK_ROWS == 16
    assert sorted(seen, key=lambda s: s.start) == expected
    assert len(seen) == len(expected)
    assert out == [s.start for s in expected]


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_exception_propagates(threads):
    def fn(rows):
        if rows.start == 32:
            raise ZeroDivisionError("chunk 2")
        return rows.start

    with pytest.raises(ZeroDivisionError, match="chunk 2"):
        run_rows(fn, 100, threads)
