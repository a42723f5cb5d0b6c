"""Row-chunked execution: the fixed chunk schedule and the worker pool size."""

import threading

import pytest

from despec import _parallel
from despec._parallel import CHUNK_ROWS, run_rows


@pytest.mark.parametrize("cores, threads, workers", [
    (2, 7, 2),        # more chunks than cores: pool capped at the core count
    (8, 4, 4),        # fewer threads than cores: one worker per thread
    (64, 12, 8),      # fewer chunks than threads: one worker per chunk
    (None, 3, 1),     # core count unknown: one worker, inline
    (4, 10**9, 4),    # a huge request still gets at most one worker per core
])
def test_pool_capped_at_core_count(monkeypatch, cores, threads, workers):
    sizes = []

    class InlinePool:
        """Records its size and runs the chunks on the calling thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: cores)
    before = threading.active_count()
    out = run_rows(lambda rows: rows, 128, threads)
    assert threading.active_count() == before
    assert sizes == ([workers] if workers > 1 else [])
    # the chunks follow the height alone, not the pool size
    assert out == [slice(r, r + CHUNK_ROWS) for r in range(0, 128, CHUNK_ROWS)]


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
