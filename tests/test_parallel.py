"""Row-blocked execution: block partition and worker pool size."""

import threading

import pytest

from despec import _parallel
from despec._parallel import row_slices, run_rows


@pytest.mark.parametrize("cores, threads, workers", [
    (2, 7, 2),     # more blocks than cores: pool capped at the core count
    (8, 4, 4),     # fewer blocks than cores: one worker per block
    (None, 3, 1),  # core count unknown: one worker
])
def test_pool_capped_at_core_count(monkeypatch, cores, threads, workers):
    sizes = []

    class InlinePool:
        """Records its size and runs the blocks on the calling thread."""

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
    seen = []
    before = threading.active_count()
    run_rows(seen.append, 128, threads)
    assert threading.active_count() == before
    assert sizes == [workers]
    # the partition follows the requested count, not the pool size
    assert seen == row_slices(128, threads)
    assert len(seen) == threads
