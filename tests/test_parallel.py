"""Row-blocked execution: block partition, chunking and worker pool size."""

import threading

import pytest

from despec import _parallel
from despec._parallel import CHUNK_ROWS, row_slices, run_chunks, run_rows


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


@pytest.mark.parametrize("height", [0, 1, 15, 16, 17, 100, 300])
@pytest.mark.parametrize("threads", [1, 3])
def test_chunks_tile_each_block(height, threads):
    seen = []
    run_chunks(seen.append, height, threads)
    rows = sorted(r for s in seen for r in range(s.start, s.stop))
    assert rows == list(range(height))
    assert all(0 < s.stop - s.start <= CHUNK_ROWS for s in seen)
    # no chunk straddles a block boundary
    blocks = row_slices(height, threads) if threads > 1 and height >= 64 else [slice(0, height)]
    assert all(any(b.start <= s.start and s.stop <= b.stop for b in blocks) for s in seen)
