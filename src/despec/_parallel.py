"""Row-blocked execution helper.

Per-pixel stages are written as functions over a row slice that write
into preallocated output arrays.  Because every operation inside those
functions is elementwise (no reductions across pixels), splitting the
image into row blocks and running the blocks on a thread pool produces
bit-identical results for any worker count.  :func:`run_chunks` walks
each block in short row chunks, so a stage's temporaries stay small and
cache-resident however large the image is.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

_ENV_THREADS = "DESPEC_THREADS"
CHUNK_ROWS = 16


def resolve_threads(requested: int) -> int:
    """Turn a requested worker count into an actual one (0 = auto)."""
    if requested and requested > 0:
        return requested
    env = os.environ.get(_ENV_THREADS)
    if env:
        try:
            n = int(env)
            if n > 0:
                return n
        except ValueError:
            pass
    return os.cpu_count() or 1


def row_slices(height: int, workers: int) -> list[slice]:
    workers = max(1, min(workers, height))
    step = (height + workers - 1) // workers
    return [slice(i, min(i + step, height)) for i in range(0, height, step)]


def run_rows(fn, height: int, threads: int) -> None:
    """Call fn(rows) for contiguous row slices covering [0, height).

    The rows are split into ``threads`` blocks, but the pool never holds
    more workers than there are cores.
    """
    if threads <= 1 or height < 64:
        fn(slice(0, height))
        return
    blocks = row_slices(height, threads)
    if len(blocks) == 1:
        fn(blocks[0])
        return
    with ThreadPoolExecutor(max_workers=min(len(blocks), os.cpu_count() or 1)) as pool:
        # consume results so worker exceptions propagate
        list(pool.map(fn, blocks))


def run_chunks(fn, height: int, threads: int) -> None:
    """Like run_rows, but each block calls fn on CHUNK_ROWS-row slices."""
    def walk(rows):
        for r in range(rows.start, rows.stop, CHUNK_ROWS):
            fn(slice(r, min(r + CHUNK_ROWS, rows.stop)))

    run_rows(walk, height, threads)
