"""Row-chunked execution on one fixed schedule.

Per-pixel stages are written as functions over a row slice.  Every
operation inside those functions is elementwise (no reductions across
pixels), and the image is always cut into the same CHUNK_ROWS-row
chunks at absolute rows 0, 16, 32, ..., whatever the worker count.  So
each chunk computes the same bits on any thread, and results are
byte-identical for any worker count.  Short chunks also keep a stage's
temporaries small and cache-resident however large the image is.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

CHUNK_ROWS = 16


def run_rows(fn, height: int, threads: int) -> list:
    """[fn(rows) for each CHUNK_ROWS-row slice of [0, height)], in row order.

    The chunks run on a pool of at most ``threads`` workers, never more
    than there are chunks or cores; with one worker they run inline.
    """
    chunks = [slice(r, min(r + CHUNK_ROWS, height)) for r in range(0, height, CHUNK_ROWS)]
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(rows) for rows in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))
