"""Time one cold operation in a fresh process.

    python3 perfbench/cold.py SRC_DIR WORKLOAD THREADS INPUT OUT_DIR

The clock starts before ``import despec`` (through ``core``) and stops
when the first operation has saved its outputs.  The last line of
standard output is ``{"seconds": ...}``; run.py checks the outputs.
"""

import json
import sys
import time


def main() -> int:
    src, name, threads, src_image, out_dir = sys.argv[1:6]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import core

    core.operation(src_image, out_dir, core.config(core.WORKLOADS[name], int(threads)))
    print(json.dumps({"seconds": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
