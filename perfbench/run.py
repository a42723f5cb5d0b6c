#!/usr/bin/env python3
"""despec benchmark: a closed loop with one caller and one image in flight.

    python3 perfbench/run.py --workload full-vga --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; despec is imported from the
checkout's ``src``.  Metric names and units come from ``BENCHMARK.json``.

Each operation is the library form of ``despec remove``: load a PFM
input, ``pipeline.run``, save the diffuse and specular PFMs.  Every
operation is then checked (see ``core.check``) and its output files must
equal, byte for byte, the reference output of the same input made in
set-up.  A failed operation is counted, never fatal.

Set-up renders the workload's scene, writes IMAGES_PER_RUN noisy inputs
whose noise seeds derive from ``--seed``, makes the reference outputs
under tracemalloc and checks that another worker count gives the same
bytes.  Then:

* ``--trace 0`` measures the end-to-end metrics: untraced operations for
  at least ``--seconds`` and MIN_SAMPLES operations, ``setup_s`` as the
  median of COLD_RUNS fresh processes, ``peak_mem_mb`` from the
  reference operations.
* ``--trace 1`` alternates traced and untraced operations and reports
  the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of the run, spans included, is written to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

MIN_SAMPLES = 40         # so that TAIL_PERCENTILE has >= 10 samples beyond it
MIN_TRACED_SAMPLES = 20  # traced plus untraced operations of a traced run
TAIL_PERCENTILE = 75     # fixed, so the tail stays comparable across commits
# BLAS thread pools would add their threads to despec's row workers.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COLD_RUNS = 3
RUN_DEADLINE_S = 150.0   # stop measuring by then; a run must end within 180 s
COLD_TIMEOUT_S = 60.0


def _fail_without_result(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


@contextlib.contextmanager
def peak_memory(into: list):
    """Append the tracemalloc peak of the block, in MB, to ``into``."""
    tracemalloc.start()
    try:
        yield
        into.append(tracemalloc.get_traced_memory()[1] / 1e6)
    finally:
        tracemalloc.stop()


class Run:
    """State of one benchmark run: inputs, references and the tally."""

    def __init__(self, core, workload, threads: int, work: Path, seed: int):
        self.core = core
        self.workload = workload
        self.cfg = core.config(workload, threads)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accuracies: list[float] = []
        (work / "in").mkdir(parents=True)
        self.truth, self.inputs = core.make_inputs(workload, seed, str(work / "in"))
        self.refs: list[str | None] = [None] * len(self.inputs)  # output digests
        self.out = work / "out"
        self.out.mkdir()

    def attempt(self, what: str, image: int, cfg=None, around=None):
        """Run and check one operation on input ``image``.

        The output bytes must equal the reference of that input; the
        first operation on an input sets its reference.  Returns
        (seconds, outcome, checked), or None when the operation raised or
        failed a check; either way it is counted.
        """
        core = self.core
        self.attempted += 1
        try:
            with around or contextlib.nullcontext():
                t0 = time.perf_counter()
                outcome = core.operation(self.inputs[image], str(self.out), cfg or self.cfg)
                seconds = time.perf_counter() - t0
            checked = core.check(outcome, self.truth)
            digest = core.output_digest(str(self.out))
            if self.refs[image] is None and not checked.problems:
                self.refs[image] = digest
            elif digest != self.refs[image]:
                checked.problems.append("output bytes differ from the reference")
        except Exception as exc:  # a failing operation is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            problems = checked.problems
        if problems:
            self.failed += 1
            self.problems.append(f"{what} image {image}: {'; '.join(problems)}")
            return None
        self.accuracies.append(checked.accuracy)
        return seconds, outcome, checked

    def make_references(self, other_threads: int) -> tuple[list[float], list[float]]:
        """Reference output per input, each under tracemalloc, then the
        first input again at ``other_threads`` workers, which must give
        the same bytes.  Returns the diffuse PSNR and the peak memory in
        MB of each input's reference operation."""
        psnrs, peaks = [], []
        for i in range(len(self.inputs)):
            done = self.attempt("reference", i, around=peak_memory(peaks))
            if done:
                psnrs.append(done[2].psnr_db)
        cfg = self.core.config(self.workload, other_threads)
        self.attempt(f"threads={other_threads}", 0, cfg=cfg)
        return psnrs, peaks

    def cold_seconds(self, src: Path, name: str, threads: int) -> list[float]:
        """setup_s samples: one cold operation per fresh process."""
        out_dir = self.work / "cold"
        out_dir.mkdir()
        seconds = []
        for r in range(COLD_RUNS):
            image = r % len(self.inputs)
            self.attempted += 1
            cmd = [sys.executable, str(HERE / "cold.py"), str(src), name, str(threads),
                   self.inputs[image], str(out_dir)]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=COLD_TIMEOUT_S, check=True)
                value = json.loads(proc.stdout.splitlines()[-1])["seconds"]
                same = self.core.output_digest(str(out_dir)) == self.refs[image]
            except (subprocess.SubprocessError, OSError, ValueError, IndexError, KeyError) as exc:
                detail = getattr(exc, "stderr", None) or exc
                self.failed += 1
                self.problems.append(f"cold image {image}: {str(detail).strip()[-300:]}")
                continue
            if not same:
                self.failed += 1
                self.problems.append(f"cold image {image}: output bytes differ from the reference")
                continue
            seconds.append(value)
        return seconds


def keep_going(start: float, seconds: float, done: int, least: int, run_start: float) -> bool:
    """Measure for ``seconds`` and at least ``least`` operations, within
    RUN_DEADLINE_S of the run's start."""
    now = time.perf_counter()
    if now - run_start > RUN_DEADLINE_S:
        return False
    return now - start < seconds or done < least


def tail(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank TAIL_PERCENTILE and the count of samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def layer_record(tracer, op: int, outcome) -> dict:
    """Per-layer values of one traced operation, keyed by metric name."""
    rec = tracer.op_metrics(op)
    if "pipeline.run.self_s" in rec:
        rec["pipeline.self_s"] = rec["pipeline.run.self_s"]
    if "imgio.bytes" in rec:
        rec["imgio.mb_moved"] = rec["imgio.bytes"] / 1e6
    if rec.get("recovery.separate_image_s") and "recovery.separate_image.bytes" in rec:
        rec["recovery.separate_image.gb_s"] = (
            rec["recovery.separate_image.bytes"] / rec["recovery.separate_image_s"] / 1e9)
    diag = outcome.diag
    history = getattr(diag, "k_history", None)
    if history is not None:
        rec["clustering.rounds"] = len(history)
        rec["clustering.k_sum"] = sum(history)
    if hasattr(diag, "n_clusters"):
        rec["clustering.final_k"] = diag.n_clusters
    rec["clustering.no_converge"] = sum(
        w.category.__name__ == "NoConvergenceWarning" for w in outcome.warnings)
    return rec


def per_layer_metrics(spec: list, records: list, traced: list, plain: list):
    """Aggregate traced records: counts (units count and MB) as the mean
    over inputs of each input's first traced operation, so they repeat
    exactly for a seed; everything else as the median over operations."""
    metrics, absent = {}, []
    for m in spec:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_frac":
            value = statistics.median(traced) / statistics.median(plain) - 1 if traced and plain else None
        else:
            values = [(image, rec[name]) for image, rec in records if name in rec]
            if not values:
                value = None
            elif unit in ("count", "MB"):
                first = {}
                for image, v in values:
                    first.setdefault(image, v)
                value = statistics.fmean(first.values())
            else:
                value = statistics.median(v for _, v in values)
        if value is None:
            absent.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(name: str, workload, threads: int, nproc: int) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level").strip()
        kind = _read(f"{base}/{index}/type").strip()
        if level in ("2", "3") and kind == "Unified":
            caches[f"l{level}"] = _read(f"{base}/{index}/size").strip()
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": nproc,
        "cpu_model": model,
        "l2_cache": caches.get("l2", "unknown"),
        "l3_cache": caches.get("l3", "unknown"),
        "DESPEC_THREADS": "cleared",
        "blas_threads": 1,
        "workload": name,
        "scene": workload.scene,
        "width": workload.width,
        "height": workload.height,
        "pixels": workload.pixels,
        "fast": workload.fast,
        "initial_k": workload.initial_k,
        "threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()

    src = ROOT / "src"
    if not (src / "despec" / "__init__.py").is_file():
        return _fail_without_result(f"no despec package under {src}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail_without_result(f"cannot read BENCHMARK.json: {exc}")
    os.environ.pop("DESPEC_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import core
    import tracer

    if args.workload not in core.WORKLOADS:
        return _fail_without_result(
            f"unknown workload {args.workload!r}; known: {', '.join(core.WORKLOADS)}")
    workload = core.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = min(workload.threads, nproc)
    other_threads = 1 if threads > 1 else nproc
    env = environment(args.workload, workload, threads, nproc)

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(core, workload, threads, work, args.seed)
        psnrs, peaks = run.make_references(other_threads)
        record = {"env": env, "seed": args.seed, "trace": args.trace}
        if args.trace:
            metrics, enough = measure_traced(tracer, run, args, spec, record, run_start)
        else:
            metrics, enough = measure(run, args, spec, src, threads, psnrs, peaks, record,
                                      run_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = run.failed == 0 and enough
    record.update(metrics=metrics, attempted=run.attempted, failed=run.failed,
                  problems=run.problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")

    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}  n={record['samples'][name]}")
    if "tail" in record:
        print(f"image_s.tail is {record['tail']}")
    print(f"error_rate = {run.failed}/{run.attempted}")
    for problem in run.problems[:20]:
        print(f"failed: {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def measure(run, args, spec, src, threads, psnrs, peaks, record, run_start):
    """End-to-end metrics from untraced operations."""
    cold = run.cold_seconds(src, args.workload, threads)

    samples = []
    start = time.perf_counter()
    n = 0
    while keep_going(start, args.seconds, n, MIN_SAMPLES, run_start):
        done = run.attempt("timed", n % len(run.inputs))
        if done:
            samples.append(done[0])
        n += 1

    p_tail, beyond = tail(samples) if samples else (0.0, 0)
    pixels = run.workload.pixels
    values = {
        "image_s.p50": statistics.median(samples) if samples else 0.0,
        "image_s.tail": p_tail,
        "mpix_per_s": pixels * len(samples) / sum(samples) / 1e6 if samples else 0.0,
        "setup_s": statistics.median(cold) if cold else 0.0,
        "peak_mem_mb": max(peaks) if peaks else 0.0,
        "psnr_diffuse_db": statistics.fmean(psnrs) if psnrs else 0.0,
        "cluster_accuracy": min(run.accuracies) if run.accuracies else 0.0,
    }
    counts = {
        "image_s.p50": len(samples),
        "image_s.tail": len(samples),
        "mpix_per_s": len(samples),
        "setup_s": len(cold),
        "peak_mem_mb": len(peaks),
        "psnr_diffuse_db": len(psnrs),
        "cluster_accuracy": len(run.accuracies),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    record.update(samples=counts, op_seconds=samples, cold_seconds=cold, peak_mb=peaks,
                  tail=f"p{TAIL_PERCENTILE} of {len(samples)} samples, {beyond} beyond it")
    return metrics, bool(samples and cold and peaks)


def measure_traced(trace_module, run, args, spec, record, run_start):
    """Per-layer metrics: traced and untraced operations alternate on
    the same inputs; end-to-end metrics never come from this run."""
    tracer = trace_module.Tracer()
    records, traced, plain = [], [], []
    start = time.perf_counter()
    n = 0
    while keep_going(start, args.seconds, n, MIN_TRACED_SAMPLES, run_start):
        image = (n // 2) % len(run.inputs)
        if n % 2:
            done = run.attempt("traced", image, around=tracer.installed(n))
            if done:
                traced.append(done[0])
                records.append((image, layer_record(tracer, n, done[1])))
        else:
            done = run.attempt("untraced", image)
            if done:
                plain.append(done[0])
        n += 1
    metrics, absent = per_layer_metrics(spec["per_layer"], records, traced, plain)
    record.update(samples={name: len(records) for name in metrics}, absent_metrics=absent,
                  absent_functions=tracer.absent, traced_seconds=traced,
                  untraced_seconds=plain, spans=tracer.dump())
    print(f"traced operations = {len(traced)}, untraced operations = {len(plain)}")
    if tracer.absent:
        print("absent functions: " + ", ".join(tracer.absent))
    if absent:
        print("absent metrics (reported as 0): " + ", ".join(absent))
    return metrics, bool(traced and plain)


if __name__ == "__main__":
    sys.exit(main())
