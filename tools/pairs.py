#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against this checkout.

    python3 tools/pairs.py --parent HEAD~1 --workload overseg-k8 --pairs 10 --seconds 20

The parent revision is exported with ``git archive`` into a temporary
directory; the change is this checkout's working tree, or ``--change
REV`` exported the same way.  Each pair runs the unmodified
``perfbench/run.py`` of both sides in fresh processes with one seed, the
parent first in even pairs and the change first in odd ones, so a host
that drifts over minutes moves both runs of a pair alike.

For every workload and metric the summary prints each side's median and
quartiles over the pairs, and the pairs the change won by the metric's
``better`` direction in BENCHMARK.json; a tie wins for neither side.  An
``end_to_end`` metric's line also shows the change's median relative to
the parent's next to the metric's relative ``bound``, and ends in
``PAST BOUND`` when the change is worse by more than that.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300  # perfbench/run.py ends its own runs within 180 s


def export(rev: str, into: Path) -> Path:
    """The files of ``rev`` of this repository, unpacked under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it (3.10.12, 3.11.4 on)
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` process run in ``root``,
    or ``{"error": ...}`` when it gives none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {RUN_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def against_bound(parent: float, change: float, better: str, bound: float) -> str:
    """The change's median relative to the parent's, next to the metric's
    relative bound, and ``PAST BOUND`` when it is worse by more."""
    if change == parent:
        rel = 0.0
    elif parent == 0:
        rel = math.copysign(math.inf, change - parent)
    else:
        rel = (change - parent) / abs(parent)
    worse = rel if better == "lower" else -rel
    return f"  {rel:+.1%} vs bound {bound:.0%}" + (" PAST BOUND" if worse > bound else "")


def summarize(workload: str, pairs: list, better: dict, bounds: dict | None = None) -> list[str]:
    """Lines of the per-metric summary of one workload's pairs; ``bounds``
    holds the relative bound of each end-to-end metric."""
    bounds = bounds or {}
    good = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    lines = [f"== {workload}: {len(good)} of {len(pairs)} pairs with both results"]
    if not good:
        return lines
    for name in good[0]["parent"]["metrics"]:
        side = {s: [p[s]["metrics"][name]["value"] for p in good] for s in ("parent", "change")}
        (p1, pm, p3), (c1, cm, c3) = quartiles(side["parent"]), quartiles(side["change"])
        direction = better.get(name)
        if direction is None:
            won = "-"
        else:
            sign = 1 if direction == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
        unit = good[0]["parent"]["metrics"][name]["unit"]
        bound = against_bound(pm, cm, direction, bounds[name]) if name in bounds else ""
        lines.append(f"{name:40s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                     f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {unit}  "
                     f"won {won}/{len(good)}  gap {abs(cm - pm):.3g} vs parent IQR {p3 - p1:.3g}"
                     + bound)
    for s in ("parent", "change"):
        failed = sum(p[s].get("failed", 0) for p in good)
        attempted = sum(p[s].get("attempted", 0) for p in good)
        lines.append(f"{s} failed {failed}/{attempted}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--change", help="git revision of the change (default: the working tree)")
    parser.add_argument("--workload", action="append",
                        help="workload to run, repeatable (default: every one in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i adds i")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    tmp = Path(tempfile.mkdtemp(prefix="despec-pairs-"))
    results: dict = {}
    try:
        try:
            roots = {"parent": export(args.parent, tmp / "parent"),
                     "change": export(args.change, tmp / "change") if args.change else ROOT}
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive failed: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        for workload in workloads:
            pairs = results.setdefault(workload, [])
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench(roots[side], workload, seed, args.seconds, args.trace)
                pairs.append(pair)
                shown = {s: pair[s].get("metrics", {}).get("image_s.p50", {}).get("value",
                                                                               pair[s].get("error"))
                         for s in ("parent", "change")}
                print(f"{workload} pair {i + 1} seed {seed} first {order[0]}: "
                      f"image_s.p50 parent {shown['parent']} change {shown['change']}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for workload, pairs in results.items():
        print("\n".join(summarize(workload, pairs, better, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
