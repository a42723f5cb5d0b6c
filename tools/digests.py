#!/usr/bin/env python3
"""Byte-identity check of this checkout's outputs against a parent revision.

    python3 tools/digests.py --parent HEAD~1

The parent revision is exported with ``tools/pairs.py``'s ``export``;
the change is this checkout's working tree.  Each side runs in a fresh process with its own ``src``
and ``perfbench`` directories first on ``sys.path``, over the same runs:

* each ``perfbench/core.py`` workload on the six inputs ``make_inputs``
  writes for seed 1, at the workload's thread count and at 1 thread;
* every builtin scene at its builtin size at 1 thread, at noise sigma 0
  and 3, on the full and the ``--fast`` path, from initial_k 1 and 8;
* ``fallback_image`` at 1 thread from initial_k 1 and 8, whose cluster
  has no histogram peak, so its model takes recovery's percentile
  fallback;
* four-materials lit by ``TINT`` at noise sigma 3, at 1 thread, with the
  illumination given as a direction (``IlluminationBasis.from_rgb``) and
  as a white balance (``white_balance``), on the full and the ``--fast``
  path;
* four-materials lit by ``YELLOW`` at noise sigma 3, at 1 thread, with
  that illumination given as a direction, on the full and the ``--fast``
  path, so the separation kernel runs with a zero illumination channel;
* ``wheel_image`` in float32 and in float64 on the ``--fast`` path at 1
  and 2 threads, whose black, gray and midpoint-bucket pixels take the
  separation kernel's float64 labeling rule, and every other pixel its
  filter, in the image's precision.

For each run it prints the SHA-256 of the input image each side renders
or loads for itself, and of the diffuse, specular and label arrays
(dtype, shape and bytes), and every ``PipelineDiagnostics.to_lines``
line except the timings, plus any warning the run issued.  It then lists
the runs whose record differs between the sides and exits 1 if any do,
2 if a side could not be run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
INPUT_SEED = 1        # make_inputs' seed, that of pairs.py's first pair
RUN_TIMEOUT_S = 1800  # one side's runs take well under a minute on 2 vCPUs
TINT = (1.0, 0.8, 0.6)  # a non-white illumination color
YELLOW = (1.0, 1.0, 0.0)  # an illumination color with a zero channel

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).with_name("pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _sha256(array) -> str:
    digest = hashlib.sha256(f"{array.dtype.str} {array.shape}".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def fallback_image() -> np.ndarray:
    """A 16×16 ramp of one material whose illumination-parallel
    coefficients run evenly from 0.6 to 0.99 in row-major order: about
    3 pixels per histogram bin, below the 5-count floor of a peak."""
    coeff = np.linspace(0.6, 0.99, 256)[:, None]
    ortho = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)  # orthogonal to white
    return (np.sqrt(1.0 - coeff * coeff) * ortho + coeff / np.sqrt(3.0)).reshape(16, 16, 3)


def wheel_image(height: int = 32, width: int = 512, real=np.float32) -> np.ndarray:
    """A wheel of every hue under white light, built in float64 and
    returned as ``real``: row r shifts the column hues by r / height of a
    column's step, so together the rows hold a hue every
    2pi / (height·width) rad, finer than the labeling's hue buckets, and
    the amplitude runs from 0 at the top row to 0.9 of the largest that
    keeps each hue's channels nonnegative at the bottom.  The pixels on
    every 41st anti-diagonal are black.  At 512 px wide, ``--fast``
    downsamples it by 3."""
    from despec.model import IlluminationBasis

    basis = IlluminationBasis.white()
    r, c = np.mgrid[:height, :width]
    ortho = basis.orthogonal(-np.pi + 2.0 * np.pi * (c + r / height) / width)
    top = 1.0 / np.sqrt(1.0 + 3.0 * np.minimum(ortho.min(axis=-1), 0.0) ** 2)
    amp = (0.9 * r / (height - 1) * top)[..., None]
    img = 0.5 * (amp * ortho + np.sqrt(1.0 - amp * amp) * basis.direction)
    img[(r + c) % 41 == 0] = 0.0
    return img.astype(real, copy=False)


def record(img, cfg) -> dict:
    """The record of one ``pipeline.run(img, cfg)`` of the despec on
    ``sys.path``: the digests of its input, parts and labels, and its
    diagnostics and warnings, timings left out."""
    from despec import pipeline

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result, diag = pipeline.run(img, cfg)
    lines = [line for line in diag.to_lines() if "seconds" not in line.split(" = ")[0]]
    return {"input": _sha256(img), "diffuse": _sha256(result.diffuse),
            "specular": _sha256(result.specular), "labels": _sha256(diag.labels),
            "lines": lines + [f"warning {w.category.__name__}: {w.message}" for w in caught]}


def side_records(root: Path) -> dict:
    """Every run's record, keyed by run name, with ``root``'s ``src`` and
    ``perfbench`` imported."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import core
    from despec import imgio

    records = {}
    with tempfile.TemporaryDirectory(prefix="despec-digests-") as tmp:
        for name, workload in core.WORKLOADS.items():
            _, paths = core.make_inputs(workload, INPUT_SEED, tmp)
            for i, path in enumerate(paths):
                img = imgio.load(path)
                for threads in dict.fromkeys((workload.threads, 1)):
                    records[f"{name} input{i} threads={threads}"] = record(
                        img, core.config(workload, threads))
    for name, img, cfg in scene_runs():
        records[name] = record(img, cfg)
    return records


def scene_runs():
    """Yield ``(name, image, config)`` of every run on a synthetic image:
    the builtin scenes, the fallback image, the tinted and the yellow-lit
    scenes and the wheel, in that order, with the despec on ``sys.path``."""
    from despec import pipeline, synth
    from despec.clustering import ClusterConfig

    for scene in synth.BUILTIN_SCENES:
        gt = synth.render(synth.builtin_scene(scene))
        for sigma in (0.0, 3.0):
            img = synth.add_noise(gt, sigma, seed=0)
            for fast in (False, True):
                for k in (1, 8):
                    cfg = pipeline.PipelineConfig(fast=fast, threads=1,
                                                  cluster=ClusterConfig(initial_k=k))
                    yield (f"{scene} sigma={sigma:g} {'fast' if fast else 'full'} "
                           f"initial_k={k}", img, cfg)
    for k in (1, 8):
        yield (f"fallback initial_k={k}", fallback_image(),
               pipeline.PipelineConfig(threads=1, cluster=ClusterConfig(initial_k=k)))
    build = getattr(synth, "build_scene", None)  # a revision before render took the params
    for name, color in (("tint", TINT), ("yellow", YELLOW)):
        rgb = ",".join(f"{c:g}" for c in color)
        params = synth.scene_from_text(f"scene = four-materials\nillumination = {rgb}\n")
        img = synth.add_noise(synth.render(build(params) if build else params), 3.0, seed=0)
        for illum in (rgb, f"divide:{rgb}") if name == "tint" else (rgb,):
            for fast in (False, True):
                yield (f"four-materials {name} sigma=3 illum={illum} "
                       f"{'fast' if fast else 'full'}",
                       img, pipeline.PipelineConfig(illumination=illum, fast=fast, threads=1))
    for real in (np.float32, np.float64):
        for threads in (1, 2):
            yield (f"wheel {real.__name__} fast threads={threads}", wheel_image(real=real),
                   pipeline.PipelineConfig(fast=True, threads=threads))


def differing(parent: dict, change: dict) -> list[str]:
    """Names of the runs whose records differ, or that one side lacks."""
    return [name for name in dict.fromkeys([*parent, *change])
            if parent.get(name) != change.get(name)]


def show(name: str, rec: dict | None, side: str = "") -> list[str]:
    if rec is None:
        return [f"{name}{side}: no run"]
    return ([f"{name}{side}: input {rec['input']} diffuse {rec['diffuse']} "
             f"specular {rec['specular']} labels {rec['labels']}"]
            + [f"    {line}" for line in rec["lines"]])


def run_side(root: Path) -> dict | str:
    """The records of one side, from a fresh process run in ``root``, or
    the error text when it gives none."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--side", str(root)]
    try:
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"no result within {RUN_TIMEOUT_S} s"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return f"exit {done.returncode}: {done.stderr.strip()[-300:]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--parent", help="git revision to compare against")
    mode.add_argument("--side", help=argparse.SUPPRESS)  # one side's runs, in this process
    args = parser.parse_args(argv)
    if args.side:
        print(json.dumps(side_records(Path(args.side))))
        return 0

    tmp = Path(tempfile.mkdtemp(prefix="despec-digests-"))
    try:
        try:
            roots = {"parent": pairs.export(args.parent, tmp / "parent"), "change": ROOT}
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive failed: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        sides = {side: run_side(root) for side, root in roots.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for side, records in sides.items():
        if isinstance(records, str):
            print(f"error: the {side} side gave no records: {records}", file=sys.stderr)
            return 2

    parent, change = sides["parent"], sides["change"]
    differ = differing(parent, change)
    for name in dict.fromkeys([*parent, *change]):
        if name in differ:
            print("\n".join(show(name, parent.get(name), " [parent]")
                            + show(name, change.get(name), " [change]")))
        else:
            print("\n".join(show(name, parent[name])))
    print(f"{len(set(parent) | set(change))} runs, {len(differ)} differ")
    for name in differ:
        print(f"DIFFERS: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
