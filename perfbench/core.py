"""Workloads, the benchmarked operation and its output checks.

Import this module only after the checkout's ``src`` directory is on
``sys.path``: it imports despec from there.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass

import numpy as np

from despec import imgio, metrics, pipeline, synth
from despec.clustering import ClusterConfig
from despec.pipeline import PipelineConfig

SIGMA = 3.0               # noise level of every input, in 8-bit steps
# Noisy inputs per run, each from its own seed.  The k-means iteration
# count, and with it the time of an operation, varies between inputs, so
# a run takes its median over several.
IMAGES_PER_RUN = 6
PSNR_FLOOR_DB = 30.0      # the acceptance suite's floor at sigma = 3
ACCURACY_FLOOR = 0.99     # the acceptance suite's cluster-accuracy floor


@dataclass(frozen=True)
class Workload:
    scene: str
    width: int
    height: int
    fast: bool
    threads: int          # requested worker count, capped at nproc
    initial_k: int = 1

    @property
    def pixels(self) -> int:
        return self.width * self.height


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "full-vga": Workload("four-materials", 650, 450, fast=False, threads=1),
    "fast-1080p": Workload("four-materials", 1920, 1080, fast=True, threads=2),
    "overseg-k8": Workload("over-seg", 500, 300, fast=False, threads=1, initial_k=8),
}


def config(workload: Workload, threads: int) -> PipelineConfig:
    return PipelineConfig(
        fast=workload.fast,
        threads=threads,
        cluster=ClusterConfig(initial_k=workload.initial_k),
    )


@dataclass
class Truth:
    diffuse: np.ndarray
    labels: np.ndarray


def make_inputs(workload: Workload, seed: int, in_dir: str) -> tuple[Truth, list[str]]:
    """Render the workload's scene once and write IMAGES_PER_RUN noisy
    PFM inputs, with noise seeds derived from ``seed``."""
    gt = synth.render(synth.builtin_scene(workload.scene, workload.width, workload.height))
    paths = []
    for i, image_seed in enumerate(np.random.SeedSequence(seed).generate_state(IMAGES_PER_RUN)):
        path = os.path.join(in_dir, f"input{i}.pfm")
        imgio.save(synth.add_noise(gt, SIGMA, seed=int(image_seed)), path)
        paths.append(path)
    return Truth(diffuse=gt.diffuse, labels=gt.labels), paths


OUTPUT_FILES = ("diffuse.pfm", "specular.pfm")


@dataclass
class Outcome:
    image: np.ndarray
    result: object
    diag: object
    warnings: list


def operation(src: str, out_dir: str, cfg: PipelineConfig) -> Outcome:
    """The library form of ``despec remove``: load a PFM, separate it and
    save the diffuse and specular PFMs into ``out_dir``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        image = imgio.load(src)
        result, diag = pipeline.run(image, cfg)
        for name, part in zip(OUTPUT_FILES, (result.diffuse, result.specular)):
            imgio.save(part, os.path.join(out_dir, name))
    return Outcome(image, result, diag, list(caught))


def output_digest(out_dir: str) -> str:
    """SHA-256 over the bytes of both output files."""
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


@dataclass
class Checked:
    psnr_db: float
    accuracy: float
    problems: list


def check(outcome: Outcome, truth: Truth) -> Checked:
    """Output checks: exact additivity against the loaded input,
    nonnegative parts, and the acceptance suite's quality floors."""
    diffuse, specular = outcome.result.diffuse, outcome.result.specular
    problems = []
    if not np.array_equal(diffuse + specular, outcome.image):
        problems.append("diffuse + specular differs from the input")
    if diffuse.min() < 0 or specular.min() < 0:
        problems.append("negative output sample")
    psnr_db = metrics.psnr(diffuse, truth.diffuse)
    if not psnr_db >= PSNR_FLOOR_DB:
        problems.append(f"diffuse PSNR {psnr_db:.3f} dB below {PSNR_FLOOR_DB} dB")
    accuracy = metrics.cluster_accuracy(outcome.diag.labels, truth.labels)
    if not accuracy >= ACCURACY_FLOOR:
        problems.append(f"cluster accuracy {accuracy:.5f} below {ACCURACY_FLOOR}")
    return Checked(psnr_db, accuracy, problems)
