"""Evaluation utilities: reconstruction quality and clustering accuracy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

# Below this mean squared error the reconstruction counts as exact and
# the PSNR is reported as infinite.
MSE_EXACT = 1e-20


def psnr(result, truth) -> float:
    """Peak signal-to-noise ratio in dB against a peak of 1.0.

    Computed over all pixels and channels.  Returns math.inf when the
    mean squared error is below MSE_EXACT.
    """
    result = np.asarray(result, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if result.shape != truth.shape:
        raise DimensionMismatchError(f"shape {result.shape} vs {truth.shape}")
    mse = float(np.mean((result - truth) ** 2))
    if mse < MSE_EXACT:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def cluster_accuracy(labels, truth_labels) -> float:
    """Fraction of non-flagged pixels whose cluster maps onto the right
    material.

    Every predicted cluster claims the ground-truth material it overlaps
    most; a material may be claimed by several clusters, so splitting a
    material across clusters is not penalized, only mixing materials is.
    Pixels with negative predicted labels (flagged) are excluded.
    """
    labels = np.asarray(labels)
    truth_labels = np.asarray(truth_labels)
    if labels.shape != truth_labels.shape:
        raise DimensionMismatchError(f"shape {labels.shape} vs {truth_labels.shape}")
    valid = labels >= 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0
    pred = labels[valid].astype(np.int64)
    true = truth_labels[valid].astype(np.int64)
    n_pred = int(pred.max()) + 1
    n_true = int(true.max()) + 1
    table = np.bincount(pred * n_true + true, minlength=n_pred * n_true)
    table = table.reshape(n_pred, n_true)
    matched = int(table.max(axis=1).sum())
    return matched / n_valid


@dataclass
class EvalReport:
    """Evaluation summary; None fields are simply omitted on output."""

    psnr_diffuse: float | None = None
    psnr_specular: float | None = None
    cluster_accuracy: float | None = None

    def to_lines(self) -> list[str]:
        def fmt(x):
            return "inf" if math.isinf(x) else f"{x:.6g}"

        out = []
        if self.psnr_diffuse is not None:
            out.append(f"psnr_diffuse_db = {fmt(self.psnr_diffuse)}")
        if self.psnr_specular is not None:
            out.append(f"psnr_specular_db = {fmt(self.psnr_specular)}")
        if self.cluster_accuracy is not None:
            out.append(f"cluster_accuracy = {self.cluster_accuracy:.6f}")
        return out

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"


def write_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
