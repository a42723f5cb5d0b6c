"""Per-material diffuse/specular separation.

Within one material cluster, the illumination-parallel coefficient of a
pixel's chromaticity is smallest for pixels that carry no highlight at
all.  The first peak of that coefficient's histogram therefore marks the
pure-diffuse population; it fixes the material's position on the unit
circle and with it the ratio needed to split every pixel of the cluster
into body and surface reflection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import run_rows
from .errors import (
    DegenerateRatioError,
    EmptyClusterError,
    ModelMissingError,
    NoPeakError,
)
from .model import EPS_GRAY, IlluminationBasis, _norm3
from .clustering import ClusterSet, SpecularFreeField


@dataclass
class RecoveryConfig:
    bin_width: float = 0.005
    overshoot: float = 0.001      # histogram range extends to 1 + overshoot
    peak_floor: int = 5           # absolute smoothed-count floor for a peak
    peak_frac: float = 0.005      # relative floor, fraction of cluster size
    fallback_percentile: float = 2.0  # used when no peak qualifies


@dataclass(frozen=True)
class MaterialModel:
    """Everything needed to separate pixels of one material.

    ``diffuse_ortho``/``diffuse_parallel`` are the unit-circle coordinates
    of the pure-diffuse chromaticity; ``ratio`` is their quotient.
    """

    center: np.ndarray
    diffuse_ortho: float
    diffuse_parallel: float
    ratio: float
    diffuse_chroma: np.ndarray


@dataclass
class SeparationResult:
    diffuse: np.ndarray
    specular: np.ndarray


def histogram_edges(cfg: RecoveryConfig) -> np.ndarray:
    n_bins = int(np.ceil((1.0 + cfg.overshoot) / cfg.bin_width))
    return np.arange(n_bins + 1, dtype=np.float64) * cfg.bin_width


def _smooth3(counts: np.ndarray) -> np.ndarray:
    """3-bin box filter with zero padding at the ends."""
    padded = np.zeros(len(counts) + 2, dtype=np.float64)
    padded[1:-1] = counts
    return (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0


def _first_peak_index(counts: np.ndarray, cfg: RecoveryConfig) -> int:
    """Bin index of the lowest-coefficient local maximum of a histogram.

    The counts are box-smoothed over 3 bins first, and a candidate must
    hold at least max(peak_floor, peak_frac * cluster size) smoothed
    counts; tiny leading bumps are not peaks.  Raises NoPeakError when
    nothing qualifies.
    """
    floor = max(float(cfg.peak_floor), cfg.peak_frac * float(counts.sum()))
    smooth = _smooth3(counts)
    left = np.empty_like(smooth)
    right = np.empty_like(smooth)
    left[0] = 0.0
    left[1:] = smooth[:-1]
    right[-1] = 0.0
    right[:-1] = smooth[1:]
    ok = (smooth >= left) & (smooth >= right) & (smooth >= floor)
    idx = np.flatnonzero(ok)
    if len(idx) == 0:
        raise NoPeakError("no histogram bin qualifies as a peak")
    return int(idx[0])


def estimate_ratio(diffuse_parallel: float) -> tuple[float, float]:
    """Unit-circle completion of the pure-diffuse parallel coefficient.

    Returns (diffuse_ortho, ratio).  Raises DegenerateRatioError when the
    coefficient sits so close to 1 that the material is effectively the
    illumination color and the ratio blows up.
    """
    if not 0.0 < diffuse_parallel < 1.0 - EPS_GRAY:
        raise DegenerateRatioError(
            f"pure-diffuse parallel coefficient {diffuse_parallel!r} leaves no "
            "stable orthogonal component"
        )
    diffuse_ortho = float(np.sqrt(1.0 - diffuse_parallel * diffuse_parallel))
    return diffuse_ortho, diffuse_ortho / diffuse_parallel


def _diffuse_parallel_for_cluster(coeffs: np.ndarray, cfg: RecoveryConfig) -> float:
    """Pure-diffuse parallel coefficient of one cluster.

    The histogram's first peak locates the pure-diffuse population; the
    returned value is the median coefficient of the pixels inside the
    peak bin and its immediate neighbors.  The bin center alone would be
    quantized to half a bin width, and a window mean drifts upward with
    the highlight fringe; the window median is exact on clean input as
    long as pure pixels hold the majority, and degrades gracefully under
    noise.  With no acceptable peak (highlight covering the whole
    cluster), falls back to a low percentile, which biases the split but
    keeps it usable.
    """
    edges = histogram_edges(cfg)
    clipped = np.clip(coeffs, 0.0, edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    try:
        i = _first_peak_index(counts, cfg)
    except NoPeakError:
        return float(np.percentile(coeffs, cfg.fallback_percentile))
    lo = edges[max(i - 1, 0)]
    hi = edges[min(i + 2, len(edges) - 1)]
    window = clipped[(clipped >= lo) & (clipped < hi)]
    if len(window) == 0:  # smoothing can mark a raw-empty bin; widen never fails
        return float((edges[i] + edges[i + 1]) / 2.0)
    return float(np.median(window))


def model_for_cluster(field: SpecularFreeField, clusters: ClusterSet, cluster_id: int,
                      basis: IlluminationBasis,
                      cfg: RecoveryConfig | None = None) -> MaterialModel | None:
    """MaterialModel for one cluster, or None when the material is too
    close to the illumination color to separate (those pixels pass
    through unchanged).  The cluster's coefficients are the field's
    ``parallel`` values under its labels."""
    cfg = cfg or RecoveryConfig()
    mask = clusters.labels == cluster_id
    if not mask.any():
        raise EmptyClusterError(f"cluster {cluster_id} has no pixels")
    coeffs = field.parallel[mask]
    diffuse_parallel = _diffuse_parallel_for_cluster(coeffs, cfg)
    try:
        diffuse_ortho, ratio = estimate_ratio(diffuse_parallel)
    except DegenerateRatioError:
        return None
    center = basis.orthogonal(clusters.hues[cluster_id])
    chroma = diffuse_ortho * center + diffuse_parallel * basis.direction
    chroma = np.clip(chroma, 0.0, None)
    chroma = chroma / float(_norm3(chroma))
    return MaterialModel(
        center=center,
        diffuse_ortho=diffuse_ortho,
        diffuse_parallel=diffuse_parallel,
        ratio=ratio,
        diffuse_chroma=chroma,
    )


def estimate_models(field: SpecularFreeField, clusters: ClusterSet,
                    basis: IlluminationBasis,
                    cfg: RecoveryConfig | None = None) -> dict[int, MaterialModel | None]:
    """Material models for every cluster id, None marking pass-through."""
    cfg = cfg or RecoveryConfig()
    return {
        cid: model_for_cluster(field, clusters, cid, basis, cfg)
        for cid in range(clusters.n_clusters)
    }


def separate_image(img, clusters: ClusterSet, models: dict,
                   basis: IlluminationBasis, threads: int = 1) -> SeparationResult:
    """Apply each cluster's material model to its pixels.

    Flagged pixels and pass-through clusters keep their input value in
    the diffuse image with zero specular.  Raises ModelMissingError if a
    cluster id present in the labels has no entry in ``models``.
    """
    img = np.asarray(img, dtype=np.float64)
    labels = clusters.labels
    present = np.unique(labels[labels >= 0])
    for cid in present:
        if int(cid) not in models:
            raise ModelMissingError(f"no material model for cluster {int(cid)}")

    k = clusters.n_clusters
    # per-cluster rows: center (3), inverse ratio, active flag
    centers = np.zeros((k, 3), dtype=np.float64)
    inv_ratio = np.zeros(k, dtype=np.float64)
    active = np.zeros(k, dtype=np.float64)
    for cid, model in models.items():
        if model is None:
            continue
        centers[cid] = model.center
        inv_ratio[cid] = 1.0 / model.ratio
        active[cid] = 1.0

    d = basis.direction
    h = img.shape[0]
    diffuse = np.empty_like(img)
    specular = np.empty_like(img)

    def fill(rows):
        block = img[rows]
        lab = labels[rows]
        usable = lab >= 0
        lab_safe = np.where(usable, lab, 0)
        cen = centers[lab_safe]
        par = block[..., 0] * d[0] + block[..., 1] * d[1] + block[..., 2] * d[2]
        p_ortho = (block * cen).sum(axis=-1)
        strength = par - p_ortho * inv_ratio[lab_safe]
        strength *= active[lab_safe] * usable
        sp = np.clip(strength[..., None] * d, 0.0, block)
        specular[rows] = sp
        diffuse[rows] = block - sp

    run_rows(fill, h, threads)
    return SeparationResult(diffuse=diffuse, specular=specular)
