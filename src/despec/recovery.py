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
from .model import EPS_GRAY, IlluminationBasis
from .clustering import FLAG_VALID, ClusterSet, SpecularFreeField, nearest_hue, split_block


BIN_WIDTH = 0.005            # coefficient histogram bin width
HIST_OVERSHOOT = 0.001       # histogram range extends to 1 + overshoot
PEAK_FLOOR = 5               # absolute smoothed-count floor for a peak
PEAK_FRAC = 0.005            # relative peak floor, fraction of cluster size
FALLBACK_PERCENTILE = 2.0    # used when no peak qualifies

# the coefficient histogram's bin edges, 0 to 1 + overshoot
EDGES = np.arange(int(np.ceil((1.0 + HIST_OVERSHOOT) / BIN_WIDTH)) + 1,
                  dtype=np.float64) * BIN_WIDTH


@dataclass(frozen=True)
class MaterialModel:
    """Everything needed to separate pixels of one material.

    ``diffuse_ortho``/``diffuse_parallel`` are the unit-circle coordinates
    of the pure-diffuse chromaticity in the (``center``, illumination)
    frame; ``ratio`` is their quotient.
    """

    center: np.ndarray
    diffuse_ortho: float
    diffuse_parallel: float
    ratio: float


@dataclass
class SeparationResult:
    diffuse: np.ndarray
    specular: np.ndarray
    labels: np.ndarray  # the per-pixel cluster labels the split used


def _smooth3(counts: np.ndarray) -> np.ndarray:
    """3-bin box filter with zero padding at the ends."""
    padded = np.zeros(len(counts) + 2, dtype=np.float64)
    padded[1:-1] = counts
    return (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0


def _first_peak_index(counts: np.ndarray) -> int:
    """Bin index of the lowest-coefficient local maximum of a histogram.

    The counts are box-smoothed over 3 bins first, and a candidate must
    hold at least max(PEAK_FLOOR, PEAK_FRAC * cluster size) smoothed
    counts; tiny leading bumps are not peaks.  Raises NoPeakError when
    nothing qualifies.
    """
    floor = max(PEAK_FLOOR, PEAK_FRAC * float(counts.sum()))
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


def _diffuse_parallel_for_cluster(coeffs: np.ndarray) -> float:
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
    ordered = np.clip(coeffs, 0.0, EDGES[-1])
    ordered.sort()
    # the sorted coefficients below each edge; their differences are the
    # bin counts, and the last bin also holds its right edge, as in
    # np.histogram
    pos = np.searchsorted(ordered, EDGES, side="left")
    counts = np.diff(pos)
    counts[-1] += len(ordered) - pos[-1]
    try:
        i = _first_peak_index(counts)
    except NoPeakError:
        return float(np.percentile(coeffs, FALLBACK_PERCENTILE))
    window = ordered[pos[max(i - 1, 0)]:pos[min(i + 2, len(EDGES) - 1)]]
    if len(window) == 0:  # smoothing can mark a raw-empty bin; widen never fails
        return float((EDGES[i] + EDGES[i + 1]) / 2.0)
    return float(np.median(window))


def model_for_cluster(field: SpecularFreeField, clusters: ClusterSet, cluster_id: int,
                      basis: IlluminationBasis) -> MaterialModel | None:
    """MaterialModel for one cluster, or None when the material is too
    close to the illumination color to separate (those pixels pass
    through unchanged).  The cluster's coefficients are the field's
    ``parallel`` slices that hold it."""
    members = clusters.members(cluster_id)
    if not members:
        raise EmptyClusterError(f"cluster {cluster_id} has no pixels")
    coeffs = np.concatenate([field.parallel[rows] for rows in members])
    diffuse_parallel = _diffuse_parallel_for_cluster(coeffs)
    try:
        diffuse_ortho, ratio = estimate_ratio(diffuse_parallel)
    except DegenerateRatioError:
        return None
    return MaterialModel(
        center=basis.orthogonal(clusters.hues[cluster_id]),
        diffuse_ortho=diffuse_ortho,
        diffuse_parallel=diffuse_parallel,
        ratio=ratio,
    )


def estimate_models(field: SpecularFreeField, clusters: ClusterSet,
                    basis: IlluminationBasis) -> dict[int, MaterialModel | None]:
    """Material models for every cluster id, None marking pass-through."""
    return {
        cid: model_for_cluster(field, clusters, cid, basis)
        for cid in range(clusters.n_clusters)
    }


def separate_image(img, clusters: ClusterSet, models: dict,
                   basis: IlluminationBasis, threads: int = 1,
                   labels: np.ndarray | None = None) -> SeparationResult:
    """Apply each cluster's material model to its pixels.

    The image is walked once, in short row chunks, and each chunk works
    in a few chunk-sized buffers: the specular strength is summed channel
    by channel into one, and the specular part, its clip, the diffuse
    part and the additivity repair go one channel at a time, so no
    3-channel temporary is made.

    ``labels`` is an (H, W) label map of the image, as
    ``SpecularFreeField.label_map`` builds it; each pixel takes its label
    from there.  With ``labels`` None (clusters found on a downsampled
    copy), each chunk labels its own pixels instead, straight into the
    returned map: every pixel is split against the illumination (hue and
    flags only; the parallel coefficient is not summed) and takes the
    nearest of ``clusters.hues``, while flagged pixels get minus their
    flag.  The labels used are returned in ``SeparationResult.labels``.

    Flagged pixels and pass-through clusters keep their input value in
    the diffuse image with zero specular.  Raises ModelMissingError if a
    usable label has no entry in ``models``.
    """
    img = np.asarray(img, dtype=np.float64)
    k = clusters.n_clusters
    given = labels is not None
    if not given:
        labels = np.empty(img.shape[:2], dtype=np.int32)
    elif labels.shape != img.shape[:2]:
        raise ValueError(f"label map shape {labels.shape} does not match image {img.shape}")

    # per-cluster tables indexed by slot = max(label + 1, 0): slot 0 takes
    # the flagged pixels, slot cid + 1 cluster cid, and slot k + 1 every
    # label >= k (take clips to it).  A pixel's specular strength is its
    # dot product with the slot's axis d - center / ratio, the parallel
    # coefficient less the diffuse share the ortho one implies; flagged
    # and pass-through slots keep a zero axis, so nothing is split off.
    d = basis.direction
    axis = np.zeros((3, k + 2))
    known = np.zeros(k + 2, dtype=bool)
    known[0] = True
    for cid, model in models.items():
        if not 0 <= cid < k:
            continue
        known[cid + 1] = True
        if model is not None:
            axis[:, cid + 1] = d - model.center / model.ratio

    diffuse = np.empty_like(img)
    specular = np.empty_like(img)
    # a pixel lacks a model only where its slot does: some slot 0..k with
    # no entry in ``models``, or slot k + 1, which only a given label >= k
    # reaches; otherwise the per-pixel check is skipped
    gaps = not known[:k + 1].all()

    def fill(rows):
        block = img[rows]
        lab = labels[rows]
        if not given:
            hue, _, _, flags = split_block(block, basis, parallel=False)
            np.negative(flags, out=lab, dtype=np.int32)
            np.copyto(lab, nearest_hue(hue, clusters.hues), where=flags == FLAG_VALID)
        slot = np.maximum(lab + 1, 0)
        if gaps or (given and lab.max() >= k):
            missing = ~known.take(slot, mode="clip")
            if missing.any():
                raise ModelMissingError(f"no material model for cluster {int(lab[missing][0])}")
        # strength = block · axis, summed channel by channel in one buffer
        scratch = np.empty(lab.shape)
        strength = block[..., 0] * axis[0].take(slot, mode="clip", out=scratch)
        for i in (1, 2):
            strength += np.multiply(block[..., i], axis[i].take(slot, mode="clip", out=scratch),
                                    out=scratch)
        miss = np.empty(lab.shape, dtype=bool)
        for i in range(3):
            b, sp, dif = block[..., i], specular[rows, :, i], diffuse[rows, :, i]
            np.multiply(strength, d[i], out=sp)
            np.clip(sp, 0.0, b, out=sp)
            np.subtract(b, sp, out=dif)
            # b - sp rounds, and adding sp back can miss b by an ulp.
            # There dif >= b / 2, so b - dif is exact (Sterbenz) and
            # taking it as the specular part makes the sum exact again.
            np.not_equal(np.add(dif, sp, out=scratch), b, out=miss)
            if miss.any():
                np.subtract(b, dif, out=sp, where=miss)

    run_rows(fill, img.shape[0], threads)
    return SeparationResult(diffuse=diffuse, specular=specular, labels=labels)
