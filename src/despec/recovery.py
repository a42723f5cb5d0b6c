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
from .clustering import FLAG_VALID, ClusterSet, SpecularFreeField, hue_lookup, split_block


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
    ordered = np.sort(coeffs)
    # the sorted coefficients below each edge; their differences are the
    # bin counts (every coefficient is in [0, 1], below the last edge)
    pos = np.searchsorted(ordered, EDGES, side="left")
    counts = np.diff(pos)
    try:
        i = _first_peak_index(counts)
    except NoPeakError:
        return float(np.percentile(coeffs, FALLBACK_PERCENTILE))
    # the window holds 3x the peak's smoothed count, >= 3 * PEAK_FLOOR;
    # it is sorted, so its median is read by index, with np.median's bits
    # (the mean of the middle pair for an even length)
    window = ordered[pos[max(i - 1, 0)]:pos[min(i + 2, len(EDGES) - 1)]]
    h = len(window) // 2
    return float(window[h] if len(window) % 2 else (window[h - 1] + window[h]) / 2)


def parallel_coefficients(field: SpecularFreeField, clusters: ClusterSet,
                          cluster_id: int) -> np.ndarray:
    """Parallel coefficient sqrt(1 - amplitude²) of each of one cluster's
    field entries, in ``members`` order; EmptyClusterError if it has none."""
    members = clusters.members(cluster_id)
    if not members:
        raise EmptyClusterError(f"cluster {cluster_id} has no pixels")
    coeffs = np.concatenate([field.amplitude[rows] for rows in members])
    coeffs *= coeffs
    np.subtract(1.0, coeffs, out=coeffs)
    return np.sqrt(np.maximum(coeffs, 0.0, out=coeffs), out=coeffs)


def model_for_cluster(field: SpecularFreeField, clusters: ClusterSet, cluster_id: int,
                      basis: IlluminationBasis) -> MaterialModel | None:
    """MaterialModel for one cluster, or None when the material is too
    close to the illumination color to separate (those pixels pass
    through unchanged); its coefficients come from parallel_coefficients."""
    diffuse_parallel = _diffuse_parallel_for_cluster(
        parallel_coefficients(field, clusters, cluster_id))
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


def working_image(img) -> np.ndarray:
    """``img`` as an array the pipeline works on: float32 as it is, so a
    PFM image is never widened whole, and anything else as float64."""
    img = np.asarray(img)
    return img if img.dtype == np.float32 else img.astype(np.float64, copy=False)


def separate_image(img, clusters: ClusterSet, models: dict,
                   basis: IlluminationBasis, threads: int = 1,
                   labels: np.ndarray | None = None) -> SeparationResult:
    """Apply each cluster's material model to its pixels.

    The image is walked once, in short row chunks, and each chunk works
    in a few chunk-sized buffers and its own output rows: the specular
    strength is summed channel by channel into one buffer, the clipped
    specular part goes one channel at a time into the specular rows, and
    then the diffuse part input - specular and the exact specular part
    input - diffuse each run once over the chunk's whole pixels, so no
    3-channel temporary is made.

    A float32 image gives float32 parts, any other image float64 parts.
    The strength and the clipped specular part are computed in float64;
    for a float32 image the specular part is then rounded to float32 and
    the two subtractions run in float32.  Either way diffuse + specular
    == input, input - diffuse == specular and input - specular ==
    diffuse hold bit for bit in the image's dtype.

    ``labels`` is an (H, W) label map of the image, as
    ``SpecularFreeField.label_map`` builds it; each pixel takes its label
    from there.  With ``labels`` None (clusters found on a downsampled
    copy), each chunk labels its own pixels instead, straight into the
    returned map: every pixel is split by ``split_block`` and takes the
    nearest of ``clusters.hues`` (``nearest_hue``, read from one
    ``hue_lookup`` table per call), while flagged pixels get minus their
    flag.  The labels used are returned in ``SeparationResult.labels``.

    Flagged pixels and pass-through clusters keep their input value in
    the diffuse image with zero specular.  Raises ModelMissingError if a
    usable label has no entry in ``models``.
    """
    img = working_image(img)
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
    if not given:
        nearest = hue_lookup(clusters.hues)

    def fill(rows):
        block = img[rows]
        lab = labels[rows]
        if not given:
            hue, _, flags = split_block(block, basis)
            np.negative(flags, out=lab, dtype=np.int32)
            np.copyto(lab, nearest(hue), where=flags == FLAG_VALID)
        slot = np.add(lab, 1, dtype=np.intp)  # intp, so no take below casts it
        np.maximum(slot, 0, out=slot)
        if gaps or (given and lab.max() >= k):
            missing = ~known.take(slot, mode="clip")
            if missing.any():
                raise ModelMissingError(f"no material model for cluster {int(lab[missing][0])}")
        # strength = block · axis, summed channel by channel in one
        # float64 buffer (a float32 block is widened exactly by the ufuncs)
        scratch = np.empty(lab.shape)
        strength = block[..., 0] * axis[0].take(slot, mode="clip", out=scratch)
        for i in (1, 2):
            strength += np.multiply(block[..., i], axis[i].take(slot, mode="clip", out=scratch),
                                    out=scratch)
        sp, dif = specular[rows], diffuse[rows]
        for i in range(3):
            # the specular part is clipped in float64 and rounded into sp;
            # rounding is monotone and the sample b is representable, so
            # 0 <= sp <= b
            # (maximum then minimum: np.clip's bits at a third of its time)
            np.multiply(strength, d[i], out=scratch)
            np.maximum(scratch, 0.0, out=scratch)
            np.minimum(scratch, block[..., i], out=sp[..., i])
        np.subtract(block, sp, out=dif)
        # b - dif is exact (Sterbenz), sample by sample: if sp >= b / 2,
        # b - sp is exact, so dif = b - sp and b - dif = sp; if sp < b / 2,
        # dif >= b / 2.  So dif + sp == b, b - dif == sp and b - sp == dif,
        # bit for bit.
        np.subtract(block, dif, out=sp)

    run_rows(fill, img.shape[0], threads)
    return SeparationResult(diffuse=diffuse, specular=specular, labels=labels)
