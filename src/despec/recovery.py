"""Per-material diffuse/specular separation.

Within one material cluster, the illumination-parallel coefficient of a
pixel's chromaticity is smallest for pixels that carry no highlight at
all.  The first peak of that coefficient's histogram therefore marks the
pure-diffuse population; it fixes the material's position on the unit
circle and with it the ratio needed to split every pixel of the cluster
into body and surface reflection; a histogram without a peak falls
back to a low percentile of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import run_rows
from .errors import EmptyClusterError
from .model import EPS_GRAY, IlluminationBasis
from .clustering import ClusterSet, SpecularFreeField, pixel_labeler


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


def _first_peak_index(counts: np.ndarray) -> int | None:
    """Bin index of the lowest-coefficient local maximum of a histogram,
    or None when no bin qualifies.

    The counts are box-smoothed over 3 bins first, with zeros beyond the
    ends, and a candidate must hold at least max(PEAK_FLOOR, PEAK_FRAC *
    cluster size) smoothed counts; tiny leading bumps are not peaks.
    The counts are integers, so each 3-bin sum is exact in any order.
    """
    floor = max(PEAK_FLOOR, PEAK_FRAC * float(counts.sum()))
    smooth = np.convolve(counts, np.ones(3)) / 3.0  # bin i at i + 1
    smooth[[0, -1]] = 0.0  # the zeros beyond the ends
    mid = smooth[1:-1]
    idx = np.flatnonzero((mid >= smooth[:-2]) & (mid >= smooth[2:]) & (mid >= floor))
    return int(idx[0]) if len(idx) else None


def estimate_ratio(diffuse_parallel: float) -> tuple[float, float] | None:
    """Unit-circle completion of the pure-diffuse parallel coefficient.

    Returns (diffuse_ortho, ratio), or None when the coefficient is not
    in (0, 1 - EPS_GRAY): at the top end the material is effectively the
    illumination color and the ratio blows up, so it has no split.
    """
    if not 0.0 < diffuse_parallel < 1.0 - EPS_GRAY:
        return None
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
    if (i := _first_peak_index(counts)) is None:
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
    """MaterialModel for one cluster, or estimate_ratio's None when the
    material is too close to the illumination color to separate (those
    pixels pass through); its coefficients come from parallel_coefficients."""
    diffuse_parallel = _diffuse_parallel_for_cluster(
        parallel_coefficients(field, clusters, cluster_id))
    if (split := estimate_ratio(diffuse_parallel)) is None:
        return None
    diffuse_ortho, ratio = split
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
    strength is summed channel by channel, each channel's share goes
    into the specular rows, and the clip, the diffuse part input -
    specular and the exact specular part input - diffuse each run once
    over the chunk's whole pixels, so no 3-channel temporary is made.

    A float32 image gives float32 parts, any other image float64 parts.
    The strength is computed in float64; each share is rounded into the
    image's dtype and then clipped, with the bits of a clip in float64.
    Either way diffuse + specular == input, input - diffuse == specular
    and input - specular == diffuse hold bit for bit.

    ``labels`` is an (H, W) label map of the image, as
    ``SpecularFreeField.label_map`` builds it; each pixel takes its label
    from there.  With ``labels`` None (clusters found on a downsampled
    copy), each chunk labels its own pixels instead, straight into the
    returned map, with one ``pixel_labeler`` of ``clusters.hues`` per
    call: a pixel's label is its ``split_block`` flag, which is its label
    code, or where that is FLAG_VALID the nearest of ``clusters.hues``
    (``nearest_hue``).  A float32 chunk reads most labels from a float32
    filter, and only the pixels it cannot vouch for take that float64
    rule; the labels are the rule's bit for bit either way.  The labels
    used are returned in ``SeparationResult.labels``.

    Flagged pixels and pass-through clusters keep their input value in
    the diffuse image with zero specular.  Before any pixel is split,
    ValueError if ``models`` lacks an entry (a MaterialModel, or None for
    pass-through) for a cluster id below ``clusters.n_clusters``, or if a
    given ``labels`` is not of the image's shape or holds a label at or
    above that count; other keys of ``models`` are ignored.
    """
    img = working_image(img)
    k = clusters.n_clusters
    given = labels is not None
    if not given:
        labels = np.empty(img.shape[:2], dtype=np.int32)
    elif labels.shape != img.shape[:2]:
        raise ValueError(f"label map shape {labels.shape} does not match image {img.shape}")
    elif labels.max(initial=-1) >= k:
        raise ValueError(f"label {int(labels.max())} has no cluster: there are {k}")

    # per-cluster tables indexed by slot = label + 2, which take's
    # mode="clip" keeps at 0 or above: a pixel's strength is its dot
    # product with the slot's axis d - center / ratio, the parallel
    # coefficient less the diffuse share the ortho one implies; the flag
    # slots 0 and 1 and pass-through clusters keep a zero axis.
    d = basis.direction
    axis = np.zeros((3, k + 2))
    for cid in range(k):
        if cid not in models:
            raise ValueError(f"no material model for cluster {cid}")
        if (model := models[cid]) is not None:
            axis[:, cid + 2] = d - model.center / model.ratio

    diffuse = np.empty_like(img)
    specular = np.empty_like(img)
    if not given:
        label = pixel_labeler(clusters.hues, basis)

    def fill(rows):
        block = img[rows]
        lab = labels[rows]
        if not given:
            label(block, lab)
        slot = np.add(lab, 2, dtype=np.intp)  # intp, so no take below casts it
        # strength = block · axis, summed channel by channel in one
        # float64 buffer (a float32 block is widened exactly by the ufuncs)
        scratch = np.empty(lab.shape)
        strength = block[..., 0] * axis[0].take(slot, mode="clip", out=scratch)
        for i in (1, 2):
            strength += np.multiply(block[..., i], axis[i].take(slot, mode="clip", out=scratch),
                                    out=scratch)
        # every d_i >= 0, so clipping the strength at 0 clips each share
        np.maximum(strength, 0.0, out=strength)
        sp, dif = specular[rows], diffuse[rows]
        with np.errstate(over="ignore"):  # a share past float32's range rounds to inf
            for i in range(3):
                np.multiply(strength, d[i], out=sp[..., i])  # rounded into sp's dtype
        # rounding is monotone and the sample b is representable, so
        # min(round(x), b) == round(min(x, b)), and 0 <= sp <= b
        np.minimum(sp, block, out=sp)
        np.subtract(block, sp, out=dif)
        # b - dif is exact (Sterbenz), sample by sample: if sp >= b / 2,
        # b - sp is exact, so dif = b - sp and b - dif = sp; if sp < b / 2,
        # dif >= b / 2.  So dif + sp == b, b - dif == sp and b - sp == dif,
        # bit for bit.
        np.subtract(block, dif, out=sp)

    run_rows(fill, img.shape[0], threads)
    return SeparationResult(diffuse=diffuse, specular=specular, labels=labels)
