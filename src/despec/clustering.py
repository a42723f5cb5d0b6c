"""Material clustering in the subspace orthogonal to the illumination.

:func:`specular_free_field` splits each pixel's unit chromaticity once
into an amplitude along a unit direction orthogonal to the illumination
and a coefficient along the illumination itself.  The direction depends
only on the material color, not on how much highlight the pixel carries,
so clustering the directions groups pixels by material.  The cluster
count is grown adaptively: a cluster whose pixels deviate too far from
the unit circle in its (center, illumination) frame is mixing materials
and votes to increase k.  The fit check and the recovery stage read the
same field, so no stage goes back to the image.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._parallel import run_rows
from .errors import NoConvergenceWarning, TooFewPixelsError
from .model import EPS_BLACK, EPS_GRAY, IlluminationBasis, _norm3

# flags marking pixels excluded from clustering
FLAG_VALID = 0
FLAG_BLACK = 1
FLAG_ACHROMATIC = 2

# label sentinels for flagged pixels
LABEL_BLACK = -1
LABEL_ACHROMATIC = -2


@dataclass
class SpecularFreeField:
    """Each pixel's unit chromaticity split against the illumination.

    For a valid pixel with unit chromaticity ``c`` and illumination
    direction ``d``, ``c = amplitude * direction + parallel * d``:
    ``directions`` (H, W, 3) holds the unit direction orthogonal to
    ``d``, ``amplitude`` (H, W) the orthogonal norm and ``parallel``
    (H, W) the illumination coefficient, so amplitude² + parallel² = 1.
    All three are zero where ``flags != FLAG_VALID`` and must be ignored.
    """

    directions: np.ndarray
    amplitude: np.ndarray
    parallel: np.ndarray
    flags: np.ndarray

    @property
    def valid_mask(self) -> np.ndarray:
        return self.flags == FLAG_VALID


@dataclass
class ClusterSet:
    """A hard partition of the valid pixels.

    ``labels`` is (H, W) int32: cluster index for valid pixels,
    LABEL_BLACK / LABEL_ACHROMATIC for flagged ones.  ``centers`` is
    (k, 3), each row unit norm and orthogonal to the illumination.
    """

    labels: np.ndarray
    centers: np.ndarray
    sizes: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.centers)


@dataclass
class FitDiagnostics:
    """How well a ClusterSet explains the image under the color model."""

    failing_fractions: np.ndarray  # per cluster: fraction of pixels deviating
    total_error: float             # sum of unit-circle residuals, clipped at 0
    iterations: int = 0
    converged: bool = True
    k_history: list = field(default_factory=list)


@dataclass
class ClusterConfig:
    initial_k: int = 1
    tau_dev: float = 0.1        # per-pixel unit-circle deviation threshold
    tau_frac: float = 0.1       # failing fraction above which a cluster splits
    min_cluster_size: int | None = None  # None = adaptive floor
    seed: int = 0
    max_iterations: int = 10    # outer adaptive iterations
    kmeans_max_iter: int = 100


def specular_free_field(img, basis: IlluminationBasis, threads: int = 1) -> SpecularFreeField:
    """Split every pixel against the illumination; see SpecularFreeField."""
    img = np.asarray(img, dtype=np.float64)
    h = img.shape[0]
    directions = np.empty_like(img)
    amplitude = np.empty(img.shape[:2], dtype=np.float64)
    parallel = np.empty(img.shape[:2], dtype=np.float64)
    flags = np.empty(img.shape[:2], dtype=np.uint8)
    d = basis.direction

    def fill(rows):
        # chroma -> residue -> direction in place, so the only (H, W, 3)
        # array is the output itself
        block = img[rows]
        out = directions[rows]
        n = _norm3(block)
        blk = n <= EPS_BLACK
        np.divide(block, np.where(blk, 1.0, n)[..., None], out=out)
        par = out[..., 0] * d[0] + out[..., 1] * d[1] + out[..., 2] * d[2]
        for c in range(3):
            out[..., c] -= par * d[c]
        amp = _norm3(out)
        achro = (amp <= EPS_GRAY) & ~blk
        bad = blk | achro
        out /= np.where(bad, 1.0, amp)[..., None]
        out[bad] = 0.0
        amplitude[rows] = np.where(bad, 0.0, amp)
        parallel[rows] = np.where(bad, 0.0, par)
        flags[rows] = np.where(blk, FLAG_BLACK, np.where(achro, FLAG_ACHROMATIC, FLAG_VALID))

    run_rows(fill, h, threads)
    return SpecularFreeField(directions=directions, amplitude=amplitude,
                             parallel=parallel, flags=flags)


def _farthest_point_init(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic farthest-point seeding: first index from the seeded
    generator, then greedily take the point farthest from chosen centers."""
    rng = np.random.default_rng(seed)
    n = len(points)
    centers = np.empty((k, 3), dtype=np.float64)
    idx = int(rng.integers(n))
    centers[0] = points[idx]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        idx = int(np.argmax(d2))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans(field: SpecularFreeField, k: int, seed: int = 0, max_iter: int = 100,
           basis: IlluminationBasis | None = None) -> ClusterSet:
    """Lloyd iterations on the valid field directions.

    Centers are renormalized and, when ``basis`` is given, explicitly
    re-orthogonalized against the illumination after every update, so
    they stay inside the specular-free subspace.  Empty clusters are
    reseeded from the farthest point; if the data cannot support k
    distinct centers the surplus clusters are dropped and labels
    compacted.
    """
    valid = field.valid_mask
    points = field.directions[valid]
    n = len(points)
    if n == 0:
        raise TooFewPixelsError("no clusterable pixels")
    if n < k:
        raise TooFewPixelsError(f"{n} clusterable pixels cannot support k={k}")

    direction = basis.direction if basis is not None else None
    centers = _farthest_point_init(points, k, seed)
    labels = np.full(n, -1, dtype=np.int32)

    for _ in range(max_iter):
        # squared Euclidean assignment; all centers unit norm, so the
        # nearest center is the one with the largest dot product
        gram = points @ centers.T
        new_labels = np.argmax(gram, axis=1).astype(np.int32)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

        counts = np.bincount(labels, minlength=k)
        d2_own = None
        for j in range(k):
            if counts[j] > 0:
                mean = points[labels == j].sum(axis=0) / counts[j]
                if direction is not None:
                    mean = mean - float(mean @ direction) * direction
                norm = float(np.sqrt(mean @ mean))
                if norm > 1e-12:
                    centers[j] = mean / norm
                    continue
            # empty cluster, or a degenerate mean (hues cancelled):
            # reseed from the point farthest from its assigned center
            if d2_own is None:
                own = np.take_along_axis(gram, labels[:, None], axis=1)[:, 0]
                d2_own = 2.0 - 2.0 * own
            idx = int(np.argmax(d2_own))
            if d2_own[idx] > 1e-12:
                centers[j] = points[idx]
            # else: nothing left to separate; center stays, cluster may
            # end up empty and is dropped below

    # final assignment against the final centers
    gram = points @ centers.T
    labels = np.argmax(gram, axis=1).astype(np.int32)
    counts = np.bincount(labels, minlength=k)

    # drop empty clusters, compact labels
    keep = np.flatnonzero(counts > 0)
    remap = np.full(k, -1, dtype=np.int32)
    remap[keep] = np.arange(len(keep), dtype=np.int32)
    labels = remap[labels]
    centers = centers[keep]
    sizes = counts[keep]

    full = np.where(
        field.flags == FLAG_BLACK, LABEL_BLACK, LABEL_ACHROMATIC
    ).astype(np.int32)
    full[valid] = labels
    return ClusterSet(labels=full, centers=centers, sizes=sizes)


def _cluster_residuals(field: SpecularFreeField, labels: np.ndarray,
                       centers: np.ndarray):
    """Unit-circle residual of every labeled pixel against its cluster
    frame: the pixel's orthogonal part off the center's axis,
    amplitude² · (1 − (direction · center)²)."""
    valid = labels >= 0
    lab = labels[valid]
    cos = (field.directions[valid] * centers[lab]).sum(axis=1)
    amp = field.amplitude[valid]
    dev = amp * amp * (1.0 - cos * cos)
    return dev, lab, valid


def evaluate_fit(field: SpecularFreeField, clusters: ClusterSet,
                 tau_dev: float = 0.1, tau_frac: float = 0.1) -> FitDiagnostics:
    """Per-cluster unit-circle fit check.

    A cluster fails when more than ``tau_frac`` of its pixels deviate
    from the unit circle by more than ``tau_dev``; failing clusters mix
    materials and should be split.
    """
    dev, lab, _ = _cluster_residuals(field, clusters.labels, clusters.centers)
    k = clusters.n_clusters
    counts = np.bincount(lab, minlength=k).astype(np.float64)
    bad = np.bincount(lab[dev > tau_dev], minlength=k).astype(np.float64)
    fractions = np.divide(bad, counts, out=np.zeros(k), where=counts > 0)
    total = float(np.clip(dev, 0.0, None).sum())
    return FitDiagnostics(
        failing_fractions=fractions,
        total_error=total,
        converged=bool(np.all(fractions <= tau_frac)),
    )


def adaptive_min_cluster_size(n_valid: int) -> int:
    """Cluster-size floor: 1% of the clusterable pixels, clamped to [30, 300]."""
    return int(min(300, max(30, 0.01 * n_valid)))


def _merge_small_clusters(clusters: ClusterSet, field: SpecularFreeField,
                          min_size: int, basis: IlluminationBasis) -> ClusterSet:
    """Fold clusters below the size floor into the nearest big cluster."""
    sizes = clusters.sizes
    big = np.flatnonzero(sizes >= min_size)
    small = np.flatnonzero(sizes < min_size)
    if len(small) == 0 or len(big) == 0:
        return clusters

    centers = clusters.centers
    labels = clusters.labels.copy()
    # nearest big center for each small center
    gram = centers[small] @ centers[big].T
    target = big[np.argmax(gram, axis=1)]
    remap = np.arange(clusters.n_clusters, dtype=np.int32)
    remap[small] = target
    valid = labels >= 0
    labels[valid] = remap[labels[valid]]

    # compact to the surviving clusters and refresh centers from members
    compact = np.full(clusters.n_clusters, -1, dtype=np.int32)
    compact[big] = np.arange(len(big), dtype=np.int32)
    labels[valid] = compact[labels[valid]]
    new_centers = np.empty((len(big), 3), dtype=np.float64)
    new_sizes = np.empty(len(big), dtype=np.int64)
    d = basis.direction
    pts = field.directions
    for j in range(len(big)):
        members = pts[labels == j]
        new_sizes[j] = len(members)
        mean = members.sum(axis=0) / max(len(members), 1)
        mean = mean - float(mean @ d) * d
        norm = float(np.sqrt(mean @ mean))
        new_centers[j] = mean / norm if norm > 1e-12 else centers[big[j]]
    return ClusterSet(labels=labels, centers=new_centers, sizes=new_sizes)


def adaptive_cluster(field: SpecularFreeField, basis: IlluminationBasis,
                     cfg: ClusterConfig | None = None) -> tuple[ClusterSet, FitDiagnostics]:
    """Grow the cluster count until every cluster passes the fit check.

    Starts at ``cfg.initial_k`` and adds one cluster per failing cluster
    each round.  After termination, clusters smaller than the size floor
    are merged into their nearest neighbor.  If the iteration cap is hit
    with failing clusters remaining, a NoConvergenceWarning is issued and
    the best clustering so far is returned with ``converged=False``.
    """
    cfg = cfg or ClusterConfig()
    n_valid = int(field.valid_mask.sum())
    min_size = cfg.min_cluster_size
    if min_size is None:
        min_size = adaptive_min_cluster_size(n_valid)
    if n_valid < max(min_size, cfg.initial_k):
        raise TooFewPixelsError(
            f"{n_valid} clusterable pixels; need at least {max(min_size, cfg.initial_k)}"
        )

    k = cfg.initial_k
    clusters = None
    diag = None
    history: list[int] = []
    iterations = 0
    for _ in range(cfg.max_iterations):
        iterations += 1
        history.append(k)
        clusters = kmeans(field, k, seed=cfg.seed, max_iter=cfg.kmeans_max_iter, basis=basis)
        diag = evaluate_fit(field, clusters, cfg.tau_dev, cfg.tau_frac)
        failing = int(np.sum(diag.failing_fractions > cfg.tau_frac))
        if failing == 0:
            break
        next_k = clusters.n_clusters + failing
        if next_k <= k:  # collapsed clusters; still force progress
            next_k = k + failing
        k = min(next_k, n_valid)

    converged = bool(np.all(diag.failing_fractions <= cfg.tau_frac))
    if not converged:
        warnings.warn(
            f"adaptive clustering did not converge after {iterations} iterations",
            NoConvergenceWarning,
            stacklevel=2,
        )

    merged = _merge_small_clusters(clusters, field, min_size, basis)
    if merged is not clusters:
        clusters = merged
        diag = evaluate_fit(field, clusters, cfg.tau_dev, cfg.tau_frac)
    diag.iterations = iterations
    diag.converged = converged
    diag.k_history = history
    return clusters, diag
