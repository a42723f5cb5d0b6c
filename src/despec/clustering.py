"""Material clustering in the subspace orthogonal to the illumination.

:func:`specular_free_field` splits each pixel's unit chromaticity once
into a coefficient along the illumination and an orthogonal part, stored
as an amplitude and a hue angle in the basis's fixed (u, v) frame.
:func:`split_block` is that split for one block of pixels; the
separation kernel calls it too when it labels a full-resolution image
against clusters found on a downsampled copy.  The
hue depends only on the material color, not on how much highlight the
pixel carries, so k-means on the circle of hues groups pixels by
material; :func:`nearest_hue` is the one assignment rule.  The cluster
count is grown adaptively: a cluster whose pixels deviate too far from
the unit circle in its (center, illumination) frame is mixing materials
and votes to increase k.  The field keeps only the valid pixels, and
cluster labels index that same set, so k-means, the fit check and model
estimation all read it without going back to the image or masking it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._parallel import run_chunks
from .errors import NoConvergenceWarning, TooFewPixelsError
from .model import EPS_BLACK, EPS_GRAY, IlluminationBasis, _norm3

# flags marking pixels excluded from clustering
FLAG_VALID = 0
FLAG_BLACK = 1
FLAG_ACHROMATIC = 2

# label sentinels for flagged pixels: minus the flag
LABEL_BLACK = -FLAG_BLACK
LABEL_ACHROMATIC = -FLAG_ACHROMATIC

KMEANS_MAX_ITER = 100  # Lloyd iterations per k-means run


@dataclass
class SpecularFreeField:
    """The pixels that carry a chroma, split against the illumination.

    ``flags`` (H, W) marks every pixel FLAG_VALID, FLAG_BLACK or
    FLAG_ACHROMATIC.  The other three arrays are 1-D and hold the valid
    pixels only, in row-major order.  For a valid pixel with unit
    chromaticity ``c`` and illumination direction ``d``,
    ``c = amplitude * basis.orthogonal(hue) + parallel * d``: ``hue`` is
    the angle of c's orthogonal part in the basis's (u, v) frame, in
    [-pi, pi]; ``amplitude`` is that part's norm and ``parallel`` the
    illumination coefficient, so amplitude² + parallel² = 1.
    """

    hue: np.ndarray
    amplitude: np.ndarray
    parallel: np.ndarray
    flags: np.ndarray

    @property
    def valid_mask(self) -> np.ndarray:
        return self.flags == FLAG_VALID

    def label_map(self, labels: np.ndarray) -> np.ndarray:
        """(H, W) int32 map of per-valid-pixel ``labels``: the label at
        valid pixels, minus the flag (LABEL_BLACK, LABEL_ACHROMATIC)
        elsewhere."""
        full = -self.flags.astype(np.int32)
        full[self.valid_mask] = labels
        return full


@dataclass
class ClusterSet:
    """A hard partition of the valid pixels.

    ``labels`` is 1-D int32, one cluster index per valid pixel in the
    field's order; ``SpecularFreeField.label_map`` lays it out over the
    image.  ``hues`` is (k,), each cluster's center angle;
    ``basis.orthogonal(hues)`` gives the unit center directions
    orthogonal to the illumination.
    """

    labels: np.ndarray
    hues: np.ndarray
    sizes: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.hues)


@dataclass
class FitDiagnostics:
    """How well a ClusterSet explains the image under the color model."""

    failing_fractions: np.ndarray  # per cluster: fraction of pixels deviating
    total_error: float             # sum of unit-circle residuals
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


def split_block(block: np.ndarray, basis: IlluminationBasis):
    """(hue, amplitude, parallel, flags) of an (..., 3) block of pixels,
    each shaped like the block's pixel grid.  The first three are as in
    SpecularFreeField where ``flags == FLAG_VALID`` and meaningless
    elsewhere."""
    d, u, v = basis.direction, basis.u, basis.v
    n = _norm3(block)
    blk = n <= EPS_BLACK
    m = np.where(blk, 1.0, n)
    # one channel of c = block / n at a time, accumulated in c·d order
    c = block[..., 0] / m
    par, x, y = c * d[0], c * u[0], c * v[0]
    for i in (1, 2):
        c = block[..., i] / m
        par += c * d[i]
        x += c * u[i]
        y += c * v[i]
    amp = np.sqrt(x * x + y * y)
    flags = np.full(blk.shape, FLAG_VALID, dtype=np.uint8)
    flags[blk] = FLAG_BLACK
    flags[(amp <= EPS_GRAY) & ~blk] = FLAG_ACHROMATIC
    return np.arctan2(y, x), amp, par, flags


def specular_free_field(img, basis: IlluminationBasis, threads: int = 1) -> SpecularFreeField:
    """Split every pixel against the illumination; see SpecularFreeField."""
    img = np.asarray(img, dtype=np.float64)
    flags = np.empty(img.shape[:2], dtype=np.uint8)
    parts = {}  # first row of a chunk -> its valid (hue, amplitude, parallel)

    def fill(rows):
        hue, amp, par, flags[rows] = split_block(img[rows], basis)
        valid = flags[rows] == FLAG_VALID
        parts[rows.start] = (hue[valid], amp[valid], par[valid])

    run_chunks(fill, img.shape[0], threads)
    chunks = [parts[start] for start in sorted(parts)]
    hue, amplitude, parallel = (np.concatenate([np.empty(0), *(c[i] for c in chunks)])
                                for i in range(3))
    return SpecularFreeField(hue=hue, amplitude=amplitude, parallel=parallel, flags=flags)


def nearest_hue(hue, centers) -> np.ndarray:
    """Index (int32) of the center angle nearest to each hue on the circle.

    The sorted centers cut the circle into arcs at the midpoints between
    neighbors (plus the one across ±pi), so a single searchsorted labels
    every hue.  Equal centers resolve to the lowest index, as an argmax
    over cos(hue - centers) would.
    """
    centers = np.asarray(centers, dtype=np.float64)
    order = np.argsort(centers, kind="stable")
    s = centers[order]
    owner = order[np.searchsorted(s, s, side="left")].astype(np.int32)
    # one wrapped copy at each end covers every hue in [-pi, pi]
    s = np.concatenate(([s[-1] - 2.0 * np.pi], s, [s[0] + 2.0 * np.pi]))
    owner = np.concatenate((owner[-1:], owner, owner[:1]))
    return owner[np.searchsorted(0.5 * (s[:-1] + s[1:]), hue, side="right")]


def _mean_hues(labels: np.ndarray, cos: np.ndarray, sin: np.ndarray, k: int):
    """Per-cluster circular mean angle, member count, mean resultant length."""
    counts = np.bincount(labels, minlength=k)
    s = np.bincount(labels, weights=sin, minlength=k)
    c = np.bincount(labels, weights=cos, minlength=k)
    return np.arctan2(s, c), counts, np.hypot(s, c) / np.maximum(counts, 1)


def kmeans(field: SpecularFreeField, k: int, seed: int = 0) -> ClusterSet:
    """At most KMEANS_MAX_ITER Lloyd iterations on the circle of valid
    field hues.

    Farthest-point seeding: the first hue from the seeded generator, then
    greedily the hue farthest in chord² 2 - 2·cos(hue - center).  Each
    update is the members' circular mean.  An empty cluster, or one whose
    hues cancel, is reseeded from the point farthest from its own center;
    surplus clusters the data cannot support are dropped and labels
    compacted.
    """
    hue = field.hue
    n = len(hue)
    if n == 0:
        raise TooFewPixelsError("no clusterable pixels")
    if n < k:
        raise TooFewPixelsError(f"{n} clusterable pixels cannot support k={k}")
    cos, sin = np.cos(hue), np.sin(hue)

    rng = np.random.default_rng(seed)
    centers = np.empty(k, dtype=np.float64)
    idx = int(rng.integers(n))
    centers[0] = hue[idx]
    d2 = 2.0 - 2.0 * (cos * cos[idx] + sin * sin[idx])
    for j in range(1, k):
        idx = int(np.argmax(d2))
        centers[j] = hue[idx]
        d2 = np.minimum(d2, 2.0 - 2.0 * (cos * cos[idx] + sin * sin[idx]))

    labels = np.full(n, -1, dtype=np.int32)
    for _ in range(KMEANS_MAX_ITER):
        new_labels = nearest_hue(hue, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        means, counts, length = _mean_hues(labels, cos, sin, k)
        lost = (counts == 0) | (length <= 1e-12)
        if lost.any():
            # every lost center takes the point farthest from its own
            # (pre-update) center; if none is apart, the center stays and
            # its cluster may end up empty and is dropped below
            d2_own = 2.0 - 2.0 * (cos * np.cos(centers)[labels]
                                  + sin * np.sin(centers)[labels])
            idx = int(np.argmax(d2_own))
            means[lost] = hue[idx] if d2_own[idx] > 1e-12 else centers[lost]
        centers = means
    else:  # no convergence: assign against the last update
        labels = nearest_hue(hue, centers)

    # drop empty clusters, compact labels
    counts = np.bincount(labels, minlength=k)
    keep = np.flatnonzero(counts > 0)
    labels = (np.cumsum(counts > 0, dtype=np.int32) - 1)[labels]
    return ClusterSet(labels=labels, hues=centers[keep], sizes=counts[keep])


def _cluster_residuals(field: SpecularFreeField, labels: np.ndarray,
                       hues: np.ndarray) -> np.ndarray:
    """Unit-circle residual of every valid pixel against its cluster
    frame: the pixel's orthogonal part off the center's axis,
    amplitude² · sin²(hue − center hue)."""
    off = field.amplitude * np.sin(field.hue - hues[labels])
    return off * off


def evaluate_fit(field: SpecularFreeField, clusters: ClusterSet,
                 tau_dev: float = 0.1, tau_frac: float = 0.1) -> FitDiagnostics:
    """Per-cluster unit-circle fit check.

    A cluster fails when more than ``tau_frac`` of its pixels deviate
    from the unit circle by more than ``tau_dev``; failing clusters mix
    materials and should be split.
    """
    lab = clusters.labels
    dev = _cluster_residuals(field, lab, clusters.hues)
    k = clusters.n_clusters
    counts = np.bincount(lab, minlength=k).astype(np.float64)
    bad = np.bincount(lab[dev > tau_dev], minlength=k).astype(np.float64)
    fractions = np.divide(bad, counts, out=np.zeros(k), where=counts > 0)
    return FitDiagnostics(
        failing_fractions=fractions,
        total_error=float(dev.sum()),
        converged=bool(np.all(fractions <= tau_frac)),
    )


def adaptive_min_cluster_size(n_valid: int) -> int:
    """Cluster-size floor: 1% of the clusterable pixels, clamped to [30, 300]."""
    return int(min(300, max(30, 0.01 * n_valid)))


def _merge_small_clusters(clusters: ClusterSet, field: SpecularFreeField,
                          min_size: int) -> ClusterSet:
    """Fold clusters below the size floor into the nearest big cluster."""
    sizes = clusters.sizes
    big = np.flatnonzero(sizes >= min_size)
    small = np.flatnonzero(sizes < min_size)
    if len(small) == 0 or len(big) == 0:
        return clusters

    hues = clusters.hues
    remap = np.full(clusters.n_clusters, -1, dtype=np.int32)
    remap[big] = np.arange(len(big), dtype=np.int32)
    remap[small] = remap[big[nearest_hue(hues[small], hues[big])]]
    labels = remap[clusters.labels]

    # refresh the surviving centers from their members
    hue = field.hue
    means, new_sizes, length = _mean_hues(labels, np.cos(hue), np.sin(hue), len(big))
    new_hues = np.where(length > 1e-12, means, hues[big])
    return ClusterSet(labels=labels, hues=new_hues, sizes=new_sizes)


def adaptive_cluster(field: SpecularFreeField,
                     cfg: ClusterConfig | None = None) -> tuple[ClusterSet, FitDiagnostics]:
    """Grow the cluster count until every cluster passes the fit check.

    Starts at ``cfg.initial_k`` and adds one cluster per failing cluster
    each round.  After termination, clusters smaller than the size floor
    are merged into their nearest neighbor.  If the iteration cap is hit
    with failing clusters remaining, a NoConvergenceWarning is issued and
    the best clustering so far is returned with ``converged=False``.
    """
    cfg = cfg or ClusterConfig()
    n_valid = len(field.hue)
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
        clusters = kmeans(field, k, seed=cfg.seed)
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

    merged = _merge_small_clusters(clusters, field, min_size)
    if merged is not clusters:
        clusters = merged
        diag = evaluate_fit(field, clusters, cfg.tau_dev, cfg.tau_frac)
    diag.iterations = iterations
    diag.converged = converged
    diag.k_history = history
    return clusters, diag
