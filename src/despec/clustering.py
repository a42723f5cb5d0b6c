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
and votes to increase k.

The field keeps only the valid pixels, sorted by hue once per image.
Nearest-center assignment on the circle cuts it into arcs, so every
cluster is one contiguous run of the field, or two at the ±pi wrap: a
Lloyd step is one searchsorted of the arc midpoints, its sums are
segment sums, and the fit check and model estimation read slices.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._parallel import run_rows
from .errors import ConfigError, NoConvergenceWarning, TooFewPixelsError
from .model import EPS_BLACK, EPS_GRAY, IlluminationBasis, _norm3

# flags marking pixels excluded from clustering
FLAG_VALID = 0
FLAG_BLACK = 1
FLAG_ACHROMATIC = 2

# label sentinels for flagged pixels: minus the flag
LABEL_BLACK = -FLAG_BLACK
LABEL_ACHROMATIC = -FLAG_ACHROMATIC

KMEANS_MAX_ITER = 100  # Lloyd iterations per k-means run
TAU_FRAC = 0.1         # failing fraction above which a cluster splits
BLOCK = 32768          # field entries per block of per-entry temporaries


@dataclass
class SpecularFreeField:
    """The pixels that carry a chroma, split against the illumination.

    ``flags`` (H, W) marks every pixel FLAG_VALID, FLAG_BLACK or
    FLAG_ACHROMATIC.  The other four arrays are 1-D and hold one entry
    per valid pixel, sorted by ``hue``; ``pixel`` (int32) is the entry's
    flat index in the (H, W) image.  For a valid pixel with unit
    chromaticity ``c`` and illumination direction ``d``,
    ``c = amplitude * basis.orthogonal(hue) + parallel * d``: ``hue`` is
    the angle of c's orthogonal part in the basis's (u, v) frame, in
    [-pi, pi]; ``amplitude`` is that part's norm and ``parallel`` the
    illumination coefficient, so amplitude² + parallel² = 1.
    """

    hue: np.ndarray
    amplitude: np.ndarray
    parallel: np.ndarray
    pixel: np.ndarray
    flags: np.ndarray
    # seed -> entry of k-means' first center; see first_entry
    _first: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def valid_mask(self) -> np.ndarray:
        return self.flags == FLAG_VALID

    @cached_property
    def cos_sin(self) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of ``hue``, computed once per field."""
        return np.cos(self.hue), np.sin(self.hue)

    def first_entry(self, seed: int) -> int:
        """Entry of the valid pixel whose row-major rank is drawn from a
        generator seeded with ``seed``: the first center of every k-means
        on this field with that seed, so it is found once per seed."""
        if seed not in self._first:
            rank = int(np.random.default_rng(seed).integers(len(self.hue)))
            pixel = np.flatnonzero(self.valid_mask)[rank]
            self._first[seed] = int(np.flatnonzero(self.pixel == pixel)[0])
        return self._first[seed]

    def label_map(self, labels: np.ndarray) -> np.ndarray:
        """(H, W) int32 map of per-entry ``labels``: the label at valid
        pixels, minus the flag (LABEL_BLACK, LABEL_ACHROMATIC)
        elsewhere."""
        full = -self.flags.astype(np.int32)
        full.reshape(-1)[self.pixel] = labels
        return full


@dataclass
class ClusterSet:
    """A hard partition of the field's entries into arcs of hue.

    The field is sorted by hue, so each cluster is a contiguous run of
    entries, or two runs when its arc crosses ±pi.  Run ``i`` holds the
    entries ``bounds[i]:bounds[i + 1]`` and belongs to cluster
    ``owner[i]``; ``bounds`` runs from 0 to the field's length, and
    neighboring runs have different owners.  ``hues`` is (k,), each
    cluster's center angle; ``basis.orthogonal(hues)`` gives the unit
    center directions orthogonal to the illumination.  ``iterations``
    counts the Lloyd updates of the k-means run that found it.
    """

    bounds: np.ndarray
    owner: np.ndarray
    hues: np.ndarray
    sizes: np.ndarray
    iterations: int = 0

    @property
    def n_clusters(self) -> int:
        return len(self.hues)

    @property
    def labels(self) -> np.ndarray:
        """1-D int32 cluster index of every field entry;
        ``SpecularFreeField.label_map`` lays it out over the image."""
        return np.repeat(self.owner, np.diff(self.bounds))

    def members(self, cluster_id: int) -> list[slice]:
        """The field slices that hold one cluster."""
        b = self.bounds.tolist()
        return [slice(b[i], b[i + 1]) for i in np.flatnonzero(self.owner == cluster_id)]


@dataclass(frozen=True)
class FitDiagnostics:
    """How well a ClusterSet explains the image under the color model."""

    failing_fractions: np.ndarray  # per cluster: fraction of pixels deviating
    total_error: float             # sum of unit-circle residuals
    converged: bool = True
    rounds: list = field(default_factory=list)  # adaptive_cluster's, one dict each


@dataclass
class ClusterConfig:
    initial_k: int = 1
    tau_dev: float = 0.1        # per-pixel unit-circle deviation threshold
    min_cluster_size: int | None = None  # None = adaptive floor
    seed: int = 0
    max_iterations: int = 10    # outer adaptive iterations


def split_block(block: np.ndarray, basis: IlluminationBasis, parallel: bool = True):
    """(hue, amplitude, parallel, flags) of an (..., 3) block of pixels,
    each shaped like the block's pixel grid.  The first three are as in
    SpecularFreeField where ``flags == FLAG_VALID`` and meaningless
    elsewhere.  With ``parallel`` False the parallel coefficient is not
    summed and None stands in its place; the other three are the same
    bits.

    The block's temporaries are a few grid-sized buffers, reused: the
    norm becomes the divisor ``m`` in place, one buffer holds each
    channel of ``c`` and one scratch buffer each product; ``amplitude``
    is then built in ``m`` and ``hue`` in the ``c`` buffer.
    """
    d, u, v = basis.direction, basis.u, basis.v
    m = _norm3(block)
    blk = m <= EPS_BLACK
    m[blk] = 1.0
    # one channel of c = block / m at a time, accumulated in c·d order
    c = np.divide(block[..., 0], m)
    par = c * d[0] if parallel else None
    x, y = c * u[0], c * v[0]
    scratch = np.empty_like(c)
    for i in (1, 2):
        np.divide(block[..., i], m, out=c)
        if parallel:
            par += np.multiply(c, d[i], out=scratch)
        x += np.multiply(c, u[i], out=scratch)
        y += np.multiply(c, v[i], out=scratch)
    amp = np.multiply(x, x, out=m)
    amp += np.multiply(y, y, out=scratch)
    np.sqrt(amp, out=amp)
    flags = np.full(blk.shape, FLAG_VALID, dtype=np.uint8)
    flags[blk] = FLAG_BLACK
    flags[(amp <= EPS_GRAY) & ~blk] = FLAG_ACHROMATIC
    return np.arctan2(y, x, out=c), amp, par, flags


def specular_free_field(img, basis: IlluminationBasis, threads: int = 1) -> SpecularFreeField:
    """Split every pixel against the illumination and sort the valid
    ones by hue; see SpecularFreeField."""
    img = np.asarray(img, dtype=np.float64)
    width = img.shape[1]
    flags = np.empty(img.shape[:2], dtype=np.uint8)

    def fill(rows):
        """The chunk's valid [hue, amplitude, parallel, pixel]."""
        hue, amp, par, flags[rows] = split_block(img[rows], basis)
        valid = flags[rows] == FLAG_VALID
        pixel = (np.flatnonzero(valid) + rows.start * width).astype(np.int32)
        return [hue[valid], amp[valid], par[valid], pixel]

    chunks = run_rows(fill, img.shape[0], threads)

    def column(dtype=np.float64):
        """The chunks' next array, joined in row-major order; the pieces go."""
        return np.concatenate([np.empty(0, dtype), *(chunk.pop(0) for chunk in chunks)])

    hue = column()
    order = np.argsort(hue)
    hue = hue[order]
    amplitude, parallel = column()[order], column()[order]
    pixel = column(np.int32)[order]
    return SpecularFreeField(hue=hue, amplitude=amplitude, parallel=parallel,
                             pixel=pixel, flags=flags)


def _arcs(centers) -> tuple[np.ndarray, np.ndarray]:
    """(midpoints, owner): the hues h with midpoints[i - 1] <= h <
    midpoints[i] are nearest to center owner[i] on the circle.

    The sorted centers cut the circle at the midpoints between neighbors,
    plus one wrapped copy at each end to cover every hue in [-pi, pi].
    Equal centers resolve to the lowest index, as an argmax over
    cos(hue - centers) would.
    """
    centers = np.asarray(centers, dtype=np.float64)
    order = np.argsort(centers, kind="stable")
    s = centers[order]
    owner = order[np.searchsorted(s, s, side="left")].astype(np.int32)
    s = np.concatenate(([s[-1] - 2.0 * np.pi], s, [s[0] + 2.0 * np.pi]))
    owner = np.concatenate((owner[-1:], owner, owner[:1]))
    return 0.5 * (s[:-1] + s[1:]), owner


def nearest_hue(hue, centers) -> np.ndarray:
    """Index (int32) of the center angle nearest to each hue on the circle."""
    midpoints, owner = _arcs(centers)
    return owner[np.searchsorted(midpoints, hue, side="right")]


def _merge_runs(bounds: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop empty runs and merge neighbors of one owner."""
    keep = bounds[1:] > bounds[:-1]
    starts, owner = bounds[:-1][keep], owner[keep]
    first = np.concatenate(([True], owner[1:] != owner[:-1]))
    return np.append(starts[first], bounds[-1]), owner[first]


def _hue_runs(hue: np.ndarray, centers) -> tuple[np.ndarray, np.ndarray]:
    """(bounds, owner) of the runs of the sorted ``hue`` nearest to each
    center: the labels of nearest_hue, found by cutting at the arc
    midpoints."""
    midpoints, owner = _arcs(centers)
    cuts = np.searchsorted(hue, midpoints, side="left")
    return _merge_runs(np.concatenate(([0], cuts, [len(hue)])), owner)


def _pieces(bounds: np.ndarray, *per_run):
    """(slice, *values) for each block of at most BLOCK entries of each
    run, where ``values`` are the run's entries of ``per_run``."""
    edges = bounds.tolist()
    for start, stop, *values in zip(edges[:-1], edges[1:], *per_run):
        for a in range(start, stop, BLOCK):
            yield (slice(a, min(a + BLOCK, stop)), *values)


def _run_sizes(bounds: np.ndarray, owner: np.ndarray, k: int) -> np.ndarray:
    return np.bincount(owner, weights=np.diff(bounds), minlength=k).astype(np.int64)


def _run_means(field: SpecularFreeField, bounds: np.ndarray, owner: np.ndarray, k: int):
    """Per-cluster circular mean angle, member count and mean resultant
    length; each run is summed in hue order by one reduceat."""
    cos, sin = field.cos_sin
    counts = _run_sizes(bounds, owner, k)
    s = np.bincount(owner, weights=np.add.reduceat(sin, bounds[:-1]), minlength=k)
    c = np.bincount(owner, weights=np.add.reduceat(cos, bounds[:-1]), minlength=k)
    return np.arctan2(s, c), counts, np.hypot(s, c) / np.maximum(counts, 1)


def _fold_chord2(d2: np.ndarray, field: SpecularFreeField, bounds: np.ndarray, cc, ss) -> None:
    """Fold into ``d2``, by minimum, each entry's chord² 2 - 2·cos(hue -
    center) to its run's center, whose cos and sin are ``cc[i]`` and
    ``ss[i]`` for run ``i``; a block at a time, so temporaries stay small."""
    cos, sin = field.cos_sin
    for rows, c, s in _pieces(bounds, cc, ss):
        np.minimum(d2[rows], 2.0 - 2.0 * (cos[rows] * c + sin[rows] * s), out=d2[rows])


def _farthest(d2: np.ndarray, field: SpecularFreeField) -> int:
    """Entry of the largest ``d2``; a tie goes to the first entry in
    row-major pixel order, as an argmax over the image would."""
    ties = np.flatnonzero(d2 == d2.max())
    return int(ties[np.argmin(field.pixel[ties])])


def _seed_centers(field: SpecularFreeField, k: int, seed: int) -> np.ndarray:
    """Farthest-point seeding: the first center is ``field.first_entry``,
    then greedily the entry farthest in chord² from every center chosen
    so far."""
    hue = field.hue
    cos, sin = field.cos_sin
    idx = field.first_entry(seed)
    centers = np.empty(k, dtype=np.float64)
    centers[0] = hue[idx]
    if k > 1:
        d2 = np.full(len(hue), np.inf)  # chord² to the nearest center so far
        whole = np.array([0, len(hue)])
        for j in range(1, k):
            _fold_chord2(d2, field, whole, [cos[idx]], [sin[idx]])
            idx = _farthest(d2, field)
            centers[j] = hue[idx]
    return centers


def kmeans(field: SpecularFreeField, k: int, seed: int = 0) -> ClusterSet:
    """At most KMEANS_MAX_ITER Lloyd iterations on the circle of valid
    field hues.

    Centers are seeded farthest-point (see ``_seed_centers``).  Each
    update is the members' circular mean.  An empty cluster, or one
    whose hues cancel, is reseeded from the point farthest from its own
    center; surplus clusters the data cannot support are dropped and
    labels compacted.  The loop stops when an assignment repeats.
    Raises ValueError when ``k`` is below 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    hue = field.hue
    n = len(hue)
    if n == 0:
        raise TooFewPixelsError("no clusterable pixels")
    if n < k:
        raise TooFewPixelsError(f"{n} clusterable pixels cannot support k={k}")

    centers = _seed_centers(field, k, seed)
    bounds, owner = _hue_runs(hue, centers)
    for iterations in range(1, KMEANS_MAX_ITER + 1):
        means, counts, length = _run_means(field, bounds, owner, k)
        lost = (counts == 0) | (length <= 1e-12)
        if lost.any():
            # every lost center takes the point farthest from its own
            # (pre-update) center; if none is apart, the center stays and
            # its cluster may end up empty and is dropped below
            d2 = np.full(n, np.inf)
            _fold_chord2(d2, field, bounds, np.cos(centers)[owner], np.sin(centers)[owner])
            idx = _farthest(d2, field)
            means[lost] = hue[idx] if d2[idx] > 1e-12 else centers[lost]
        centers = means
        new_bounds, new_owner = _hue_runs(hue, centers)
        if np.array_equal(new_bounds, bounds) and np.array_equal(new_owner, owner):
            break
        bounds, owner = new_bounds, new_owner

    # drop empty clusters, compact labels
    counts = _run_sizes(bounds, owner, k)
    keep = counts > 0
    compact = np.cumsum(keep, dtype=np.int32) - 1
    return ClusterSet(bounds=bounds, owner=compact[owner], hues=centers[keep],
                      sizes=counts[keep], iterations=iterations)


def _cluster_residuals(cos: np.ndarray, sin: np.ndarray, amplitude: np.ndarray,
                       center) -> np.ndarray:
    """Unit-circle residual of field entries against their cluster
    frame: the orthogonal part off the center's axis,
    amplitude² · sin²(hue − center hue), with sin(hue − center) expanded
    as sin·cos(center) − cos·sin(center) from the entries' ``cos`` and
    ``sin`` of hue."""
    off = amplitude * (sin * np.cos(center) - cos * np.sin(center))
    return off * off


def evaluate_fit(field: SpecularFreeField, clusters: ClusterSet,
                 tau_dev: float = 0.1) -> FitDiagnostics:
    """Per-cluster unit-circle fit check.

    A cluster fails when more than TAU_FRAC of its pixels deviate from
    the unit circle by more than ``tau_dev``; failing clusters mix
    materials and should be split.
    """
    k = clusters.n_clusters
    cos, sin = field.cos_sin
    bad = np.zeros(k)
    total = 0.0
    for rows, cid in _pieces(clusters.bounds, clusters.owner.tolist()):
        dev = _cluster_residuals(cos[rows], sin[rows], field.amplitude[rows], clusters.hues[cid])
        bad[cid] += np.count_nonzero(dev > tau_dev)
        total += float(dev.sum())
    counts = clusters.sizes.astype(np.float64)
    fractions = np.divide(bad, counts, out=np.zeros(k), where=counts > 0)
    return FitDiagnostics(
        failing_fractions=fractions,
        total_error=total,
        converged=bool(np.all(fractions <= TAU_FRAC)),
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
    bounds, owner = _merge_runs(clusters.bounds, remap[clusters.owner])

    # refresh the surviving centers from their members
    means, new_sizes, length = _run_means(field, bounds, owner, len(big))
    new_hues = np.where(length > 1e-12, means, hues[big])
    return ClusterSet(bounds=bounds, owner=owner, hues=new_hues, sizes=new_sizes)


def adaptive_cluster(field: SpecularFreeField,
                     cfg: ClusterConfig | None = None) -> tuple[ClusterSet, FitDiagnostics]:
    """Grow the cluster count until every cluster passes the fit check.

    Starts at ``cfg.initial_k`` and adds one cluster per failing cluster
    each round.  After termination, clusters smaller than the size floor
    are merged into their nearest neighbor.  If the iteration cap is hit
    with failing clusters remaining, a NoConvergenceWarning is issued and
    the best clustering so far is returned with ``converged=False``.
    The fit returned is the final clusters', with one dict per round in
    ``rounds``: its ``k``, ``lloyd_iterations``, ``failing`` clusters,
    ``fit_error`` and ``seconds``.  ``initial_k`` or ``max_iterations``
    below 1 raises ConfigError.
    """
    cfg = cfg or ClusterConfig()
    for name in ("initial_k", "max_iterations"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)!r}")
    n_valid = len(field.hue)
    min_size = cfg.min_cluster_size
    if min_size is None:
        min_size = adaptive_min_cluster_size(n_valid)
    if n_valid < max(min_size, cfg.initial_k):
        raise TooFewPixelsError(
            f"{n_valid} clusterable pixels; need at least {max(min_size, cfg.initial_k)}"
        )

    k = cfg.initial_k
    rounds: list[dict] = []
    for _ in range(cfg.max_iterations):
        start = time.perf_counter()
        clusters = kmeans(field, k, seed=cfg.seed)
        fit = evaluate_fit(field, clusters, cfg.tau_dev)
        failing = int(np.sum(fit.failing_fractions > TAU_FRAC))
        rounds.append({"k": k, "lloyd_iterations": clusters.iterations, "failing": failing,
                       "fit_error": fit.total_error, "seconds": time.perf_counter() - start})
        if failing == 0:
            break
        next_k = clusters.n_clusters + failing
        if next_k <= k:  # collapsed clusters; still force progress
            next_k = k + failing
        k = min(next_k, n_valid)

    converged = fit.converged  # the last round's, not the merged set's
    if not converged:
        warnings.warn(f"adaptive clustering did not converge after {len(rounds)} iterations",
                      NoConvergenceWarning, stacklevel=2)

    merged = _merge_small_clusters(clusters, field, min_size)
    if merged is not clusters:
        clusters = merged
        fit = evaluate_fit(field, clusters, cfg.tau_dev)
    return clusters, replace(fit, converged=converged, rounds=rounds)
