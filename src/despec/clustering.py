"""Material clustering in the subspace orthogonal to the illumination.

:func:`specular_free_field` splits each pixel's unit chromaticity once
against the illumination and keeps the orthogonal part, as an amplitude
and a hue angle in the basis's fixed (u, v) frame.
:func:`split_block` is that split for one block of pixels.  The
hue depends only on the material color, not on how much highlight the
pixel carries, so k-means on the circle of hues groups pixels by
material; :func:`nearest_hue` is the one assignment rule, read from a
table of hue buckets.
:func:`pixel_labeler` labels a full-resolution image against clusters
found on a downsampled copy by that rule: one filter, in the block's
own precision, reads most labels from the table's safe buckets, and
``split_block`` with ``nearest_hue`` labels the pixels it cannot vouch
for.  The cluster count is grown adaptively: a cluster whose pixels
deviate too far from the unit circle in its (center, illumination)
frame is mixing materials and votes to increase k.

The field keeps only the valid pixels, sorted by hue once per image.
Nearest-center assignment on the circle cuts it into arcs, so every
cluster is one contiguous run of the field, or two at the ±pi wrap, and
the fit check and model estimation read slices.  A Lloyd step is one
searchsorted of the arc midpoints, and its sums read O(k) of the
field's per-block sums plus the partial block at each cut, not every
hue, unless the field is small or the cuts many enough that one pass
costs less (see ``_run_sums``).  Farthest-point seeding starts at the
field's ``first_entry`` and reads only windows of
entries around the midpoints of the gaps between the centers chosen so
far, where the farthest entry must lie (see ``_window_farthest``).
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

# pixel flags; a pixel excluded from clustering keeps its flag as its label
FLAG_VALID = 0
LABEL_BLACK = -1
LABEL_ACHROMATIC = -2

KMEANS_MAX_ITER = 100  # Lloyd iterations per k-means run
MAX_ROUNDS = 10        # k-means rounds per adaptive_cluster
# center hues at most this far apart (rad) are one center: far above the
# ulp of pi (4.4e-16), the scale at which rounding parts the circular
# means of one material's identical hues, and far below the hue spread
# that sensor noise gives one material (about 0.03 rad at sigma 3)
HUE_TOL = 1e-9
TAU_FRAC = 0.1         # failing fraction above which a cluster splits
BLOCK = 32768          # field entries per block of per-entry temporaries
SUB = 64               # field entries per block of SpecularFreeField.block_sums
# seeding widens a gap's window while an edge entry reads within this of
# the window's largest chord²: far above the rounding of one chord²
# (about 1e-15); a larger margin only widens windows further
SEED_MARGIN = 1e-12
SEED_WIDTH = 2         # first half-width, in entries, of every gap's window
BUCKETS = 4096         # hue buckets of nearest_hue's lookup table
# pixel_labeler's filter gates: a pixel keeps the filter's label when its
# orthogonal part is above AMP_GATE of its norm (ten times EPS_GRAY) and
# its norm above EPS_BLACK by BLACK_MARGIN, far beyond float32 rounding
AMP_GATE = 1e-3
BLACK_MARGIN = 1e-4
# the error (rad) pixel_labeler's proof allows float32 arctan2, far above
# the few ulps numpy's measures
ATAN2_ALLOWANCE = 1e-4
# the first 32-bit words of np.random.default_rng(0): its first two
# PCG64 outputs, each low half first, as Generator.integers reads them
SEED_WORDS = (0xD9C2825F, 0xA30FEBCF, 0x82D9D721, 0x4510BDF8)


def _draw(n: int) -> int:
    """``np.random.default_rng(0).integers(n)`` for 1 <= n <= 2**32,
    without importing numpy.random unless every one of SEED_WORDS is
    rejected.  Lemire's bounded rule, as Generator.integers applies it:
    word w gives w·n >> 32, unless the low 32 bits of w·n fall below
    (2**32 - n) mod n, when the next word is tried."""
    threshold = (2**32 - n) % n
    for word in SEED_WORDS:
        if (word * n) & 0xFFFFFFFF >= threshold:
            return (word * n) >> 32
    return int(np.random.default_rng(0).integers(n))


@dataclass
class SpecularFreeField:
    """The pixels that carry a chroma, split against the illumination.

    ``flags`` (H, W, int8) marks every pixel FLAG_VALID, LABEL_BLACK or
    LABEL_ACHROMATIC.  The other three arrays are 1-D and hold one entry
    per valid pixel, sorted by ``hue``; ``pixel`` (int32) is the entry's
    flat index in the (H, W) image.  For a valid pixel with unit
    chromaticity ``c`` and illumination direction ``d``,
    ``c = amplitude * basis.orthogonal(hue) + p * d``: ``hue`` is the
    angle of c's orthogonal part in the (u, v) frame, in [-pi, pi], and
    ``amplitude`` its norm; ``p = sqrt(1 - amplitude²)`` is not stored but
    derived by ``recovery.parallel_coefficients``.  The angle caches
    ``cos_sin`` and ``block_sums`` last for one clustering:
    ``adaptive_cluster`` drops them, and a later read rebuilds them.
    """

    hue: np.ndarray
    amplitude: np.ndarray
    pixel: np.ndarray
    flags: np.ndarray

    @cached_property
    def cos_sin(self) -> np.ndarray:
        """(2, n): cos and sin of ``hue``."""
        cs = np.empty((2, len(self.hue)))
        np.cos(self.hue, out=cs[0])
        np.sin(self.hue, out=cs[1])
        return cs

    @cached_property
    def block_sums(self) -> np.ndarray:
        """(2, m + 1): ``cos_sin`` summed over each of the m consecutive
        blocks of SUB entries, the last block possibly shorter, then 0.0
        for the block a bound at the field's end falls in."""
        sums = np.zeros((2, -(-len(self.hue) // SUB) + 1))
        np.add.reduceat(self.cos_sin, np.arange(0, len(self.hue), SUB), axis=1, out=sums[:, :-1])
        return sums

    @cached_property
    def first_entry(self) -> int:
        """Entry of the valid pixel whose row-major rank is drawn from a
        generator seeded with 0 (``_draw``): the first center of every
        k-means on this field, found once per field.  The valid pixel of
        rank r is the r-th smallest flat index in ``pixel``."""
        rank = _draw(len(self.hue))
        return int((self.pixel == np.partition(self.pixel, rank)[rank]).argmax())

    def label_map(self, labels: np.ndarray) -> np.ndarray:
        """(H, W) int32 map of per-entry ``labels``: the label at valid
        pixels, the flag (LABEL_BLACK, LABEL_ACHROMATIC) elsewhere."""
        full = self.flags.astype(np.int32)
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


def split_block(block: np.ndarray, basis: IlluminationBasis):
    """(hue, amplitude, flags) of an (..., 3) block of pixels, each
    shaped like the block's pixel grid.  The first two are as in
    SpecularFreeField where ``flags == FLAG_VALID`` and meaningless
    elsewhere.

    The block's temporaries are a few grid-sized buffers, reused: the
    norm becomes the divisor ``m`` in place, one buffer holds each
    channel of ``c`` and one scratch buffer each product; ``amplitude``
    is then built in ``m`` and ``hue`` in the ``c`` buffer.  A float32
    block is widened to float64 first, so it gives the bits of its
    float64 copy.
    """
    block = np.asarray(block, dtype=np.float64)  # a no-op for float64
    u, v = basis.u, basis.v
    m = _norm3(block)
    blk = m <= EPS_BLACK
    m[blk] = 1.0
    # one channel of c = block / m at a time
    c = np.divide(block[..., 0], m)
    x, y = c * u[0], c * v[0]
    scratch = np.empty_like(c)
    for i in (1, 2):
        np.divide(block[..., i], m, out=c)
        x += np.multiply(c, u[i], out=scratch)
        y += np.multiply(c, v[i], out=scratch)
    amp = np.multiply(x, x, out=m)
    amp += np.multiply(y, y, out=scratch)
    np.sqrt(amp, out=amp)
    flags = np.full(blk.shape, FLAG_VALID, dtype=np.int8)
    flags[blk] = LABEL_BLACK
    flags[(amp <= EPS_GRAY) & ~blk] = LABEL_ACHROMATIC
    return np.arctan2(y, x, out=c), amp, flags


def specular_free_field(img, basis: IlluminationBasis, threads: int = 1) -> SpecularFreeField:
    """Split every pixel against the illumination and sort the valid
    ones by hue; see SpecularFreeField.  split_block widens a float32
    image chunk by chunk, so no float64 copy of it is made."""
    img = np.asarray(img)
    width = img.shape[1]
    flags = np.empty(img.shape[:2], dtype=np.int8)

    def fill(rows):
        """The chunk's valid [hue, amplitude, pixel]."""
        hue, amp, flags[rows] = split_block(img[rows], basis)
        valid = flags[rows] == FLAG_VALID
        pixel = (np.flatnonzero(valid) + rows.start * width).astype(np.int32)
        return [hue[valid], amp[valid], pixel]

    chunks = run_rows(fill, img.shape[0], threads)

    def column(dtype=np.float64):
        """The chunks' next array, joined in row-major order; the pieces go."""
        return np.concatenate([np.empty(0, dtype), *(chunk.pop(0) for chunk in chunks)])

    hue = column()
    order = np.argsort(hue)
    hue = hue[order]
    amplitude, pixel = column()[order], column(np.int32)[order]
    return SpecularFreeField(hue=hue, amplitude=amplitude, pixel=pixel, flags=flags)


def _arcs(centers) -> tuple[np.ndarray, np.ndarray]:
    """(midpoints, owner): the hues h with midpoints[i - 1] <= h <
    midpoints[i] are nearest to center owner[i] on the circle.

    The sorted centers cut the circle at the midpoints between neighbors,
    plus one wrapped copy at each end to cover every hue in [-pi, pi].
    Sorted centers whose gap is at most HUE_TOL, across ±pi too, form one
    group, and all of its arcs go to the group's lowest index, as an
    argmax over cos(hue - centers) gives equal centers to the first.
    """
    centers = np.asarray(centers, dtype=np.float64)
    order = centers.argsort(kind="stable")
    s = centers[order]
    new = np.concatenate(([True], s[1:] - s[:-1] > HUE_TOL))  # each group's first center
    lowest = np.minimum.reduceat(order, new.nonzero()[0]).astype(np.int32)
    if s[0] + 2.0 * np.pi - s[-1] <= HUE_TOL:  # the last group wraps into the first
        lowest[0] = lowest[-1] = min(lowest[0], lowest[-1])
    owner = lowest[new.cumsum() - 1]
    s = np.concatenate(([s[-1] - 2.0 * np.pi], s, [s[0] + 2.0 * np.pi]))
    owner = np.concatenate((owner[-1:], owner, owner[:1]))
    return 0.5 * (s[:-1] + s[1:]), owner


def _bucket(hue) -> np.ndarray:
    """Lookup-table bucket of each hue, trunc((hue + pi) * BUCKETS / 2pi)
    clipped to [0, BUCKETS - 1], in float32 for a float32 hue, else in
    float64.  Every step is monotone, so the bucket never decreases as the
    hue grows; a NaN, which sorts last, takes the last bucket."""
    real = np.float32 if np.asarray(hue).dtype == np.float32 else np.float64
    pos = np.add(hue, real(np.pi), out=np.empty(np.shape(hue), real))
    pos *= real(BUCKETS / (2.0 * np.pi))
    np.fmin(pos, BUCKETS - 1, out=pos)
    np.fmax(pos, 0.0, out=pos)
    return pos.astype(np.intp)


def _hue_table(centers):
    """(midpoints, owner, table): ``_arcs`` of ``centers`` and the
    bucket table that ``_nearest`` reads over them.

    Hues in one bucket share the count of midpoints at or below them
    unless a midpoint falls in that bucket too: the bucket never
    decreases as the hue grows, so a bucket with no midpoint lies above
    exactly the midpoints of lower buckets.  The table holds the owner
    of such buckets and -1 for the at most k + 1 that hold a midpoint,
    whose hues take the searchsorted of the midpoints instead.
    """
    midpoints, owner = _arcs(centers)
    counts = np.bincount(_bucket(midpoints), minlength=BUCKETS)
    return midpoints, owner, np.where(counts > 0, -1, owner[np.cumsum(counts) - counts])


def _nearest(tables, hue) -> np.ndarray:
    midpoints, owner, table = tables
    labels = table.take(_bucket(hue))
    near = labels < 0
    if near.any():
        labels[near] = owner[np.searchsorted(midpoints, hue[near], side="right")]
    return labels


def pixel_labeler(centers, basis: IlluminationBasis):
    """``label(block, out)``, which writes the label of every pixel of an
    (..., 3) block against fixed ``centers`` into ``out``, a C-contiguous
    int32 array of the block's pixel grid: ``split_block``'s flag, or
    where that is FLAG_VALID, nearest_hue of ``split_block``'s hue.  The
    tables behind it are built once, here.

    Every block takes one filter first: one matmul by the float32 rows
    (d, u, v), in the block's float32 or, promoted, float64 arithmetic,
    gives each pixel's projections p, bu and bv; the hue arctan2(bv, bu)
    needs no division, since it does not depend on scale; its
    ``_bucket`` reads a table of safe buckets.  A bucket is safe when it
    and both its circular neighbours have one owner (none -1) in
    ``_hue_table``'s table; every other bucket reads -1.  A pixel keeps
    the safe table's label when that label is >= 0, a2 = bu² + bv² >
    AMP_GATE²·m2 with m2 = p² + a2, and m2 > (EPS_BLACK·(1 +
    BLACK_MARGIN))².  NaN and overflowed values fail every gate.  The
    pixels that fail any, gathered, take the float64 rule.

    Why a float32 block's kept label is the float64 rule's, bit for bit:
    the pixel b is exact in both precisions.  With u = 2**-24, each of
    p, bu and bv is a three-term dot product with a row of the
    orthonormal (d, u, v) rounded to float32, so it lies within 4u·|b|
    of the exact projection in any summation order, with or without FMA
    (underflow adds at most 3·2**-149, nothing against |b| > 1e-6).  So
    the computed (bu, bv) lies within e = 4·sqrt(2)·u·|b| of the exact
    orthogonal part o, and m2 is |b|² to within 20u.  A kept pixel then
    has |b| > EPS_BLACK and |o| >= (AMP_GATE·(1 - 20u) - 4·sqrt(2)·u)·|b|,
    about 0.9997e-3·|b|: the float64 rule's norm is above EPS_BLACK and
    its amplitude, |o| / |b| to 1e-15, is far above EPS_GRAY, so it flags
    the pixel FLAG_VALID.
    The float32 hue lies within asin(e / |o|) <= 3.4e-4 rad of o's angle,
    plus ATAN2_ALLOWANCE for float32 arctan2 itself; split_block's hue
    within 1e-12 rad.  The float32 position (hue + pi) * BUCKETS / 2pi
    rounds pi, the factor, the sum and the product, below 1e-3 of a
    bucket.  Together that is under 0.3 of a bucket (2pi / BUCKETS =
    1.5e-3 rad), and clipping to [0, BUCKETS - 1] does not widen it, so
    the float64 hue's bucket is the float32 one or a neighbour.  The
    neighbours are circular: a hue at ±pi (bv = ±0, bu < 0) may read pi
    in one precision and -pi in the other.  All three buckets hold no
    midpoint and share the safe label, so ``_nearest`` reads that label
    for the float64 hue.

    A float64 block runs the same steps in float64.  Its only error
    above float64 rounding is the frame's rounding to float32, at most u
    of each element, so at most u·|b| per projection: inside the 4u·|b|
    above.  Its arctan2 and bucket position err by float64 ulps, far
    inside ATAN2_ALLOWANCE and 1e-3 of a bucket, so no constant changes.
    ``tests/test_clustering.py`` recomputes this budget for both dtypes
    and measures numpy's float32 arctan2 against its allowance.
    """
    tables = _hue_table(centers)
    table = tables[2]
    safe = np.where((np.roll(table, 1) == table) & (np.roll(table, -1) == table), table, -1)
    frame = np.array([basis.direction, basis.u, basis.v], dtype=np.float32)
    gate2 = np.float32(AMP_GATE * AMP_GATE)
    black2 = np.float32((EPS_BLACK * (1.0 + BLACK_MARGIN)) ** 2)

    def label(block, out):
        pixels, lab = block.reshape(-1, 3), out.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            p, bu, bv = np.matmul(frame, pixels.T)
            hue = np.arctan2(bv, bu)
            a2 = np.multiply(bu, bu, out=bu)
            a2 += np.multiply(bv, bv, out=bv)
            m2 = np.multiply(p, p, out=p)
            m2 += a2
            keep = a2 > np.multiply(m2, gate2, out=bv)
            keep &= m2 > black2
        safe.take(_bucket(hue), out=lab, mode="clip")
        keep &= lab >= 0
        if len(rest := np.flatnonzero(~keep)):
            hue, _, flags = split_block(pixels[rest], basis)
            lab[rest] = np.where(flags == FLAG_VALID, _nearest(tables, hue), flags)

    return label


def nearest_hue(hue, centers) -> np.ndarray:
    """Index (int32) of the center angle nearest to each hue on the circle:
    ``owner[searchsorted(midpoints, hue, side="right")]`` over ``_arcs``,
    read from the bucket table of ``_hue_table``, whose float64 buckets
    a float32 hue could miss by one, so it is widened first."""
    return _nearest(_hue_table(centers), np.asarray(hue, dtype=np.float64))


def _merge_runs(bounds: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop empty runs and merge neighbors of one owner."""
    keep = bounds[1:] > bounds[:-1]
    starts, owner = bounds[:-1][keep], owner[keep]
    first = np.concatenate(([True], owner[1:] != owner[:-1]))
    return np.concatenate((starts[first], bounds[-1:])), owner[first]


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
    return np.bincount(owner, weights=bounds[1:] - bounds[:-1], minlength=k).astype(np.int64)


def _run_sums(field: SpecularFreeField, bounds: np.ndarray) -> np.ndarray:
    """(2, runs): each run's sum of ``field.cos_sin``.

    Each bound x falls in block x // SUB, and the part of that block
    before x is summed entry by entry.  A run from a to b then sums to
    its blocks of ``field.block_sums`` from a's up to b's (one reduceat
    of O(k) block sums), plus the part of b's block before b, minus the
    part of a's block before a.  The subtraction cancels at most one
    block's sum, so a run's sum is off by a few ulps of SUB at most.
    The parts gather SUB entries per bound, and a gathered entry costs
    about as much as ten entries of one reduceat over the field, which
    also costs some BLOCK entries' worth less to start (on a 2-vCPU host:
    150,000 entries broke even near 190 bounds, 19,500 entries at none).
    So one reduceat over the field sums the runs once the gathered
    entries pass a tenth of the field beyond BLOCK, or pass BLOCK, which
    also keeps their temporaries as small as the module's others.
    """
    if len(bounds) * SUB > min((len(field.hue) - BLOCK) // 10, BLOCK):
        return np.add.reduceat(field.cos_sin, bounds[:-1], axis=1)
    q = bounds // SUB
    rows = (q * SUB)[:, None] + np.arange(SUB)  # past the end: not before any bound
    before = np.where(rows < bounds[:, None], field.cos_sin.take(rows, axis=1, mode="clip"),
                      0.0).sum(axis=2)
    runs = np.add.reduceat(field.block_sums, q, axis=1)[:, :-1]
    runs[:, q[1:] == q[:-1]] = 0.0  # a run within one block holds none of them
    runs += before[:, 1:]
    runs -= before[:, :-1]
    return runs


def _run_means(field: SpecularFreeField, bounds: np.ndarray, owner: np.ndarray, k: int):
    """Per-cluster circular mean angle, member count and mean resultant
    length, from ``_run_sums``."""
    c, s = np.bincount(np.concatenate((owner, owner + k)), _run_sums(field, bounds).ravel(),
                       2 * k).reshape(2, k)
    counts = _run_sizes(bounds, owner, k)
    return np.arctan2(s, c), counts, np.hypot(s, c) / np.maximum(counts, 1)


def _fold_chord2(d2: np.ndarray, field: SpecularFreeField, bounds: np.ndarray, cc, ss) -> None:
    """Fold into ``d2``, by minimum, each entry's chord² 2 - 2·cos(hue -
    center) to its run's center, whose cos and sin are ``cc[i]`` and
    ``ss[i]`` for run ``i``; a block at a time, so temporaries stay small."""
    cs = field.cos_sin
    for rows, c, s in _pieces(bounds, cc, ss):
        np.minimum(d2[rows], 2.0 - 2.0 * (cs[0, rows] * c + cs[1, rows] * s), out=d2[rows])


def _first_pixel(field: SpecularFreeField, entries: np.ndarray) -> int:
    """The one of ``entries`` first in row-major pixel order: the tie
    rule of an argmax over the image."""
    return int(entries[field.pixel[entries].argmin()])


def _farthest(d2: np.ndarray, field: SpecularFreeField) -> int:
    """Entry of the largest ``d2``; a tie goes to ``_first_pixel``."""
    return _first_pixel(field, np.flatnonzero(d2 == d2.max()))


def _window_farthest(field: SpecularFreeField, chosen: list) -> int | None:
    """``_farthest`` of each entry's chord² to the nearest ``chosen``
    entry, evaluated on windows around the gaps' midpoints only; None
    once the windows would cost more than one full pass, or more than
    BLOCK entries of temporaries.

    The sorted chosen entries cut the circular field into gaps: the run
    of entries from one chosen entry to the next, both included.  A
    gap's window is the ``width`` entries on either side of the place of
    its midpoint hue in the field; past a short gap's ends it holds
    entries of the neighbours too, which are merely more candidates.
    Each window entry gets d², the minimum over every chosen entry of
    2 - 2·(cos·c + sin·s), exactly as ``_fold_chord2`` computes it.

    Why every entry at the largest d² lies in a window: in exact
    arithmetic an entry's chord² to its nearest center is its chord² to
    the nearer end of its gap, since every other center lies beyond one
    of the ends, so it falls monotonically away from the gap's midpoint.
    The computed d² is within rounding delta (about 1e-15) of that, and
    the computed midpoint is off by a few ulps of pi, which moves the
    exact value by at most twice as much.  All windows double while one
    has an edge entry e, with more of its gap beyond it, that reads
    within SEED_MARGIN of that window's largest d², M.  Once none does,
    every entry y of the gap beyond e is no nearer the midpoint than e,
    up to those ulps, so d²(y) <= d²(e) + 2·delta + 1e-14 < M.  Every
    entry lies in a gap, so the entries outside the windows stay below
    the largest d² of all, and the pixel tie rule over the window
    entries at it picks ``_farthest``'s entry bit for bit.
    """
    hue = field.hue
    cos, sin = field.cos_sin
    n = len(hue)
    lo = np.sort(chosen)
    hi = np.concatenate((lo[1:], lo[:1] + n))  # the last gap wraps: entry n + i is entry i
    ends = hue[lo]
    mid = 0.5 * (ends + np.concatenate((ends[1:], ends[:1] + 2.0 * np.pi)))
    at = hue.searchsorted(mid)  # the first entry at or past the midpoint
    if mid[-1] > np.pi:
        at[-1] = hue.searchsorted(mid[-1] - 2.0 * np.pi) + n
    at = at.clip(lo, hi)
    cc, ss = cos[lo], sin[lo]
    width = SEED_WIDTH
    while len(lo) * len(lo) * 2 * width <= min(n, BLOCK):
        rows = (at[:, None] + np.arange(-width, width)) % n
        d2 = (2.0 - 2.0 * (cos[rows][..., None] * cc + sin[rows][..., None] * ss)).min(axis=2)
        near = d2.max(axis=1) - SEED_MARGIN
        grow = (((at - width > lo) & (d2[:, 0] >= near))
                | ((at + width - 1 < hi) & (d2[:, -1] >= near)))
        if not grow.any():
            return _first_pixel(field, rows[d2 == d2.max()])
        width *= 2
    return None


def _seed_centers(field: SpecularFreeField, k: int) -> np.ndarray:
    """Farthest-point seeding: the first center is ``field.first_entry``,
    then greedily the entry farthest in chord² from every center chosen
    so far.  Each pick reads gap windows (``_window_farthest``) until
    they would cost more than a full pass; the rest of the seeding folds
    every center into a full d² array and takes ``_farthest`` of it."""
    chosen = [field.first_entry]  # its partition copies pixel: done before cos_sin, off the peak
    cos, sin = field.cos_sin
    n = len(field.hue)
    while len(chosen) < k and (idx := _window_farthest(field, chosen)) is not None:
        chosen.append(idx)
    if len(chosen) < k:
        d2 = np.full(n, np.inf)  # chord² to the nearest center so far
        whole = np.array([0, n])
        for j in range(1, k):
            _fold_chord2(d2, field, whole, [cos[chosen[j - 1]]], [sin[chosen[j - 1]]])
            if j == len(chosen):
                chosen.append(_farthest(d2, field))
    return field.hue[chosen]


def kmeans(field: SpecularFreeField, k: int) -> ClusterSet:
    """At most KMEANS_MAX_ITER Lloyd iterations on the circle of valid
    field hues.

    Centers are seeded farthest-point from ``field.first_entry`` (see
    ``_seed_centers``).  Each update is the members' circular mean.  An
    empty cluster, or one whose hues cancel, is reseeded from the point
    farthest from its own center; surplus clusters the data cannot
    support are dropped and labels compacted.  The loop stops when an assignment repeats; a run
    that reaches the cap first issues a NoConvergenceWarning.  Raises
    ValueError when ``k`` is below 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    hue = field.hue
    n = len(hue)
    if n == 0:
        raise TooFewPixelsError("no clusterable pixels")
    if n < k:
        raise TooFewPixelsError(f"{n} clusterable pixels cannot support k={k}")

    centers = _seed_centers(field, k)
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
    else:
        warnings.warn(f"k-means at k={k} did not converge in {KMEANS_MAX_ITER} Lloyd iterations",
                      NoConvergenceWarning, stacklevel=2)

    return _drop_empty(bounds, owner, centers, iterations)


def _drop_empty(bounds: np.ndarray, owner: np.ndarray, centers: np.ndarray,
                iterations: int = 0) -> ClusterSet:
    """The ClusterSet of runs owned by indices into ``centers``, with
    the clusters that own no entry dropped and the labels compacted."""
    counts = _run_sizes(bounds, owner, len(centers))
    keep = counts > 0
    compact = np.cumsum(keep, dtype=np.int32) - 1
    return ClusterSet(bounds=bounds, owner=compact[owner], hues=centers[keep],
                      sizes=counts[keep], iterations=iterations)


def _cluster_residuals(cos: np.ndarray, sin: np.ndarray, amplitude: np.ndarray,
                       center, out: np.ndarray | None = None) -> np.ndarray:
    """Unit-circle residual of field entries against their cluster
    frame: the orthogonal part off the center's axis,
    amplitude² · sin²(hue − center hue), with sin(hue − center) expanded
    as sin·cos(center) − cos·sin(center) from the entries' ``cos`` and
    ``sin`` of hue.  It is built in ``out[0]`` with ``out[1]`` as
    scratch, ``out`` being a float64 buffer of two rows shaped like
    ``cos``, allocated when not given."""
    if out is None:
        out = np.empty((2, *np.shape(cos)))
    off = np.multiply(sin, np.cos(center), out=out[0])
    off -= np.multiply(cos, np.sin(center), out=out[1])
    off *= amplitude
    off *= off
    return off


def evaluate_fit(field: SpecularFreeField, clusters: ClusterSet,
                 tau_dev: float) -> FitDiagnostics:
    """Per-cluster unit-circle fit check.

    A cluster fails when more than TAU_FRAC of its pixels deviate from
    the unit circle by more than ``tau_dev``; failing clusters mix
    materials and should be split.
    """
    k = clusters.n_clusters
    cos, sin = field.cos_sin
    bad = np.zeros(k)
    total = 0.0
    buffer = np.empty((2, min(BLOCK, len(cos))))  # every piece's residuals and scratch
    for rows, cid in _pieces(clusters.bounds, clusters.owner.tolist()):
        dev = _cluster_residuals(cos[rows], sin[rows], field.amplitude[rows], clusters.hues[cid],
                                 buffer[:, :rows.stop - rows.start])
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
    """Fold clusters below the size floor into the nearest big cluster.

    The surviving centers are refreshed from their merged members, and
    every entry then goes to its nearest refreshed center, the rule by
    which the separation labels pixels; a center left with no entry is
    dropped."""
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

    means, _, length = _run_means(field, bounds, owner, len(big))
    new_hues = np.where(length > 1e-12, means, hues[big])
    return _drop_empty(*_hue_runs(field.hue, new_hues), new_hues)


def adaptive_cluster(field: SpecularFreeField,
                     cfg: ClusterConfig | None = None) -> tuple[ClusterSet, FitDiagnostics]:
    """Grow the cluster count until every cluster passes the fit check.

    Starts at ``cfg.initial_k`` and adds one cluster per failing cluster
    each round, for at most MAX_ROUNDS rounds.  After termination,
    clusters smaller than the size floor (``adaptive_min_cluster_size``)
    are merged into their nearest neighbor.  If the round cap is hit
    with failing clusters remaining, or k can grow no further (it has
    reached the number of valid pixels), a NoConvergenceWarning is issued
    and the best clustering so far is returned with ``converged=False``.
    The fit returned is the final clusters', with one dict per round in
    ``rounds``: its ``k``, ``lloyd_iterations``, ``failing`` clusters,
    ``fit_error`` and ``seconds``.  ``initial_k`` below 1, or a NaN or
    negative ``tau_dev``, raises ConfigError.
    """
    cfg = cfg or ClusterConfig()
    if cfg.initial_k < 1:
        raise ConfigError(f"initial_k must be >= 1, got {cfg.initial_k!r}")
    if not cfg.tau_dev >= 0:
        raise ConfigError(f"tau_dev must be >= 0, got {cfg.tau_dev!r}")
    n_valid = len(field.hue)
    min_size = adaptive_min_cluster_size(n_valid)
    if n_valid < max(min_size, cfg.initial_k):
        raise TooFewPixelsError(
            f"{n_valid} clusterable pixels; need at least {max(min_size, cfg.initial_k)}"
        )

    k = cfg.initial_k
    rounds: list[dict] = []
    for _ in range(MAX_ROUNDS):
        start = time.perf_counter()
        clusters = kmeans(field, k)
        fit = evaluate_fit(field, clusters, cfg.tau_dev)
        failing = int(np.sum(fit.failing_fractions > TAU_FRAC))
        rounds.append({"k": k, "lloyd_iterations": clusters.iterations, "failing": failing,
                       "fit_error": fit.total_error, "seconds": time.perf_counter() - start})
        if failing == 0:
            break
        next_k = clusters.n_clusters + failing
        if next_k <= k:  # collapsed clusters; still force progress
            next_k = k + failing
        next_k = min(next_k, n_valid)
        if next_k == k:  # k-means is deterministic: every later round would repeat this one
            break
        k = next_k

    converged = fit.converged  # the last round's, not the merged set's
    if not converged:
        warnings.warn(f"adaptive clustering did not converge after {len(rounds)} iterations",
                      NoConvergenceWarning, stacklevel=2)

    merged = _merge_small_clusters(clusters, field, min_size)
    if merged is not clusters:
        clusters = merged
        fit = evaluate_fit(field, clusters, cfg.tau_dev)
    for cache in ("cos_sin", "block_sums"):  # no later stage reads the angle caches
        vars(field).pop(cache, None)
    return clusters, replace(fit, converged=converged, rounds=rounds)
