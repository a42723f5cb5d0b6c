"""Hue-ordered clustering against a pixel-order reference.

The reference is the earlier pixel-order k-means: one label per valid
pixel in row-major order, centers from weighted bincounts, and
farthest-point seeding by argmax (first index in row-major order on a
tie).  Its fit check, small-cluster merge and final nearest-center
assignment are the matching pixel-order loops.  The hue-ordered
implementation must give the same label map, and center hues within
1e-12, on every case below.

Two parts of a Lloyd run have their own references: the full-pass
farthest-point seeding, which the gap-window seeding must match bit for
bit, and per-run ``reduceat`` sums, which the block sums must match to
1e-12 in each mean.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_field
from despec import synth
from despec import clustering
from despec.clustering import (
    BLOCK,
    BUCKETS,
    KMEANS_MAX_ITER,
    SUB,
    TAU_FRAC,
    _arcs,
    _bucket,
    _run_means,
    _seed_centers,
    _window_farthest,
    ClusterConfig,
    adaptive_cluster,
    adaptive_min_cluster_size,
    kmeans,
    nearest_hue,
    specular_free_field,
)
from despec.errors import NoConvergenceWarning
from despec.model import IlluminationBasis

HUE_TOL = 1e-12


def reference_nearest_hue(hue, centers):
    """nearest_hue by binary search: the owner of the arc whose midpoints
    bracket each hue."""
    midpoints, owner = _arcs(centers)
    return owner[np.searchsorted(midpoints, hue, side="right")]


def _mean_hues(labels, cos, sin, k):
    counts = np.bincount(labels, minlength=k)
    s = np.bincount(labels, weights=sin, minlength=k)
    c = np.bincount(labels, weights=cos, minlength=k)
    return np.arctan2(s, c), counts, np.hypot(s, c) / np.maximum(counts, 1)


def first_rank(n):
    """Row-major rank, among n valid pixels, of k-means' first center: a
    draw from a generator seeded with 0."""
    return int(np.random.default_rng(0).integers(n))


def reference_kmeans(hue, k, first):
    """(labels, hues) of the pixel-order k-means on row-major ``hue``,
    seeded at index ``first``."""
    n = len(hue)
    cos, sin = np.cos(hue), np.sin(hue)
    centers = np.empty(k)
    idx = first
    centers[0] = hue[idx]
    d2 = 2.0 - 2.0 * (cos * cos[idx] + sin * sin[idx])
    for j in range(1, k):
        idx = int(np.argmax(d2))
        centers[j] = hue[idx]
        d2 = np.minimum(d2, 2.0 - 2.0 * (cos * cos[idx] + sin * sin[idx]))
    labels = np.full(n, -1, dtype=np.int32)
    for _ in range(KMEANS_MAX_ITER):
        new_labels = reference_nearest_hue(hue, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        means, counts, length = _mean_hues(labels, cos, sin, k)
        lost = (counts == 0) | (length <= 1e-12)
        if lost.any():
            d2_own = 2.0 - 2.0 * (cos * np.cos(centers)[labels] + sin * np.sin(centers)[labels])
            idx = int(np.argmax(d2_own))
            means[lost] = hue[idx] if d2_own[idx] > 1e-12 else centers[lost]
        centers = means
    else:
        labels = reference_nearest_hue(hue, centers)
    counts = np.bincount(labels, minlength=k)
    keep = np.flatnonzero(counts > 0)
    labels = (np.cumsum(counts > 0, dtype=np.int32) - 1)[labels]
    return labels, centers[keep]


def reference_adaptive(hue, amplitude, cfg):
    """(labels, hues) of the pixel-order adaptive loop and merge."""
    n = len(hue)
    min_size = adaptive_min_cluster_size(n)
    k = cfg.initial_k
    for _ in range(clustering.MAX_ROUNDS):
        labels, hues = reference_kmeans(hue, k, first_rank(n))
        dev = (amplitude * np.sin(hue - hues[labels])) ** 2
        counts = np.bincount(labels, minlength=len(hues))
        bad = np.bincount(labels[dev > cfg.tau_dev], minlength=len(hues))
        fractions = np.divide(bad, counts, out=np.zeros(len(hues)), where=counts > 0)
        failing = int(np.sum(fractions > TAU_FRAC))
        if failing == 0:
            break
        next_k = len(hues) + failing
        k = min(next_k if next_k > k else k + failing, n)
    big = np.flatnonzero(counts >= min_size)
    small = np.flatnonzero(counts < min_size)
    if len(small) and len(big):
        remap = np.full(len(hues), -1, dtype=np.int32)
        remap[big] = np.arange(len(big), dtype=np.int32)
        remap[small] = remap[big[reference_nearest_hue(hues[small], hues[big])]]
        labels = remap[labels]
        means, _, length = _mean_hues(labels, np.cos(hue), np.sin(hue), len(big))
        hues = np.where(length > 1e-12, means, hues[big])
        labels = reference_nearest_hue(hue, hues)
        keep = np.bincount(labels, minlength=len(hues)) > 0
        labels = (np.cumsum(keep, dtype=np.int32) - 1)[labels]
        hues = hues[keep]
    return labels, hues


def row_major_map(field, labels):
    """(H, W) label map of per-pixel ``labels`` given in row-major order."""
    full = field.flags.astype(np.int32)
    full.reshape(-1)[np.sort(field.pixel)] = labels
    return full


def assert_same_clusters(field, clusters, ref_labels, ref_hues):
    assert np.array_equal(field.label_map(clusters.labels), row_major_map(field, ref_labels))
    assert len(clusters.hues) == len(ref_hues)
    gap = (clusters.hues - ref_hues + np.pi) % (2.0 * np.pi) - np.pi
    assert np.abs(gap).max() <= HUE_TOL


def assert_matches_reference(field, cfg=None):
    cfg = cfg or ClusterConfig()
    order = np.argsort(field.pixel)
    clusters, _ = adaptive_cluster(field, cfg)
    ref_labels, ref_hues = reference_adaptive(field.hue[order], field.amplitude[order], cfg)
    assert_same_clusters(field, clusters, ref_labels, ref_hues)


@pytest.mark.parametrize("quantize", [False, True], ids=["float64", "float32"])
@pytest.mark.parametrize("sigma", [0.0, 3.0])
@pytest.mark.parametrize("scene", synth.BUILTIN_SCENES)
def test_builtin_scenes(scene, sigma, quantize):
    img = synth.add_noise(synth.render(synth.builtin_scene(scene)), sigma, seed=0)
    if quantize:
        img = img.astype(np.float32).astype(np.float64)
    assert_matches_reference(specular_free_field(img, IlluminationBasis.white()))


def test_over_segmented_start():
    img = synth.add_noise(synth.render(synth.builtin_scene("over-seg")), 3.0, seed=1)
    field = specular_free_field(img, IlluminationBasis.white())
    assert_matches_reference(field, ClusterConfig(initial_k=8))


def test_clean_over_segmented_start():
    """Clean over-seg at k=8: surplus centers land on a material's hues,
    an ulp from its other center, and must merge into it rather than
    split it, so the first assignment already repeats."""
    field = specular_free_field(synth.render(synth.builtin_scene("over-seg")).input,
                                IlluminationBasis.white())
    assert kmeans(field, 8).iterations == 1
    assert_matches_reference(field, ClusterConfig(initial_k=8))
    clusters, _ = adaptive_cluster(field, ClusterConfig(initial_k=8))
    assert clusters.n_clusters == 5


@settings(max_examples=100)
@given(k=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       edge=st.sampled_from([None, -np.pi, np.pi]), twins=st.integers(0, 4))
def test_hue_table_matches_the_binary_search(k, seed, edge, twins):
    """nearest_hue's bucket table against the searchsorted one-liner, on
    ±pi, ±inf, NaN, every arc midpoint and bucket edge and the floats next
    to each, and random hues; centers include groups within HUE_TOL, one at ±pi
    and a group across the wrap."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-np.pi, np.pi, k)
    for i in range(min(twins, k - 1)):  # a center within HUE_TOL of another
        centers[k - 1 - i] = np.clip(centers[i] + rng.uniform(-1.0, 1.0) * clustering.HUE_TOL,
                                     -np.pi, np.pi)
    if edge is not None:
        centers[0] = edge
        if k > 1:  # its twin just across the wrap
            centers[1] = -edge + np.sign(edge) * rng.uniform(0.0, clustering.HUE_TOL)
    midpoints, _ = _arcs(centers)
    edges = np.arange(BUCKETS + 1) * (2.0 * np.pi / BUCKETS) - np.pi
    points = np.concatenate([midpoints, edges])
    hue = np.concatenate([[-np.pi, np.pi, -np.inf, np.inf, np.nan], points,
                          np.nextafter(points, -np.inf), np.nextafter(points, np.inf),
                          rng.uniform(-np.pi, np.pi, 2000)])
    want = reference_nearest_hue(hue, centers)
    got = nearest_hue(hue, centers)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the midpoints' own buckets take the fallback branch
    assert np.isin(_bucket(hue), _bucket(midpoints)).any()


@settings(max_examples=60)
@given(hues=st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=5),
       k=st.integers(1, 8), shuffle=st.integers(0, 2**32 - 1), data=st.data())
def test_ulp_jittered_hues_stay_in_one_cluster(hues, k, shuffle, data):
    """Each drawn hue, copied many times within a few ulps: k-means at
    any k, from any first center, stops before the cap and keeps every
    copy of a hue in one cluster."""
    copies = []
    for h in hues:
        up, down = [h], [h]
        for _ in range(3):
            up.append(np.nextafter(up[-1], np.inf))
            down.append(np.nextafter(down[-1], -np.inf))
        copies.append(np.clip(np.tile(up + down[1:], 30), -np.pi, np.pi))
    group = np.repeat(np.arange(len(hues)), [len(c) for c in copies])
    order = np.random.default_rng(shuffle).permutation(len(group))
    grid, group = np.concatenate(copies)[order], group[order]
    field = make_field(grid.reshape(1, -1))
    field.first_entry = data.draw(st.integers(0, len(grid) - 1), label="first")
    with warnings.catch_warnings():
        warnings.simplefilter("error", NoConvergenceWarning)
        clusters = kmeans(field, k)
    assert clusters.iterations < KMEANS_MAX_ITER
    per_entry = group[field.pixel]
    for g in range(len(hues)):
        assert len(np.unique(clusters.labels[per_entry == g])) == 1


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_tied_hues_follow_the_seeding_tie_rule(k):
    """Six hues, each repeated hundreds of times in a shuffled grid: every
    farthest-point step has many entries at the same chord², so the
    first one in row-major order must decide."""
    values = np.array([0.0, np.pi / 3, 2 * np.pi / 3, np.pi, -2 * np.pi / 3, -np.pi / 3])
    grid = np.random.default_rng(k).choice(values, size=(30, 40))
    field = make_field(grid)
    for seed in range(4):
        rank = int(np.random.default_rng(seed).integers(grid.size))
        field.first_entry = int(np.argsort(field.pixel)[rank])  # k-means' first center
        clusters = kmeans(field, k)
        assert_same_clusters(field, clusters, *reference_kmeans(grid.reshape(-1), k, rank))


def test_cluster_straddling_the_wrap():
    """One material's hues scatter across ±pi, so its cluster is the first
    and the last run of the hue-ordered field."""
    rng = np.random.default_rng(5)
    across = np.angle(np.exp(1j * (np.pi + rng.normal(0.0, 0.05, 600))))
    grid = np.concatenate([across, rng.normal(0.5, 0.05, 400),
                           rng.normal(-1.5, 0.05, 200)])[rng.permutation(1200)]
    field = make_field(grid.reshape(30, 40))
    clusters = kmeans(field, 3)
    assert_same_clusters(field, clusters, *reference_kmeans(grid, 3, first_rank(grid.size)))
    wrapped = clusters.owner[0]
    assert clusters.owner[-1] == wrapped and len(clusters.members(wrapped)) == 2
    assert_matches_reference(field, ClusterConfig(initial_k=2, tau_dev=0.001))


def reference_seed_centers(field, k):
    """The full-pass farthest-point seeding from ``field.first_entry``:
    each new center's chord² is folded into one d² array over the whole
    field, and the next center is its largest entry, the first in
    row-major pixel order on a tie."""
    hue, pixel = field.hue, field.pixel
    cos, sin = field.cos_sin
    idx = field.first_entry
    centers = [hue[idx]]
    d2 = np.full(len(hue), np.inf)
    for _ in range(1, k):
        d2 = np.minimum(d2, 2.0 - 2.0 * (cos * cos[idx] + sin * sin[idx]))
        ties = np.flatnonzero(d2 == d2.max())
        idx = int(ties[np.argmin(pixel[ties])])
        centers.append(hue[idx])
    return np.array(centers)


def assert_same_seeds(field, k, first):
    """Seeds from entry ``first``, set as the field's first center."""
    field.first_entry = first
    got = _seed_centers(field, k)
    want = reference_seed_centers(field, k)
    assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def seeding_grids(draw):
    """A shuffled row of hues, each of a few values drawn many times, in
    one of five layouts: random values; a ring of equal steps and its
    mirror image, so that equal chord² span windows; values at ±pi; a
    cluster straddling the wrap; runs of ulp neighbours of a hue and of
    its antipode, whose chord² differ by rounding alone."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["random", "ring", "edges", "wrap", "ulps"]))
    m = draw(st.integers(1, 24))
    if layout == "ulps":
        hues = rng.uniform(-np.pi, np.pi, 2)
        ends = np.concatenate([hues, np.angle(np.exp(1j * (hues + np.pi)))])
        up, down, chain = ends, ends, [ends]
        for _ in range(m):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            chain += [up, down]
        values = np.clip(np.concatenate(chain), -np.pi, np.pi)
    elif layout == "ring":
        steps = np.pi * np.arange(m) / m
        values = np.concatenate([steps, -steps])
    elif layout == "edges":
        values = np.concatenate([[-np.pi, np.pi], rng.uniform(-np.pi, np.pi, m)])
    elif layout == "wrap":
        values = np.concatenate([np.angle(np.exp(1j * (np.pi + rng.normal(0.0, 0.05, m)))),
                                 rng.uniform(-np.pi, np.pi, 2)])
    else:
        values = rng.uniform(-np.pi, np.pi, m)
    return rng.choice(values, draw(st.integers(1, 400)))


@settings(max_examples=150)
@given(grid=seeding_grids(), data=st.data())
def test_window_seeding_matches_the_full_pass(grid, data):
    """Seeds equal the full-pass reference bit for bit, for k from 1 to
    the entry count and a first center at any entry: the gap windows for
    the first picks, the full-pass fallback once windows would cost
    more."""
    field = make_field(grid.reshape(1, -1))
    k = data.draw(st.integers(1, len(grid)), label="k")
    assert_same_seeds(field, k, data.draw(st.integers(0, len(grid) - 1), label="first"))


@pytest.mark.parametrize("k", [2, 5, 16, 60])
@pytest.mark.parametrize("scene", synth.BUILTIN_SCENES)
def test_window_seeding_on_scenes(scene, k):
    """Noisy float32 scenes, whose hues repeat, at k small enough that
    the first picks read gap windows."""
    img = synth.add_noise(synth.render(synth.builtin_scene(scene, 160, 120)), 3.0, seed=2)
    field = specular_free_field(img.astype(np.float32), IlluminationBasis.white())
    assert k * k * 2 * clustering.SEED_WIDTH <= min(len(field.hue), clustering.BLOCK)
    for first in (field.first_entry, 0, len(field.hue) - 1):
        assert_same_seeds(field, k, first)


def test_window_seeding_falls_back_near_every_entry():
    """With nearly every entry a center, the windows would cost more than
    a full pass: _window_farthest declines and the fold takes over."""
    field = make_field(np.random.default_rng(3).uniform(-np.pi, np.pi, (10, 10)))
    assert _window_farthest(field, list(range(40))) is None
    assert_same_seeds(field, 97, field.first_entry)


# entries of the block-sum fields: their last block is short, and up to
# 48 bounds take the block path, where _run_sums needs
# BLOCK + 10 * SUB * bounds entries
N_BLOCKED = BLOCK + 10 * SUB * 48 + 37


def reference_run_means(field, bounds, owner, k):
    """Per-cluster mean angle, count and mean resultant length from one
    reduceat over every entry."""
    cos, sin = field.cos_sin
    counts = np.bincount(owner, weights=np.diff(bounds), minlength=k).astype(np.int64)
    s = np.bincount(owner, weights=np.add.reduceat(sin, bounds[:-1]), minlength=k)
    c = np.bincount(owner, weights=np.add.reduceat(cos, bounds[:-1]), minlength=k)
    return np.arctan2(s, c), counts, np.hypot(s, c) / np.maximum(counts, 1)


def assert_block_means(cuts, shared=False, n=N_BLOCKED):
    """_run_means of runs cut at ``cuts`` from a field of ``n`` entries
    against reference_run_means; returns the field."""
    rng = np.random.default_rng(len(cuts))
    # hues on a 2 rad arc, so no run's sum cancels
    field = make_field(rng.permutation(rng.uniform(-1.0, 1.0, n)).reshape(1, -1))
    bounds = np.array([0, *cuts, n])
    owner = np.arange(len(bounds) - 1, dtype=np.int32)
    k = len(owner)
    if shared:  # every other run shares one cluster
        owner[1::2] = k
        k += 1
    got, want = _run_means(field, bounds, owner, k), reference_run_means(field, bounds, owner, k)
    assert np.array_equal(got[1], want[1])
    assert np.abs(got[0] - want[0]).max() <= 1e-12
    assert np.abs(got[2] - want[2]).max() <= 1e-12
    return field


@pytest.mark.parametrize("cuts", [
    [10, 20],                        # shorter than a block, inside one
    [SUB, 2 * SUB],                  # exactly one block
    [SUB - 5, 3 * SUB + 7],          # longer than a block, across edges
    [3 * SUB, 3 * SUB + 1],          # one entry, starting on an edge
    [5, SUB],                        # ending on an edge
    [SUB - 1, SUB + 1],              # two entries across an edge
    [],                              # the whole field
    [N_BLOCKED - 3],                 # inside the short last block
    [N_BLOCKED // SUB * SUB],        # the short last block alone
], ids=["short", "one-block", "long", "from-edge", "to-edge", "across-edge", "whole",
        "last-block", "last-alone"])
def test_block_sum_means_match_reduceat(cuts):
    """Means from the field's block sums stay within 1e-12 of one
    reduceat over the run's entries, counts equal."""
    assert "block_sums" in vars(assert_block_means(cuts))  # the block path


@settings(max_examples=80)
@given(cuts=st.sets(st.one_of(st.integers(1, N_BLOCKED - 1),
                              st.integers(1, N_BLOCKED // SUB).flatmap(
                                  lambda q: st.sampled_from([q * SUB - 1, q * SUB, q * SUB + 1]))),
                    max_size=40),
       shared=st.booleans())
def test_block_sum_means_property(cuts, shared):
    """Random cuts, many on or next to a block edge, and clusters of one
    or several runs, all on the block path."""
    assert_block_means(sorted(c for c in cuts if 0 < c < N_BLOCKED), shared)


@pytest.mark.parametrize("n, bounds, blocked", [
    (N_BLOCKED, 48, True),
    (N_BLOCKED, 49, False),
    (11 * BLOCK + 10 * SUB, BLOCK // SUB, True),
    (11 * BLOCK + 10 * SUB, BLOCK // SUB + 1, False),
], ids=["field-below", "field-above", "block-below", "block-above"])
def test_block_sum_path_cutoff(n, bounds, blocked):
    """On each side of the cutoff, from a tenth of the field beyond BLOCK
    and from BLOCK itself, the means match the reference; only below it
    do they come from the field's block sums."""
    cuts = np.random.default_rng(bounds).choice(np.arange(1, n), bounds - 2, replace=False)
    field = assert_block_means(sorted(cuts.tolist()), n=n)
    assert ("block_sums" in vars(field)) == blocked
