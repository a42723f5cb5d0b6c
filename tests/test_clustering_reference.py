"""Hue-ordered clustering against a pixel-order reference.

The reference is the earlier pixel-order k-means: one label per valid
pixel in row-major order, centers from weighted bincounts, and
farthest-point seeding by argmax (first index in row-major order on a
tie).  Its fit check and small-cluster merge are the matching
pixel-order loops.  The hue-ordered implementation must give the same
label map, and center hues within 1e-12, on every case below.
"""

import numpy as np
import pytest

from conftest import make_field
from despec import synth
from despec.clustering import (
    KMEANS_MAX_ITER,
    TAU_FRAC,
    ClusterConfig,
    adaptive_cluster,
    adaptive_min_cluster_size,
    kmeans,
    nearest_hue,
    specular_free_field,
)
from despec.model import IlluminationBasis

HUE_TOL = 1e-12


def _mean_hues(labels, cos, sin, k):
    counts = np.bincount(labels, minlength=k)
    s = np.bincount(labels, weights=sin, minlength=k)
    c = np.bincount(labels, weights=cos, minlength=k)
    return np.arctan2(s, c), counts, np.hypot(s, c) / np.maximum(counts, 1)


def reference_kmeans(hue, k, seed):
    """(labels, hues) of the pixel-order k-means on row-major ``hue``."""
    n = len(hue)
    cos, sin = np.cos(hue), np.sin(hue)
    rng = np.random.default_rng(seed)
    centers = np.empty(k)
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
            d2_own = 2.0 - 2.0 * (cos * np.cos(centers)[labels] + sin * np.sin(centers)[labels])
            idx = int(np.argmax(d2_own))
            means[lost] = hue[idx] if d2_own[idx] > 1e-12 else centers[lost]
        centers = means
    else:
        labels = nearest_hue(hue, centers)
    counts = np.bincount(labels, minlength=k)
    keep = np.flatnonzero(counts > 0)
    labels = (np.cumsum(counts > 0, dtype=np.int32) - 1)[labels]
    return labels, centers[keep]


def reference_adaptive(hue, amplitude, cfg):
    """(labels, hues) of the pixel-order adaptive loop and merge."""
    n = len(hue)
    min_size = cfg.min_cluster_size or adaptive_min_cluster_size(n)
    k = cfg.initial_k
    for _ in range(cfg.max_iterations):
        labels, hues = reference_kmeans(hue, k, cfg.seed)
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
        remap[small] = remap[big[nearest_hue(hues[small], hues[big])]]
        labels = remap[labels]
        means, _, length = _mean_hues(labels, np.cos(hue), np.sin(hue), len(big))
        hues = np.where(length > 1e-12, means, hues[big])
    return labels, hues


def row_major_map(field, labels):
    """(H, W) label map of per-pixel ``labels`` given in row-major order."""
    full = -field.flags.astype(np.int32)
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


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_tied_hues_follow_the_seeding_tie_rule(k):
    """Six hues, each repeated hundreds of times in a shuffled grid: every
    farthest-point step has many entries at the same chord², so the
    first one in row-major order must decide."""
    values = np.array([0.0, np.pi / 3, 2 * np.pi / 3, np.pi, -2 * np.pi / 3, -np.pi / 3])
    grid = np.random.default_rng(k).choice(values, size=(30, 40))
    field = make_field(grid)
    for seed in range(4):
        clusters = kmeans(field, k, seed=seed)
        assert_same_clusters(field, clusters, *reference_kmeans(grid.reshape(-1), k, seed))


def test_cluster_straddling_the_wrap():
    """One material's hues scatter across ±pi, so its cluster is the first
    and the last run of the hue-ordered field."""
    rng = np.random.default_rng(5)
    across = np.angle(np.exp(1j * (np.pi + rng.normal(0.0, 0.05, 600))))
    grid = np.concatenate([across, rng.normal(0.5, 0.05, 400),
                           rng.normal(-1.5, 0.05, 200)])[rng.permutation(1200)]
    field = make_field(grid.reshape(30, 40))
    clusters = kmeans(field, 3, seed=0)
    assert_same_clusters(field, clusters, *reference_kmeans(grid, 3, 0))
    wrapped = clusters.owner[0]
    assert clusters.owner[-1] == wrapped and len(clusters.members(wrapped)) == 2
    assert_matches_reference(field, ClusterConfig(initial_k=2, tau_dev=0.001))
