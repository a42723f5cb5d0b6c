"""Pure-diffuse peak finding and per-pixel highlight separation."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_exact_split, parallel_coeff
import despec
from despec import errors, synth
from despec.clustering import (
    FLAG_VALID,
    LABEL_ACHROMATIC,
    LABEL_BLACK,
    ClusterSet,
    _arcs,
    _bucket,
    adaptive_cluster,
    kmeans,
    nearest_hue,
    specular_free_field,
    split_block,
)
from despec.model import WHITE, IlluminationBasis
from despec.recovery import (
    EDGES,
    FALLBACK_PERCENTILE,
    PEAK_FLOOR,
    MaterialModel,
    _diffuse_parallel_for_cluster,
    _first_peak_index,
    estimate_models,
    estimate_ratio,
    model_for_cluster,
    parallel_coefficients,
    separate_image,
    working_image,
)

OLIVE = np.array([2.0, 2.0, 1.0]) / 3.0
OLIVE_PARALLEL = 0.9622504486493764
OLIVE_DIR = np.array([0.4082482904638624, 0.4082482904638624, -0.8164965809277266])
OLIVE_HUE = np.pi / 3.0  # OLIVE_DIR in the white basis's (u, v) frame


@pytest.fixture
def white():
    return IlluminationBasis.white()


def olive_image(spec_strengths, shape):
    """Constant-material image: ``pixel = OLIVE + s * unit_illumination``."""
    flat = np.empty((len(spec_strengths), 3))
    flat[:] = OLIVE
    flat += np.asarray(spec_strengths)[:, None] * WHITE
    return flat.reshape(*shape, 3)


def single_cluster(img, white):
    return kmeans(specular_free_field(img, white), 1)


def model_of(img, clusters, cluster_id, white):
    return model_for_cluster(specular_free_field(img, white), clusters, cluster_id, white)


def cluster_and_models(img, white):
    """The pipeline's estimation stages on one field: adaptive clusters,
    the material model of each, and the (H, W) label map."""
    field = specular_free_field(img, white)
    clusters, _ = adaptive_cluster(field)
    return clusters, estimate_models(field, clusters, white), field.label_map(clusters.labels)


def separated(img, white, threads=1):
    """The full-resolution pipeline path: estimate, then separate under
    the label map."""
    clusters, models, labels = cluster_and_models(img, white)
    return separate_image(img, clusters, models, white, threads=threads, labels=labels)


def gamma_of(img, white):
    """Illumination-parallel coefficient of each pixel's chromaticity."""
    return parallel_coeff(img, white) / np.linalg.norm(img, axis=-1)


def coefficient_counts(img, clusters, cluster_id, basis):
    """Histogram counts of one cluster's parallel coefficients, binned
    the way the recovery stage bins them."""
    coeffs = parallel_coefficients(specular_free_field(img, basis), clusters, cluster_id)
    counts, _ = np.histogram(coeffs, bins=EDGES)
    return counts


def peak_center(counts):
    """Center of the first-peak bin of ``counts``."""
    i = _first_peak_index(counts)
    return float((EDGES[i] + EDGES[i + 1]) / 2.0)


class TestHistogram:
    def test_edges(self):
        assert len(EDGES) == 202
        assert EDGES[0] == 0.0
        assert EDGES[-1] == pytest.approx(1.005, abs=1e-15)
        assert np.allclose(np.diff(EDGES), 0.005)

    def test_counts_sum_to_cluster_size(self, white):
        gt = synth.render(synth.builtin_scene("four-materials", 160, 112))
        clusters, _ = adaptive_cluster(specular_free_field(gt.input, white))
        for cid in range(clusters.n_clusters):
            counts = coefficient_counts(gt.input, clusters, cid, white)
            assert counts.sum() == clusters.sizes[cid]

    def test_field_coefficients_match_the_pixels(self, white):
        """A cluster's coefficients are its pixels' parallel_coeff(px)/|px|."""
        gt = synth.render(synth.builtin_scene("four-materials", 160, 112))
        img = synth.add_noise(gt, 3.0, seed=2)
        field = specular_free_field(img, white)
        clusters, _ = adaptive_cluster(field)
        labels = field.label_map(clusters.labels)
        for cid in range(clusters.n_clusters):
            pixel = np.concatenate([field.pixel[rows] for rows in clusters.members(cid)])
            assert np.array_equal(np.sort(pixel), np.flatnonzero(labels == cid))
            px = img.reshape(-1, 3)[pixel]
            expected = parallel_coeff(px, white) / np.linalg.norm(px, axis=-1)
            coeffs = parallel_coefficients(field, clusters, cid)
            assert np.abs(coeffs - expected).max() <= 1e-15

    @pytest.mark.parametrize("illum", [(1.0, 1.0, 0.01), (1.0, 0.001, 0.001)])
    def test_coefficients_under_a_strong_illuminant(self, illum):
        """Derived from the amplitude, the coefficients still match c·d
        when the illuminant leaves some pixels almost orthogonal to it."""
        basis = IlluminationBasis.from_rgb(illum)
        rng = np.random.default_rng(37)
        img = rng.random((40, 30, 3)) ** 4 + 1e-3
        field = specular_free_field(img, basis)
        clusters = kmeans(field, 1)
        px = img.reshape(-1, 3)[field.pixel]
        expected = parallel_coeff(px, basis) / np.linalg.norm(px, axis=-1)
        coeffs = parallel_coefficients(field, clusters, 0)
        assert expected.min() < 0.05  # some pixels sit near the orthogonal plane
        assert np.abs(coeffs - expected).max() <= 1e-12

    def test_three_spec_levels_occupy_expected_bins(self, white):
        img = olive_image([0.0] * 60 + [0.2] * 30 + [0.5] * 10, (10, 10))
        counts = coefficient_counts(img, single_cluster(img, white), 0, white)
        assert set(np.flatnonzero(counts)) == {192, 194, 196}
        assert counts[[192, 194, 196]].tolist() == [60, 30, 10]

    def test_empty_cluster(self, white):
        img = olive_image([0.0] * 16, (4, 4))
        clusters = single_cluster(img, white)
        with pytest.raises(errors.EmptyClusterError):
            model_of(img, clusters, 1, white)


class TestFirstPeak:
    def make_counts(self, placed):
        counts = np.zeros(len(EDGES) - 1, dtype=np.int64)
        for b, c in placed.items():
            counts[b] = c
        return counts

    def test_unimodal_within_one_bin(self, white):
        img = olive_image([0.0] * 60 + [0.2] * 30 + [0.5] * 10, (10, 10))
        counts = coefficient_counts(img, single_cluster(img, white), 0, white)
        assert abs(peak_center(counts) - OLIVE_PARALLEL) <= 0.005

    def test_first_peak_beats_larger_later_peak(self):
        peak = peak_center(self.make_counts({160: 50, 190: 100}))
        assert abs(peak - 0.80) <= 0.005
        assert peak < 0.9  # the 100-count mode is NOT chosen

    def test_tiny_leading_bump_skipped(self):
        # 3 stray counts ahead of the real 200-count mode: under the
        # floor of max(5, 0.005 * 203), so not a peak.
        assert abs(peak_center(self.make_counts({40: 3, 120: 200})) - 0.60) <= 0.005

    def test_mass_at_top_of_range(self):
        assert abs(peak_center(self.make_counts({200: 100})) - 1.0) <= 0.005

    def test_no_peak(self):
        counts = self.make_counts({i: 1 for i in range(0, 36, 3)})
        assert _first_peak_index(counts) is None

    @pytest.mark.parametrize("count", [0, 1, PEAK_FLOOR - 1])
    def test_flat_histogram_has_no_peak(self, count):
        """Every bin equal and below the floor: each is a local maximum,
        none holds enough counts."""
        assert _first_peak_index(np.full(len(EDGES) - 1, count, dtype=np.int64)) is None

    @settings(max_examples=200)
    @given(counts=arrays(np.int64, st.integers(1, len(EDGES) - 1),
                         elements=st.integers(0, 12) | st.integers(0, 10**4)))
    @example(counts=np.array([30]))
    @example(counts=np.array([0, 30]))
    @example(counts=np.array([0, 30, 0]))
    def test_matches_the_padded_box_filter(self, counts):
        """The first peak of the 3-bin box filter summed over a zero-padded
        copy, left neighbor first, and compared against zero beyond both
        ends."""
        padded = np.zeros(len(counts) + 2)
        padded[1:-1] = counts
        smooth = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
        left = np.concatenate(([0.0], smooth[:-1]))
        right = np.concatenate((smooth[1:], [0.0]))
        floor = max(PEAK_FLOOR, 0.005 * float(counts.sum()))
        idx = np.flatnonzero((smooth >= left) & (smooth >= right) & (smooth >= floor))
        assert _first_peak_index(counts) == (int(idx[0]) if len(idx) else None)

    @settings(max_examples=200)
    @given(counts=arrays(np.int64, st.integers(1, len(EDGES) - 1),
                         elements=st.integers(0, 12) | st.integers(0, 10**4)))
    def test_peak_window_holds_three_floors(self, counts):
        """A peak's smoothed count is at least PEAK_FLOOR, so the peak bin
        and its neighbors (clipped at the ends), the window whose median
        sets the diffuse coefficient, hold at least 3 * PEAK_FLOOR."""
        i = _first_peak_index(counts)
        if i is not None:
            assert counts[max(i - 1, 0):i + 2].sum() >= 3 * PEAK_FLOOR


class TestEstimateRatio:
    def test_olive_coefficient(self):
        ortho, ratio = estimate_ratio(OLIVE_PARALLEL)
        assert ortho == pytest.approx(math.sqrt(2.0 / 27.0), rel=1e-12)
        assert ratio == pytest.approx(math.sqrt(2.0) / 5.0, rel=1e-12)

    def test_half(self):
        ortho, ratio = estimate_ratio(0.5)
        assert ortho == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        assert ratio == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_unit_circle(self):
        ortho, _ = estimate_ratio(0.73)
        assert ortho * ortho + 0.73 * 0.73 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [1.0, 0.99995, 0.0, -0.1, 1.2])
    def test_degenerate(self, bad):
        assert estimate_ratio(bad) is None


class TestModelForCluster:
    def test_clean_material_recovers_exact_coefficient(self, white):
        img = olive_image([0.0] * 60 + [0.2] * 30 + [0.5] * 10, (10, 10))
        model = model_of(img, single_cluster(img, white), 0, white)
        assert model is not None
        assert model.diffuse_parallel == pytest.approx(OLIVE_PARALLEL, rel=1e-12)
        assert model.diffuse_ortho == pytest.approx(math.sqrt(2.0 / 27.0), rel=1e-12)
        rebuilt = model.diffuse_ortho * model.center + model.diffuse_parallel * WHITE
        assert rebuilt == pytest.approx(OLIVE, rel=1e-12)
        o, p = model.diffuse_ortho, model.diffuse_parallel
        assert o * o + p * p == pytest.approx(1.0, abs=1e-12)
        assert model.ratio > 0

    def test_near_illumination_material_passes_through(self, white):
        """A material 0.29 degrees off the illumination color has no
        stable orthogonal component; no model is produced."""
        chroma = synth.hue_chromaticity(0.0, saturation=0.005)
        img = np.broadcast_to(0.6 * chroma, (12, 12, 3)).copy()
        clusters = single_cluster(img, white)
        assert model_of(img, clusters, 0, white) is None

    def test_fallback_percentile_when_no_peak(self, white):
        img = olive_image(np.linspace(0.0, 1.0, 12), (3, 4))
        clusters = single_cluster(img, white)
        assert _first_peak_index(coefficient_counts(img, clusters, 0, white)) is None
        model = model_of(img, clusters, 0, white)
        coeffs = gamma_of(img, white).reshape(-1)
        assert model.diffuse_parallel == pytest.approx(
            np.percentile(coeffs, 2.0), rel=1e-12)
        field_coeffs = parallel_coefficients(specular_free_field(img, white), clusters, 0)
        assert model.diffuse_parallel == np.percentile(field_coeffs, FALLBACK_PERCENTILE)

    def test_estimate_models_covers_all_clusters(self, white):
        gt = synth.render(synth.builtin_scene("four-materials", 160, 112))
        clusters, models, _ = cluster_and_models(gt.input, white)
        assert sorted(models) == list(range(clusters.n_clusters))
        assert all(m is not None for m in models.values())


def median_diffuse_parallel(coeffs):
    """_diffuse_parallel_for_cluster with the window median taken by
    np.median: the reference the by-index median must equal bit for bit."""
    ordered = np.sort(coeffs)
    pos = np.searchsorted(ordered, EDGES, side="left")
    i = _first_peak_index(np.diff(pos))
    if i is None:
        return float(np.percentile(coeffs, 2.0))
    return float(np.median(ordered[pos[max(i - 1, 0)]:pos[min(i + 2, len(EDGES) - 1)]]))


class TestPeakWindowMedian:
    @settings(max_examples=300)
    @given(n=st.integers(15, 120), centre=st.floats(0.01, 0.99), data=st.data())
    def test_median_by_index_is_np_median(self, n, centre, data):
        """A cluster of n coefficients in and around one bin (windows of
        odd and even length) plus a scattered rest."""
        jitter = data.draw(arrays(np.float64, n, elements=st.floats(-0.006, 0.006)))
        rest = data.draw(arrays(np.float64, st.integers(0, 40), elements=st.floats(0.0, 1.0)))
        coeffs = np.concatenate([np.clip(centre + jitter, 0.0, 1.0), rest])
        assert _diffuse_parallel_for_cluster(coeffs) == median_diffuse_parallel(coeffs)

    @pytest.mark.parametrize("n", [15, 16])
    def test_one_bin(self, n):
        coeffs = 0.5 + np.arange(n) * 1e-6
        assert _diffuse_parallel_for_cluster(coeffs) == float(np.median(coeffs))

    def test_pipeline_imports_no_masked_arrays(self):
        """np.median imports numpy.ma on its first call, which a cold run
        pays for; a run, on either path, leaves it unimported."""
        code = ("import sys\n"
                "from despec import pipeline, synth\n"
                "img = synth.render(synth.builtin_scene('four-materials', 160, 120)).input\n"
                "pipeline.run(img)\n"
                "pipeline.TARGET_EDGE = 64\n"
                "pipeline.run(img, pipeline.PipelineConfig(fast=True))\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(despec.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


class TestSeparatePixel:
    """Worked single-pixel examples, run through separate_image on a 1xN
    image labeled with one hand-built olive material."""

    def separate(self, pixels, white):
        pixels = np.atleast_2d(pixels)
        ortho, ratio = estimate_ratio(OLIVE_PARALLEL)
        model = MaterialModel(center=OLIVE_DIR, diffuse_ortho=ortho,
                              diffuse_parallel=OLIVE_PARALLEL, ratio=ratio)
        n = len(pixels)
        clusters = ClusterSet(bounds=np.array([0, n]), owner=np.zeros(1, dtype=np.int32),
                              hues=np.array([OLIVE_HUE]), sizes=np.array([n]))
        result = separate_image(pixels[None], clusters, {0: model}, white,
                                labels=np.zeros((1, n), dtype=np.int32))
        return result.diffuse[0], result.specular[0]

    def test_worked_example(self, white):
        # 0.4*(1,1,1 scaled olive) plus a highlight of strength 0.2 along
        # the unit illumination direction adds 0.2/sqrt(3) per channel.
        s = 0.2 / math.sqrt(3.0)
        pixel = np.array([0.4 + s, 0.4 + s, 0.2 + s])
        diffuse, specular = self.separate(pixel, white)
        assert diffuse[0] == pytest.approx([0.4, 0.4, 0.2], abs=1e-12)
        assert specular[0] == pytest.approx([s, s, s], abs=1e-12)
        assert diffuse[0] + specular[0] == pytest.approx(pixel, abs=0)

    def test_pure_diffuse_pixel_keeps_everything(self, white):
        pixel = 0.37 * OLIVE
        diffuse, specular = self.separate(pixel, white)
        assert np.abs(specular).max() <= 1e-12
        assert diffuse[0] == pytest.approx(pixel, abs=1e-12)

    def test_pure_highlight_pixel_goes_fully_specular(self, white):
        pixel = 0.5 * WHITE
        diffuse, specular = self.separate(pixel, white)
        assert specular[0] == pytest.approx(pixel, abs=1e-12)
        assert np.abs(diffuse).max() <= 1e-12

    def test_clamp_keeps_diffuse_nonnegative(self, white):
        """An overshooting strength estimate may not push any diffuse
        channel below zero."""
        pixel = np.array([0.001, 0.001, 0.0005]) + 0.9 * WHITE
        diffuse, specular = self.separate(pixel, white)
        assert diffuse.min() >= 0.0
        assert specular.min() >= 0.0
        assert diffuse[0] + specular[0] == pytest.approx(pixel, abs=0)


def per_channel_split(img, models, basis, labels):
    """(diffuse, specular) of separate_image under ``labels``, one
    channel at a time over the whole image: the clip, then input -
    specular, then the exact specular part input - diffuse."""
    img = working_image(img)
    d = basis.direction
    axis = np.zeros((3, max(models) + 3))
    for cid, model in models.items():
        if model is not None:
            axis[:, cid + 1] = d - model.center / model.ratio
    slot = np.maximum(labels + 1, 0)
    scratch = np.empty(labels.shape)
    strength = img[..., 0] * axis[0].take(slot, mode="clip", out=scratch)
    for i in (1, 2):
        strength += np.multiply(img[..., i], axis[i].take(slot, mode="clip", out=scratch),
                                out=scratch)
    diffuse, specular = np.empty_like(img), np.empty_like(img)
    for i in range(3):
        b, sp, dif = img[..., i], specular[..., i], diffuse[..., i]
        np.multiply(strength, d[i], out=scratch)
        np.maximum(scratch, 0.0, out=scratch)
        np.minimum(scratch, b, out=sp)
        np.subtract(b, sp, out=dif)
        np.subtract(b, dif, out=sp)
    return diffuse, specular


class TestSeparateImage:
    def test_missing_model_rejected(self, white):
        img = olive_image([0.0] * 16, (4, 4))
        clusters = single_cluster(img, white)
        with pytest.raises(ValueError, match="no material model for cluster 0"):
            separate_image(img, clusters, {}, white)

    def test_label_beyond_clusters_rejected(self, white):
        img = olive_image([0.0] * 16, (4, 4))
        field = specular_free_field(img, white)
        clusters = kmeans(field, 1)
        model = model_of(img, clusters, 0, white)
        labels = field.label_map(clusters.labels)
        labels[3, 3] = 1  # one cluster, so label 1 has no model slot
        with pytest.raises(ValueError, match="label 1 has no cluster: there are 1"):
            separate_image(img, clusters, {0: model, 1: model}, white, labels=labels)

    @pytest.mark.parametrize("case", ["models", "labels", "shape"])
    def test_arguments_are_checked_before_the_kernel_runs(self, white, monkeypatch, case):
        img = olive_image([0.0] * 16, (4, 4))
        clusters = single_cluster(img, white)
        models = {} if case == "models" else {0: None}
        labels = {"models": None, "labels": np.ones((4, 4), dtype=np.int32),
                  "shape": np.zeros((4, 3), dtype=np.int32)}[case]

        def kernel(*args):
            raise AssertionError("a pixel was split")

        monkeypatch.setattr(despec.recovery, "run_rows", kernel)
        with pytest.raises(ValueError):
            separate_image(img, clusters, models, white, labels=labels)

    def test_label_map_of_another_shape_rejected(self, white):
        img = olive_image([0.0] * 16, (4, 4))
        clusters = single_cluster(img, white)
        model = model_of(img, clusters, 0, white)
        with pytest.raises(ValueError, match="label map shape"):
            separate_image(img, clusters, {0: model}, white,
                           labels=np.zeros((4, 3), dtype=np.int32))

    def test_missing_model_of_an_unused_cluster_is_rejected(self, white):
        """Every cluster id needs an entry, on both labelling paths, even
        one that no pixel carries; keys beyond the clusters are ignored."""
        img = olive_image([0.0, 0.1, 0.2, 0.3] * 4, (4, 4))
        field = specular_free_field(img, white)
        one = kmeans(field, 1)
        model = model_of(img, one, 0, white)
        far = np.angle(np.exp(1j * (one.hues[0] + np.pi)))  # nearest to no pixel
        two = ClusterSet(bounds=one.bounds, owner=one.owner, hues=np.append(one.hues, far),
                         sizes=np.append(one.sizes, 0))
        want = separate_image(img, one, {0: model}, white)
        for labels in (None, field.label_map(one.labels)):
            with pytest.raises(ValueError, match="no material model for cluster 1"):
                separate_image(img, two, {0: model, 2: model}, white, labels=labels)
            got = separate_image(img, two, {0: model, 1: None, 2: model}, white, labels=labels)
            assert np.array_equal(got.diffuse, want.diffuse)
            assert np.array_equal(got.specular, want.specular)
            assert np.array_equal(got.labels, want.labels)

    def test_pass_through_model(self, white):
        chroma = synth.hue_chromaticity(0.0, saturation=0.005)
        img = np.broadcast_to(0.6 * chroma, (8, 8, 3)).copy()
        clusters = single_cluster(img, white)
        result = separate_image(img, clusters, {0: None}, white)
        assert np.array_equal(result.diffuse, img)
        assert np.all(result.specular == 0.0)

    def test_flagged_pixels_pass_through(self, white):
        img = olive_image([0.1] * 64, (8, 8))
        img[0, 0] = 0.0
        img[0, 1] = [0.3, 0.3, 0.3]
        result = separated(img, white)
        assert np.array_equal(result.diffuse[0, 0], img[0, 0])
        assert np.array_equal(result.diffuse[0, 1], img[0, 1])
        assert np.all(result.specular[0, :2] == 0.0)

    def test_additivity_and_nonnegativity_under_noise(self, white):
        gt = synth.render(synth.builtin_scene("single-1", 160, 120))
        img = synth.add_noise(gt, 6.0, seed=3)
        assert_exact_split(separated(img, white), img)

    def test_idempotent_on_own_diffuse_output(self, white):
        gt = synth.render(synth.builtin_scene("single-2", 160, 120))
        result = separated(gt.input, white)
        again = separated(result.diffuse, white)
        assert np.abs(again.specular).max() <= 1e-6
        assert np.abs(again.diffuse - result.diffuse).max() <= 1e-6

    def test_specular_part_keeps_illumination_color(self, white):
        gt = synth.render(synth.builtin_scene("four-materials", 200, 140))
        result = separated(gt.input, white)
        mag = np.linalg.norm(result.specular, axis=-1)
        strong = mag > 0.02
        assert strong.any()
        chroma = result.specular[strong] / mag[strong, None]
        assert np.abs(chroma - WHITE).max() <= 1e-6

    def test_lowest_coefficient_pixels_carry_no_highlight(self, white):
        """Per material, the pixels at the bottom of the parallel-coefficient
        range are highlight-free in truth and must stay so in the output."""
        gt = synth.render(synth.builtin_scene("four-materials", 200, 140))
        clusters, models, labels = cluster_and_models(gt.input, white)
        result = separate_image(gt.input, clusters, models, white, labels=labels)
        coeffs = gamma_of(gt.input, white)
        for cid in range(clusters.n_clusters):
            mask = labels == cid
            floor = coeffs[mask].min()
            lowest = mask & (coeffs <= floor + 1e-12)
            assert np.all(np.linalg.norm(gt.specular[lowest], axis=-1) == 0.0)
            assert np.linalg.norm(result.specular[lowest], axis=-1).max() <= 1e-12

    @pytest.mark.parametrize("illum", [(1.0, 1.0, 1.0), (1.0, 0.8, 0.6)])
    def test_self_labels_at_arc_midpoints(self, illum):
        """Pixels whose hues sit on the arc midpoints and a few ulps off
        them, where the lookup table hands over to its binary search: the
        kernel's own labels are nearest_hue of split_block's hue."""
        basis = IlluminationBasis.from_rgb(illum)
        centers = np.array([-2.5, -0.4, 0.9, 2.2, np.pi])
        midpoints, owner = _arcs(centers)
        mid = midpoints[np.abs(midpoints) <= np.pi]
        aim = mid[:, None] + np.arange(-64, 65) / 4 * np.spacing(np.abs(mid))[:, None]
        pixels = 0.3 * basis.orthogonal(aim) + math.sqrt(0.91) * basis.direction
        img = (pixels[:, :, None] * np.array([1.0, 0.7, 0.3])[:, None]).reshape(len(mid), -1, 3)
        clusters = ClusterSet(bounds=np.array([0]), owner=np.empty(0, dtype=np.int32),
                              hues=centers, sizes=np.zeros(len(centers), dtype=np.int64))
        result = separate_image(img, clusters, dict.fromkeys(range(len(centers))), basis)
        hue, _, flags = split_block(img, basis)
        assert np.all(flags == FLAG_VALID)
        assert np.array_equal(result.labels, nearest_hue(hue, centers))
        assert np.array_equal(result.labels,
                              owner[np.searchsorted(midpoints, hue, side="right")])
        assert np.isin(hue, mid).any() and np.isin(_bucket(hue), _bucket(mid)).mean() > 0.9

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    def test_whole_pixel_subtractions_keep_the_per_channel_bits(self, dtype, data):
        """The kernel's two exact subtractions run once over whole pixels;
        its parts equal those of the per-channel sequence bit for bit, at
        ±0, subnormals, the clip bound (gray pixels), on flagged and
        pass-through slots, at any thread count."""
        rows, width = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
        tiny = float(np.finfo(dtype).smallest_subnormal)
        sample = st.one_of(st.sampled_from([0.0, -0.0, tiny, 2 * tiny, 1.0]),
                           st.floats(0.0, 4.0, width=np.finfo(dtype).bits,
                                     allow_subnormal=True))
        img = data.draw(arrays(dtype, (rows, width, 3), elements=sample))
        gray = data.draw(arrays(np.bool_, (rows, width)))
        img[gray] = img[gray][:, :1]  # the strength puts these at the clip bound
        basis = IlluminationBasis.from_rgb(data.draw(st.sampled_from(
            [(1, 1, 1), (1, 0.8, 0.6), (1, 1, 0), (0, 0.5, 1)])))  # some with a d_i = 0
        hues = np.array([-2.0, 0.5, 2.5])
        models = {0: None}  # cluster 0 passes through
        for cid in (1, 2):
            parallel = data.draw(st.floats(0.05, 0.95))
            ortho, ratio = estimate_ratio(parallel)
            models[cid] = MaterialModel(center=basis.orthogonal(hues[cid]), diffuse_ortho=ortho,
                                        diffuse_parallel=parallel, ratio=ratio)
        clusters = ClusterSet(bounds=np.array([0]), owner=np.empty(0, dtype=np.int32),
                              hues=hues, sizes=np.zeros(3, dtype=np.int64))
        labels = data.draw(arrays(np.int32, (rows, width), elements=st.integers(-2, 3)))
        threads = data.draw(st.sampled_from([1, 2]))
        if labels.max() >= 3:  # a given label with no cluster
            with pytest.raises(ValueError, match="has no cluster"):
                separate_image(img, clusters, models, basis, threads=threads, labels=labels)
            labels[labels >= 3] = -1
        got = separate_image(img, clusters, models, basis, threads=threads, labels=labels)
        want = per_channel_split(img, models, basis, labels)
        for part, ref in zip((got.diffuse, got.specular), want):
            assert part.dtype == dtype
            assert part.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_samples_on_a_zero_illuminant_channel(self, dtype):
        """Under (1, 1, 0) the blue share of every strength is a zero,
        and each blue sample is -0.0; with materials at diffuse_parallel
        0.9 the pixels more saturated than their material have negative
        strengths.  The parts keep the per-channel sequence's bits, so
        the signs of their zeros too."""
        basis = IlluminationBasis.from_rgb((1, 1, 0))
        ortho, ratio = estimate_ratio(0.9)
        models = {cid: MaterialModel(center=np.array([1.0, -1.0, 0.0]) * sign / math.sqrt(2.0),
                                     diffuse_ortho=ortho, diffuse_parallel=0.9, ratio=ratio)
                  for cid, sign in enumerate((1.0, -1.0))}
        rng = np.random.default_rng(7)
        img = np.zeros((8, 16, 3), dtype=dtype)
        img[..., :2] = rng.uniform(0.0, 1.0, (8, 16, 2))
        img[..., 2] = -0.0
        labels = np.where(img[..., 0] > img[..., 1], 0, 1).astype(np.int32)
        labels[0, :4] = [LABEL_BLACK, LABEL_ACHROMATIC, -3, -1000]  # lower labels: zero axis
        clusters = ClusterSet(bounds=np.array([0]), owner=np.empty(0, dtype=np.int32),
                              hues=np.zeros(2), sizes=np.zeros(2, dtype=np.int64))
        got = separate_image(img, clusters, models, basis, labels=labels)
        want = per_channel_split(img, models, basis, labels)
        # a pixel (r, g, 0)'s strength is (r + g - |r - g| / ratio) / sqrt(2)
        negative = np.abs(img[..., 0] - img[..., 1]) > ratio * (img[..., 0] + img[..., 1])
        assert negative.any() and (~negative).any()
        assert np.all(got.specular[negative] == 0.0)
        for part, ref in zip((got.diffuse, got.specular), want):
            assert part.dtype == dtype
            assert part.tobytes() == ref.tobytes()

    def test_float32_shares_past_float32_range_clip_without_warning(self, white):
        """A near-float32-max pixel far from its material's hue has a
        share beyond float32's range; it clips to its sample, with the
        per-channel sequence's bits and no overflow warning."""
        ortho, ratio = estimate_ratio(0.95)
        model = MaterialModel(center=white.orthogonal(0.0), diffuse_ortho=ortho,
                              diffuse_parallel=0.95, ratio=ratio)
        img = np.array([[[0.0, 3e38, 3e38], [3e38, 3e38, 3e38]]], dtype=np.float32)
        labels = np.zeros((1, 2), dtype=np.int32)
        clusters = ClusterSet(bounds=np.array([0]), owner=np.empty(0, dtype=np.int32),
                              hues=np.zeros(1), sizes=np.zeros(1, dtype=np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = separate_image(img, clusters, {0: model}, white, labels=labels)
        want = per_channel_split(img, {0: model}, white, labels)
        assert got.specular.tobytes() == want[1].tobytes()
        assert got.diffuse.tobytes() == want[0].tobytes()
        assert np.array_equal(got.specular, img)

    def test_threaded_separation_is_bitwise_identical(self, white):
        gt = synth.render(synth.builtin_scene("over-seg", 150, 100))
        img = synth.add_noise(gt, 3.0, seed=5)
        serial = separated(img, white, threads=1)
        threaded = separated(img, white, threads=4)
        assert np.array_equal(serial.diffuse, threaded.diffuse)
        assert np.array_equal(serial.specular, threaded.specular)
