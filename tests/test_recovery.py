"""Pure-diffuse peak finding and per-pixel highlight separation."""

import math

import numpy as np
import pytest

from conftest import parallel_coeff
from despec import errors, synth
from despec.clustering import ClusterSet, adaptive_cluster, kmeans, specular_free_field
from despec.model import WHITE, IlluminationBasis
from despec.recovery import (
    EDGES,
    MaterialModel,
    _first_peak_index,
    estimate_models,
    estimate_ratio,
    model_for_cluster,
    separate_image,
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
    return kmeans(specular_free_field(img, white), 1, seed=0)


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
    coeffs = specular_free_field(img, basis).parallel[clusters.labels == cluster_id]
    counts, _ = np.histogram(np.clip(coeffs, 0.0, EDGES[-1]), bins=EDGES)
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
            member = clusters.labels == cid
            px = img.reshape(-1, 3)[field.pixel[member]]
            assert np.array_equal(np.sort(field.pixel[member]), np.flatnonzero(labels == cid))
            expected = parallel_coeff(px, white) / np.linalg.norm(px, axis=-1)
            assert np.abs(field.parallel[member] - expected).max() <= 1e-15

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
        with pytest.raises(errors.NoPeakError):
            _first_peak_index(counts)


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
        with pytest.raises(errors.DegenerateRatioError):
            estimate_ratio(bad)


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
        model = model_of(img, clusters, 0, white)
        coeffs = gamma_of(img, white).reshape(-1)
        assert model.diffuse_parallel == pytest.approx(
            np.percentile(coeffs, 2.0), rel=1e-12)

    def test_estimate_models_covers_all_clusters(self, white):
        gt = synth.render(synth.builtin_scene("four-materials", 160, 112))
        clusters, models, _ = cluster_and_models(gt.input, white)
        assert sorted(models) == list(range(clusters.n_clusters))
        assert all(m is not None for m in models.values())


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


class TestSeparateImage:
    def test_missing_model_rejected(self, white):
        img = olive_image([0.0] * 16, (4, 4))
        clusters = single_cluster(img, white)
        with pytest.raises(errors.ModelMissingError):
            separate_image(img, clusters, {}, white)

    def test_label_beyond_clusters_rejected(self, white):
        img = olive_image([0.0] * 16, (4, 4))
        field = specular_free_field(img, white)
        clusters = kmeans(field, 1, seed=0)
        model = model_of(img, clusters, 0, white)
        labels = field.label_map(clusters.labels)
        labels[3, 3] = 1  # one cluster, so label 1 has no model slot
        with pytest.raises(errors.ModelMissingError):
            separate_image(img, clusters, {0: model, 1: model}, white, labels=labels)

    def test_missing_model_of_an_unused_cluster_is_not_an_error(self, white):
        """Only a pixel whose label lacks a model raises, on both paths."""
        img = olive_image([0.0, 0.1, 0.2, 0.3] * 4, (4, 4))
        field = specular_free_field(img, white)
        one = kmeans(field, 1, seed=0)
        model = model_of(img, one, 0, white)
        far = np.angle(np.exp(1j * (one.hues[0] + np.pi)))  # nearest to no pixel
        two = ClusterSet(bounds=one.bounds, owner=one.owner, hues=np.append(one.hues, far),
                         sizes=np.append(one.sizes, 0))
        want = separate_image(img, one, {0: model}, white)
        for labels in (None, field.label_map(one.labels)):
            got = separate_image(img, two, {0: model}, white, labels=labels)
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
        result = separated(img, white)
        assert np.array_equal(result.diffuse + result.specular, img)
        assert result.diffuse.min() >= 0.0
        assert result.specular.min() >= 0.0

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

    def test_threaded_separation_is_bitwise_identical(self, white):
        gt = synth.render(synth.builtin_scene("over-seg", 150, 100))
        img = synth.add_noise(gt, 3.0, seed=5)
        serial = separated(img, white, threads=1)
        threaded = separated(img, white, threads=4)
        assert np.array_equal(serial.diffuse, threaded.diffuse)
        assert np.array_equal(serial.specular, threaded.specular)
