"""Material clustering in the illumination-orthogonal subspace."""

import numpy as np
import pytest

from conftest import block_image, make_field, row_major
from despec import errors, synth
from despec.clustering import (
    FLAG_ACHROMATIC,
    FLAG_BLACK,
    FLAG_VALID,
    LABEL_ACHROMATIC,
    LABEL_BLACK,
    ClusterConfig,
    adaptive_cluster,
    adaptive_min_cluster_size,
    evaluate_fit,
    kmeans,
    nearest_hue,
    specular_free_field,
    split_block,
)
from despec.metrics import cluster_accuracy
from despec.model import WHITE, IlluminationBasis

OLIVE_DIR = np.array([0.4082482904638624, 0.4082482904638624, -0.8164965809277266])
OLIVE_HUE = np.pi / 3.0  # OLIVE_DIR in the white basis's (u, v) frame
OLIVE_PARALLEL = 0.9622504486493764
OLIVE_ORTHO = 0.2721655269759087


def hue_angle(angle_deg):
    """Field hue of a synthetic hue chromaticity under white illumination."""
    pixel = synth.hue_chromaticity(angle_deg)[None, None]
    return specular_free_field(pixel, IlluminationBasis.white()).hue[0]


@pytest.fixture
def white():
    return IlluminationBasis.white()


def cluster(img, basis, cfg=None):
    return adaptive_cluster(specular_free_field(img, basis), cfg)


class TestSpecularFreeField:
    def test_constant_material(self, white):
        img = np.broadcast_to([0.4, 0.4, 0.2], (8, 6, 3)).copy()
        field = specular_free_field(img, white)
        assert np.all(field.flags == FLAG_VALID)
        assert np.allclose(field.hue, OLIVE_HUE, atol=1e-12)
        assert np.allclose(white.orthogonal(field.hue), OLIVE_DIR, atol=1e-12)
        assert np.allclose(field.amplitude, OLIVE_ORTHO, atol=1e-12)
        assert np.allclose(field.parallel, OLIVE_PARALLEL, atol=1e-12)

    @pytest.mark.parametrize("illum", [None, [0.600, 0.588, 0.542]])
    def test_amplitude_and_parallel_rebuild_the_chromaticity(self, white, illum):
        """On valid pixels amplitude² + parallel² = 1, and amplitude *
        orthogonal(hue) + parallel * illumination is the unit chromaticity."""
        basis = white if illum is None else IlluminationBasis.from_rgb(illum)
        rng = np.random.default_rng(29)
        img = rng.random((40, 30, 3)) + 0.02
        field = specular_free_field(img, basis)
        assert field.valid_mask.all()
        amp, par = field.amplitude, field.parallel
        assert np.abs(amp * amp + par * par - 1.0).max() <= 1e-12
        rebuilt = (amp[:, None] * basis.orthogonal(field.hue)
                   + par[:, None] * basis.direction)
        px = img.reshape(-1, 3)[field.pixel]  # every pixel is valid
        chroma = px / np.linalg.norm(px, axis=-1, keepdims=True)
        assert np.abs(rebuilt - chroma).max() <= 1e-12

    @pytest.mark.parametrize("illum", [None, [0.600, 0.588, 0.542]])
    def test_split_without_parallel_keeps_hue_and_flags(self, white, illum):
        """split_block(..., parallel=False) skips the parallel sum only:
        hue, amplitude and flags are the full call's bits, black and
        gray pixels included."""
        basis = white if illum is None else IlluminationBasis.from_rgb(illum)
        rng = np.random.default_rng(31)
        block = rng.random((23, 17, 3))
        block[rng.random((23, 17)) < 0.1] = 0.0                     # black
        block[rng.random((23, 17)) < 0.1] *= 1e-12                  # below EPS_BLACK
        gray = rng.random((23, 17)) < 0.15
        block[gray] = rng.random((int(gray.sum()), 1)) * basis.direction  # achromatic
        hue, amp, par, flags = split_block(block, basis)
        cheap = split_block(block, basis, parallel=False)
        assert cheap[2] is None and par is not None
        assert {FLAG_VALID, FLAG_BLACK, FLAG_ACHROMATIC} <= set(np.unique(flags).tolist())
        assert np.array_equal(cheap[3], flags)
        assert np.array_equal(cheap[0], hue)
        assert np.array_equal(cheap[1], amp)

    def test_flagged_pixels_are_left_out(self, white):
        img = np.zeros((4, 4, 3))
        img[0, 0] = [0.4, 0.4, 0.2]
        img[1, 2] = [0.5, 0.5, 0.5]
        img[3, 1] = [0.2, 0.4, 0.4]
        field = specular_free_field(img, white)
        assert (field.flags == FLAG_BLACK).sum() == 13
        assert field.flags[1, 2] == FLAG_ACHROMATIC
        # the two valid pixels
        assert field.hue.shape == field.amplitude.shape == field.parallel.shape == (2,)
        assert sorted(field.pixel.tolist()) == [0, 13]
        hue = row_major(field, field.hue)
        assert hue[0] == pytest.approx(OLIVE_HUE, abs=1e-12)
        assert field.parallel == pytest.approx([OLIVE_PARALLEL] * 2, abs=1e-12)
        assert hue[1] != pytest.approx(OLIVE_HUE, abs=1e-3)

    def test_direction_ignores_brightness_and_highlight(self, white):
        """Scaling a pixel or adding illumination-colored light must not
        move its projected direction."""
        base = np.array([0.4, 0.4, 0.2])
        img = np.stack([
            [base, 3.0 * base, 0.1 * base],
            [base + 0.5 * WHITE, 2.0 * base + 1.0 * WHITE, base + 0.01 * WHITE],
        ])
        field = specular_free_field(img, white)
        assert np.all(field.flags == FLAG_VALID)
        assert np.allclose(field.hue, OLIVE_HUE, atol=1e-12)

    def test_gray_pixels_flagged(self, white):
        img = np.broadcast_to([0.5, 0.5, 0.5], (5, 5, 3)).copy()
        field = specular_free_field(img, white)
        assert np.all(field.flags == FLAG_ACHROMATIC)
        assert len(field.hue) == 0
        assert field.valid_mask.sum() == 0

    def test_black_pixels_flagged(self, white):
        img = np.zeros((3, 3, 3))
        img[1, 1] = [0.4, 0.4, 0.2]
        field = specular_free_field(img, white)
        assert field.flags[1, 1] == FLAG_VALID
        assert (field.flags == FLAG_BLACK).sum() == 8

    def test_two_materials_two_distinct_values(self, white):
        img = block_image([[0.4, 0.4, 0.2], [0.2, 0.3, 0.8]], [1.0, 1.0])
        field = specular_free_field(img, white)
        rounded = np.unique(np.round(field.hue, 9))
        assert len(rounded) == 2

    def test_unit_and_orthogonal_invariants(self, white):
        rng = np.random.default_rng(19)
        img = rng.random((40, 30, 3)) + 0.02
        field = specular_free_field(img, white)
        dirs = white.orthogonal(field.hue)
        assert np.abs(np.linalg.norm(dirs, axis=-1) - 1.0).max() <= 1e-6
        assert np.abs(dirs @ white.direction).max() <= 1e-6


def assert_matches_argmax(hue, centers):
    """nearest_hue must pick the brute-force argmax of cos(hue - center).
    Where two different center values are within rounding of each other
    (+pi and -pi name one point), either is accepted; equal center values
    must resolve to the lowest index, as argmax does."""
    cos = np.cos(hue[:, None] - centers[None, :])
    want = np.argmax(cos, axis=1)
    got = nearest_hue(hue, centers)
    assert got.dtype == np.int32 and got.shape == hue.shape
    rows = np.arange(len(hue))
    tie = (cos[rows, got] >= cos[rows, want] - 1e-12) & (centers[got] != centers[want])
    assert np.all((got == want) | tie)
    return int(np.count_nonzero(got != want))


class TestNearestHue:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 40])
    def test_random_hues_match_argmax(self, k):
        rng = np.random.default_rng(k)
        hue = rng.uniform(-np.pi, np.pi, 5000)
        centers = rng.uniform(-np.pi, np.pi, k)
        assert assert_matches_argmax(hue, centers) == 0

    def test_duplicate_centers_take_the_lowest_index(self):
        rng = np.random.default_rng(31)
        hue = rng.uniform(-np.pi, np.pi, 5000)
        centers = np.array([1.0, -2.0, 1.0, 0.5, -2.0, 1.0])
        assert assert_matches_argmax(hue, centers) == 0
        assert set(np.unique(nearest_hue(hue, centers)).tolist()) == {0, 1, 3}

    @pytest.mark.parametrize("centers", [[np.pi], [-np.pi], [np.pi, 0.3], [-np.pi, 0.3],
                                         [-np.pi, np.pi, 0.0]])
    def test_centers_and_hues_at_plus_minus_pi(self, centers):
        rng = np.random.default_rng(37)
        hue = np.concatenate([[np.pi, -np.pi, 0.0, 3.0, -3.0],
                              rng.uniform(-np.pi, np.pi, 2000)])
        assert_matches_argmax(hue, np.array(centers))

    def test_two_dimensional_hues(self):
        hue = np.array([[0.1, 2.0], [-2.5, 3.1]])
        assert nearest_hue(hue, np.array([0.0, 2.2])).tolist() == [[0, 1], [1, 1]]


class TestKmeans:
    def test_single_value_single_cluster(self, white):
        field = make_field(np.full((10, 10), OLIVE_HUE))
        clusters = kmeans(field, 1, seed=0)
        assert clusters.n_clusters == 1
        assert np.all(clusters.labels == 0)
        assert clusters.sizes.tolist() == [100]
        assert np.allclose(clusters.hues[0], OLIVE_HUE, atol=1e-12)

    @pytest.mark.parametrize("k", [0, -1])
    def test_count_below_one_rejected(self, k):
        field = make_field(np.full((4, 4), OLIVE_HUE))
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            kmeans(field, k)

    def test_four_separated_values_exact_partition(self, white):
        """Four directions 90 degrees apart must be recovered exactly;
        the oracle is brute-force nearest-center assignment."""
        hues = [hue_angle(a) for a in (0.0, 90.0, 180.0, 270.0)]
        grid = np.zeros((40, 40))
        truth = np.zeros((40, 40), dtype=int)
        for i, d in enumerate(hues):
            rows = slice(10 * i, 10 * (i + 1))
            grid[rows] = d
            truth[rows] = i
        field = make_field(grid)
        clusters = kmeans(field, 4, seed=0)
        assert clusters.n_clusters == 4
        labels = field.label_map(clusters.labels)  # every pixel is valid
        # each band is one label, and the four bands use four labels
        band_labels = [labels[10 * i, 0] for i in range(4)]
        assert sorted(band_labels) == [0, 1, 2, 3]
        for i in range(4):
            assert np.all(labels[10 * i:10 * (i + 1)] == band_labels[i])
        # labels agree with nearest-center assignment
        nearest = np.argmax(np.cos(field.hue[:, None] - clusters.hues), axis=1)
        assert np.array_equal(nearest, clusters.labels)
        # centers match the generating hues
        for i, d in enumerate(hues):
            assert np.allclose(clusters.hues[band_labels[i]], d, atol=1e-9)
        # seeded on the four values, one update changes nothing
        assert clusters.iterations == 1

    def test_centers_stay_in_subspace(self, white):
        rng = np.random.default_rng(23)
        img = rng.random((32, 32, 3)) + 0.02
        field = specular_free_field(img, white)
        clusters = kmeans(field, 5, seed=1)
        centers = white.orthogonal(clusters.hues)
        assert np.abs(np.linalg.norm(centers, axis=-1) - 1.0).max() <= 1e-12
        assert np.abs(centers @ white.direction).max() <= 1e-12

    def test_deterministic(self, white):
        rng = np.random.default_rng(4)
        img = rng.random((24, 24, 3)) + 0.02
        field = specular_free_field(img, white)
        a = kmeans(field, 3, seed=9)
        b = kmeans(field, 3, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.hues, b.hues)

    def test_surplus_clusters_dropped(self, white):
        """Asking for more clusters than distinct values keeps the data's
        own structure and compacts the labels."""
        grid = np.zeros((20, 10))
        grid[:10] = hue_angle(0.0)
        grid[10:] = hue_angle(180.0)
        clusters = kmeans(make_field(grid), 3, seed=0)
        assert clusters.n_clusters == 2
        assert set(np.unique(clusters.labels)) == {0, 1}

    def test_flagged_pixels_keep_sentinels(self, white):
        img = np.broadcast_to([0.4, 0.4, 0.2], (8, 8, 3)).copy()
        img[0, 0] = 0.0
        img[0, 1] = [0.7, 0.7, 0.7]
        field = specular_free_field(img, white)
        clusters = kmeans(field, 1, seed=0)
        assert clusters.labels.tolist() == [0] * 62
        labels = field.label_map(clusters.labels)
        assert labels.shape == (8, 8) and labels.dtype == np.int32
        assert labels[0, 0] == LABEL_BLACK
        assert labels[0, 1] == LABEL_ACHROMATIC
        assert np.all(labels.reshape(-1)[2:] == 0)

    def test_too_few_pixels(self, white):
        grid = np.full((1, 3), OLIVE_HUE)
        with pytest.raises(errors.TooFewPixelsError):
            kmeans(make_field(grid), 4, seed=0)

    def test_no_valid_pixels(self, white):
        field = specular_free_field(np.zeros((4, 4, 3)), white)
        with pytest.raises(errors.TooFewPixelsError):
            kmeans(field, 1, seed=0)


class TestEvaluateFit:
    def test_correct_single_material_passes(self, white):
        gt = synth.render(synth.builtin_scene("single-2", 64, 48))
        field = specular_free_field(gt.input, white)
        clusters = kmeans(field, 1, seed=0)
        diag = evaluate_fit(field, clusters)
        assert diag.failing_fractions.tolist() == [0.0]
        assert diag.total_error <= 1e-6 * gt.input.shape[0] * gt.input.shape[1]
        assert diag.converged

    def test_two_distant_materials_in_one_cluster_fail(self, white):
        """Two materials 90 degrees apart merged into one cluster put every
        pixel 45 degrees off-center: residual 0.55^2 * sin(45)^2 = 0.151,
        over the 0.1 deviation threshold, so the cluster must fail."""
        mats = [synth.hue_chromaticity(45.0), synth.hue_chromaticity(135.0)]
        img = block_image(mats, [0.6, 0.6])
        field = specular_free_field(img, white)
        clusters = kmeans(field, 1, seed=0)
        diag = evaluate_fit(field, clusters)
        assert diag.failing_fractions[0] == 1.0
        n = img.shape[0] * img.shape[1]
        assert diag.total_error == pytest.approx(n * 0.15125, rel=1e-6)
        assert not diag.converged

    def test_four_materials_in_two_clusters_fail(self, white):
        gt = synth.render(synth.builtin_scene("four-materials", 160, 112))
        field = specular_free_field(gt.input, white)
        clusters = kmeans(field, 2, seed=0)
        diag = evaluate_fit(field, clusters)
        assert np.any(diag.failing_fractions > 0.1)
        assert not diag.converged


class TestAdaptiveCluster:
    def test_four_materials_converges(self, white):
        gt = synth.render(synth.builtin_scene("four-materials", 320, 224))
        field = specular_free_field(gt.input, white)
        clusters, diag = adaptive_cluster(field)
        assert diag.converged
        assert len(diag.rounds) <= 5
        assert clusters.n_clusters == 4
        k_history = [r["k"] for r in diag.rounds]
        assert k_history == sorted(k_history)
        assert len(set(k_history)) == len(k_history)  # strictly growing
        assert cluster_accuracy(field.label_map(clusters.labels), gt.labels) >= 0.99

    @pytest.mark.parametrize("name", ["initial_k", "max_iterations"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_count_below_one_is_a_config_error(self, name, value):
        field = make_field(np.full((4, 4), OLIVE_HUE))
        with pytest.raises(errors.ConfigError, match=f"{name} must be >= 1, got {value}"):
            adaptive_cluster(field, ClusterConfig(**{name: value}))

    def test_single_material_stops_at_one(self, white):
        gt = synth.render(synth.builtin_scene("single-1", 64, 48))
        clusters, diag = cluster(gt.input, white)
        assert clusters.n_clusters == 1
        assert len(diag.rounds) == 1
        assert diag.converged

    def test_highlight_does_not_split_a_material(self, white):
        """Pixels of one material with very different highlight strengths
        must land in the same cluster."""
        gt = synth.render(synth.builtin_scene("single-1", 96, 64))
        assert gt.specular[..., 0].max() > 0.2  # the scene does carry highlights
        clusters, _ = cluster(gt.input, white)
        assert clusters.n_clusters == 1
        assert np.all(clusters.labels == 0)

    def _two_band_image(self):
        """200 pixels: 175 of one material plus a 25-pixel minority band.
        The minority is over the 10% mismatch budget (so it forces a split)
        but under the 30-pixel floor (so it is folded back afterwards)."""
        img = np.empty((10, 20, 3))
        img[:] = 0.6 * synth.hue_chromaticity(45.0)
        img.reshape(-1, 3)[:25] = 0.6 * synth.hue_chromaticity(135.0)
        return img

    def test_small_cluster_merged_into_neighbor(self, white):
        img = self._two_band_image()
        assert adaptive_min_cluster_size(200) == 30
        clusters, diag = cluster(img, white)
        assert clusters.n_clusters == 1
        assert np.all(clusters.labels == 0)
        assert diag.converged

    def test_min_cluster_size_override_keeps_small_cluster(self, white):
        img = self._two_band_image()
        cfg = ClusterConfig(min_cluster_size=1)
        clusters, diag = cluster(img, white, cfg)
        assert clusters.n_clusters == 2
        assert sorted(clusters.sizes.tolist()) == [25, 175]
        assert diag.converged

    def test_iteration_cap_warns(self, white):
        gt = synth.render(synth.builtin_scene("four-materials", 160, 112))
        cfg = ClusterConfig(max_iterations=1)
        with pytest.warns(errors.NoConvergenceWarning):
            clusters, diag = cluster(gt.input, white, cfg)
        assert not diag.converged
        assert len(diag.rounds) == 1
        assert clusters.n_clusters >= 1  # best effort still returned

    def test_all_flagged_image_rejected(self, white):
        img = np.broadcast_to([0.5, 0.5, 0.5], (16, 16, 3)).copy()
        with pytest.raises(errors.TooFewPixelsError):
            cluster(img, white)

    def test_deterministic(self, white):
        gt = synth.render(synth.builtin_scene("over-seg", 200, 120))
        img = synth.add_noise(gt, 3.0, seed=1)
        a, _ = cluster(img, white)
        b, _ = cluster(img, white)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.hues, b.hues)


class TestAdaptiveMinClusterSize:
    def test_floor_and_cap(self):
        assert adaptive_min_cluster_size(100) == 30      # 1% below the floor
        assert adaptive_min_cluster_size(10_000) == 100  # 1% in range
        assert adaptive_min_cluster_size(1_000_000) == 300  # capped
