"""Material clustering in the illumination-orthogonal subspace."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import block_image, make_field, row_major
from despec import clustering, errors, synth
from despec.clustering import (
    AMP_GATE,
    ATAN2_ALLOWANCE,
    BLACK_MARGIN,
    BUCKETS,
    FLAG_VALID,
    LABEL_ACHROMATIC,
    LABEL_BLACK,
    ClusterConfig,
    ClusterSet,
    SpecularFreeField,
    adaptive_cluster,
    adaptive_min_cluster_size,
    evaluate_fit,
    kmeans,
    _arcs,
    _bucket,
    nearest_hue,
    pixel_labeler,
    specular_free_field,
    split_block,
)
from despec.metrics import cluster_accuracy
from despec.model import EPS_BLACK, EPS_GRAY, WHITE, IlluminationBasis
from despec.pipeline import PipelineConfig, _check_config
from despec.recovery import parallel_coefficients

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


def parallel_of(field):
    """Parallel coefficient of every field entry, in field order."""
    whole = ClusterSet(bounds=np.array([0, len(field.hue)]), owner=np.zeros(1, np.int32),
                       hues=np.zeros(1), sizes=np.array([len(field.hue)]))
    return parallel_coefficients(field, whole, 0)


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
        assert np.allclose(parallel_of(field), OLIVE_PARALLEL, atol=1e-12)

    @pytest.mark.parametrize("illum", [None, [0.600, 0.588, 0.542]])
    def test_amplitude_and_parallel_rebuild_the_chromaticity(self, white, illum):
        """On valid pixels amplitude² + parallel² = 1, and amplitude *
        orthogonal(hue) + parallel * illumination is the unit chromaticity."""
        basis = white if illum is None else IlluminationBasis.from_rgb(illum)
        rng = np.random.default_rng(29)
        img = rng.random((40, 30, 3)) + 0.02
        field = specular_free_field(img, basis)
        assert np.all(field.flags == FLAG_VALID)
        amp, par = field.amplitude, parallel_of(field)
        assert np.abs(amp * amp + par * par - 1.0).max() <= 1e-12
        rebuilt = (amp[:, None] * basis.orthogonal(field.hue)
                   + par[:, None] * basis.direction)
        px = img.reshape(-1, 3)[field.pixel]  # every pixel is valid
        chroma = px / np.linalg.norm(px, axis=-1, keepdims=True)
        assert np.abs(rebuilt - chroma).max() <= 1e-12

    def test_split_flags_black_and_gray_pixels(self, white):
        """split_block's one form: (hue, amplitude, flags) of a block with
        black, near-black and achromatic pixels, as the field stores them."""
        rng = np.random.default_rng(31)
        block = rng.random((23, 17, 3))
        block[rng.random((23, 17)) < 0.1] = 0.0                     # black
        block[rng.random((23, 17)) < 0.1] *= 1e-12                  # below EPS_BLACK
        gray = rng.random((23, 17)) < 0.15
        block[gray] = rng.random((int(gray.sum()), 1)) * white.direction  # achromatic
        hue, amp, flags = split_block(block, white)
        assert {FLAG_VALID, LABEL_BLACK, LABEL_ACHROMATIC} <= set(np.unique(flags).tolist())
        field = specular_free_field(block, white)
        assert np.array_equal(flags, field.flags)
        valid = np.flatnonzero(flags.reshape(-1) == FLAG_VALID)
        assert np.array_equal(np.sort(field.pixel), valid)
        assert np.array_equal(row_major(field, field.hue), hue.reshape(-1)[valid])
        assert np.array_equal(row_major(field, field.amplitude), amp.reshape(-1)[valid])

    def test_flagged_pixels_are_left_out(self, white):
        img = np.zeros((4, 4, 3))
        img[0, 0] = [0.4, 0.4, 0.2]
        img[1, 2] = [0.5, 0.5, 0.5]
        img[3, 1] = [0.2, 0.4, 0.4]
        field = specular_free_field(img, white)
        assert (field.flags == LABEL_BLACK).sum() == 13
        assert field.flags[1, 2] == LABEL_ACHROMATIC
        # the two valid pixels
        assert field.hue.shape == field.amplitude.shape == field.pixel.shape == (2,)
        assert sorted(field.pixel.tolist()) == [0, 13]
        hue = row_major(field, field.hue)
        assert hue[0] == pytest.approx(OLIVE_HUE, abs=1e-12)
        assert parallel_of(field) == pytest.approx([OLIVE_PARALLEL] * 2, abs=1e-12)
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
        assert np.all(field.flags == LABEL_ACHROMATIC)
        assert len(field.hue) == 0
        assert np.count_nonzero(field.flags == FLAG_VALID) == 0

    def test_black_pixels_flagged(self, white):
        img = np.zeros((3, 3, 3))
        img[1, 1] = [0.4, 0.4, 0.2]
        field = specular_free_field(img, white)
        assert field.flags[1, 1] == FLAG_VALID
        assert (field.flags == LABEL_BLACK).sum() == 8

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


def partition_first_entry(field, rank):
    """The field entry of the valid pixel of row-major rank ``rank``,
    found as the rank-th smallest of ``field.pixel``."""
    pixel = np.partition(field.pixel, rank)[rank]
    return int((field.pixel == pixel).argmax())


class TestFirstEntry:
    # the first kept word is rejected for 104,930; the others span the
    # small counts and the valid-pixel counts of 500x300, 650x450 and
    # 1920x1080 images
    COUNTS = [*range(1, 6001), 104_930, 150_000, 292_500, 2_073_600]

    def test_draw_is_the_generators(self):
        got = [clustering._draw(n) for n in self.COUNTS]
        assert got == [int(np.random.default_rng(0).integers(n)) for n in self.COUNTS]

    def test_draw_asks_the_generator_once_every_word_is_rejected(self):
        counts = [3, 5, 6, 7, 1000, 292_500]  # no power of 2: a zero word is always rejected
        with mock.patch.object(clustering, "SEED_WORDS", (0,)):
            got = [clustering._draw(n) for n in counts]
        assert got == [int(np.random.default_rng(0).integers(n)) for n in counts]

    @settings(max_examples=200)
    @given(st.data())
    def test_rank_from_row_counts_is_the_partition_rule(self, data):
        h, w = data.draw(st.integers(1, 12), label="h"), data.draw(st.integers(1, 12), label="w")
        flags = data.draw(arrays(np.int8, (h, w), elements=st.sampled_from(
            [FLAG_VALID, LABEL_BLACK, LABEL_ACHROMATIC])), label="flags")
        flags[:data.draw(st.integers(0, h - 1), label="blank rows")] = LABEL_ACHROMATIC
        valid = np.flatnonzero(flags == FLAG_VALID).astype(np.int32)
        assume(len(valid))
        order = data.draw(st.permutations(range(len(valid))), label="hue order")

        def field():
            n = len(valid)
            return SpecularFreeField(hue=np.linspace(-3.0, 3.0, n), amplitude=np.ones(n),
                                     pixel=valid[order], flags=flags)

        drawn = int(np.random.default_rng(0).integers(len(valid)))
        assert field().first_entry == partition_first_entry(field(), drawn)
        rank = data.draw(st.integers(0, len(valid) - 1), label="rank")
        with mock.patch.object(clustering, "_draw", return_value=rank):
            assert field().first_entry == partition_first_entry(field(), rank)


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

    def test_float32_hues_label_as_their_float64_copies(self):
        """A float32 hue next to a bucket edge whose float32 bucket is past
        its float64 one, just below a midpoint in that float64 bucket, takes
        the center below the midpoint, as its float64 copy does."""
        edges = (-np.pi + np.arange(BUCKETS + 1) * (2 * np.pi / BUCKETS)).astype(np.float32)
        hue = np.concatenate([edges, np.nextafter(edges, np.float32(-4)),
                              np.nextafter(edges, np.float32(4))])
        b32 = ((hue + np.float32(np.pi)) * np.float32(BUCKETS / (2 * np.pi))).astype(np.intp)
        past = np.flatnonzero(b32 > _bucket(hue.astype(np.float64)))
        assert len(past) > 100
        for i in past[::len(past) // 10]:
            h = hue[i]
            top = -np.pi + b32[i] * (2 * np.pi / BUCKETS)
            mid = 0.5 * (float(h) + top)
            assert float(h) < mid and _bucket(mid) == _bucket(np.float64(h))
            centers = np.array([mid - 1.0, mid + 1.0])
            assert nearest_hue(np.array([h]), centers).tolist() == [0]
            assert nearest_hue(np.array([h], np.float64), centers).tolist() == [0]


class TestBucket:
    def test_each_dtype_takes_its_own_steps(self):
        """Float32 hues at and next to every bucket edge, ±pi, ±0, NaN and
        beyond [-pi, pi], and the infinities, take the float32 steps the
        labeler's filter relies on; float64 hues the float64 steps, a 0-d
        hue and a list of floats too."""
        edges = -np.pi + np.arange(BUCKETS + 1) * (2 * np.pi / BUCKETS)
        odd = [np.pi, -np.pi, 0.0, -0.0, np.nan, 3.5, -3.5, 1e30, -1e30]
        for real in (np.float32, np.float64):
            at = np.concatenate([edges, odd]).astype(real)
            hue = np.concatenate([at, np.nextafter(at, real(-4)), np.nextafter(at, real(4)),
                                  [np.inf, -np.inf]]).astype(real)
            pos = (hue + real(np.pi)) * real(BUCKETS / (2.0 * np.pi))
            want = np.fmax(np.fmin(pos, real(BUCKETS - 1)), real(0)).astype(np.intp)
            assert np.array_equal(_bucket(hue), want), real
            assert [int(_bucket(h)) for h in hue] == want.tolist()
        assert np.array_equal(_bucket(hue.tolist()), want)


F32_MAX = float(np.finfo(np.float32).max)


def rule_labels(pixels, basis, centers):
    """The float64 rule: split_block's flag, or nearest_hue of its hue."""
    hue, _, flags = split_block(pixels, basis)
    labels = flags.astype(np.int32)
    valid = flags == FLAG_VALID
    labels[valid] = nearest_hue(hue[valid], centers)
    return labels


def labeled(pixels, basis, centers):
    """(labels, fallback): pixel_labeler's labels of an (n, 3) block, and
    the bytes of each pixel it handed to split_block."""
    labels = np.empty(len(pixels), dtype=np.int32)
    with mock.patch.object(clustering, "split_block", wraps=split_block) as spy:
        pixel_labeler(centers, basis)(pixels, labels)
    return labels, {row.tobytes() for call in spy.call_args_list for row in call.args[0]}


def pixels_at(basis, hue, amplitude, norm) -> np.ndarray:
    """Float64 pixels of the given hue, amplitude and norm."""
    amplitude = np.asarray(amplitude, dtype=np.float64)[..., None]
    return np.asarray(norm, dtype=np.float64)[..., None] * (
        amplitude * basis.orthogonal(hue) + np.sqrt(1.0 - amplitude**2) * basis.direction)


def ulp_steps(pixels32, steps):
    """Each float32 sample moved ``steps`` ulps up (or down), toward ±F32_MAX."""
    toward = np.where(steps > 0, F32_MAX, -F32_MAX).astype(np.float32)
    for step in range(int(np.abs(steps).max(initial=0))):
        pixels32 = np.where(np.abs(steps) > step, np.nextafter(pixels32, toward), pixels32)
    return pixels32


def near(value, rel=(-1e-3, -1e-5, -1e-7, 0.0, 1e-7, 1e-5, 1e-3)):
    return st.sampled_from(rel).map(lambda r: value * (1.0 + r))


class TestPixelLabeler:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # float32 overflow is a gate
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_float32_labels_are_the_float64_rule(self, data):
        """Float32 pixels at the filter's edges: hues a few ulps around
        every arc midpoint, bucket edge and ±pi, amplitudes at AMP_GATE and
        EPS_GRAY, norms at EPS_BLACK and near the float32 maximum, zeros and
        gray pixels.  Each label is the float64 rule's, and every pixel the
        proof cannot vouch for takes that rule: each flagged pixel, and each
        whose float64 hue lies in a bucket that holds a midpoint."""
        basis = IlluminationBasis.from_rgb(data.draw(st.sampled_from([(1, 1, 1), (1, 0.8, 0.6)])))
        centers = np.array(data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=6)))
        midpoints, _ = _arcs(centers)
        edge = st.integers(0, BUCKETS).map(lambda j: -np.pi + j * (2 * np.pi / BUCKETS))
        aim = st.one_of(st.sampled_from(midpoints.tolist()), st.sampled_from([np.pi, -np.pi]),
                        edge, st.floats(-np.pi, np.pi))
        hue = st.tuples(aim, st.integers(-4, 4)).map(lambda a: a[0] + a[1] * np.spacing(a[0]))
        amplitude = st.one_of(near(AMP_GATE), near(EPS_GRAY), st.floats(0.0, 0.8))
        norm = st.one_of(near(EPS_BLACK), st.floats(1e-3, 10.0),
                         st.sampled_from([1e19, 1.5e19, 1e38, F32_MAX]))
        drawn = data.draw(st.lists(st.tuples(hue, amplitude, norm), min_size=1, max_size=40))
        h, a, n = np.array(drawn).T
        pixels = np.clip(pixels_at(basis, h, a, n), -F32_MAX, F32_MAX).astype(np.float32)
        steps = data.draw(arrays(np.int64, pixels.shape, elements=st.integers(-3, 3)))
        gray = np.float32(data.draw(st.floats(0.0, 1.0)))  # r < g = b: a hue at ±pi in white
        pixels = np.vstack([ulp_steps(pixels, steps), np.zeros((1, 3), np.float32),
                            [[gray / 2, gray, gray]]])

        want = rule_labels(pixels, basis, centers)
        got, fallback = labeled(pixels, basis, centers)
        assert np.array_equal(got, want)
        hue64, _, flags = split_block(pixels, basis)
        must = (flags != FLAG_VALID) | np.isin(_bucket(hue64), _bucket(midpoints))
        assert all(pixels[i].tobytes() in fallback for i in np.flatnonzero(must))
        assert np.array_equal(labeled(pixels.astype(np.float64), basis, centers)[0], want)

    @pytest.mark.parametrize("illum", [(1.0, 1.0, 1.0), (1.0, 0.8, 0.6)])
    def test_midpoint_pixels_take_the_rule(self, illum):
        """Float32 pixels at and around each arc midpoint: those whose
        float64 hue lies in the midpoint's bucket take the float64 rule,
        and every label is that rule's."""
        basis = IlluminationBasis.from_rgb(illum)
        centers = np.array([-2.5, -0.4, 0.9, 2.2, np.pi])
        midpoints, _ = _arcs(centers)
        mid = midpoints[np.abs(midpoints) <= np.pi]
        aim = mid[:, None] + np.arange(-64, 65) * 2e-4  # 8 buckets either side
        pixels = pixels_at(basis, aim, 0.3, 1.0).reshape(-1, 3).astype(np.float32)
        got, fallback = labeled(pixels, basis, centers)
        assert np.array_equal(got, rule_labels(pixels, basis, centers))
        hue64, _, flags = split_block(pixels, basis)
        at_mid = np.isin(_bucket(hue64), _bucket(mid))
        assert np.all(flags == FLAG_VALID) and at_mid.sum() >= 5 * len(mid)
        assert all(pixels[i].tobytes() in fallback for i in np.flatnonzero(at_mid))
        assert len(fallback) < len(pixels) / 2  # the rest keep their float32 label

    def test_error_budget_stays_below_a_bucket(self):
        """pixel_labeler's proof, recomputed from the module's constants: a
        kept pixel's float32 bucket position lies within 0.3 of a bucket
        of the float64 one, and its gates are beyond float32 rounding."""
        u = float(np.finfo(np.float32).eps) / 2
        e = 4.0 * math.sqrt(2.0) * u            # |(bu, bv) - o| / |b|
        amp = AMP_GATE * (1.0 - 20.0 * u) - e   # |o| / |b| of a kept pixel, at least
        width = 2.0 * math.pi / BUCKETS
        rad = math.asin(e / amp) + ATAN2_ALLOWANCE + 1e-12
        # pi and the factor rounded to float32, then the sum and the product
        position = ((abs(float(np.float32(np.pi)) - math.pi) + 2.0 * math.pi * u) / width
                    + 2.0 * u * BUCKETS)
        assert rad / width + position < 0.3
        assert amp > EPS_GRAY + 1e-12  # split_block's amplitude is |o| / |b| to 1e-15
        assert (1.0 + BLACK_MARGIN) ** 2 * (1.0 - u) / (1.0 + 20.0 * u) > 1.0 + 1e-9

    def test_float32_arctan2_is_within_its_allowance(self):
        """numpy's float32 arctan2 on 10**6 random pairs of every scale,
        plus the axes and ±0, against float64 arctan2 of the same pairs."""
        rng = np.random.default_rng(0)
        yx = rng.standard_normal((2, 10**6)) * 2.0 ** rng.integers(-60, 60, (2, 10**6))
        yx[:, :8] = [[0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0, 0.0],
                     [-1.0, -1.0, 1.0, 1.0, 0.0, 0.0, 0.0, -0.0]]
        y, x = yx.astype(np.float32)
        err = np.abs(np.arctan2(y, x).astype(np.float64)
                     - np.arctan2(y.astype(np.float64), x.astype(np.float64)))
        err = np.minimum(err, 2.0 * np.pi - err)  # pi and -pi are one hue
        assert err.max() < ATAN2_ALLOWANCE


class TestKmeans:
    def test_single_value_single_cluster(self, white):
        field = make_field(np.full((10, 10), OLIVE_HUE))
        clusters = kmeans(field, 1)
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
        clusters = kmeans(field, 4)
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
        clusters = kmeans(field, 5)
        centers = white.orthogonal(clusters.hues)
        assert np.abs(np.linalg.norm(centers, axis=-1) - 1.0).max() <= 1e-12
        assert np.abs(centers @ white.direction).max() <= 1e-12

    def test_deterministic(self, white):
        rng = np.random.default_rng(4)
        img = rng.random((24, 24, 3)) + 0.02
        field = specular_free_field(img, white)
        a = kmeans(field, 3)
        b = kmeans(field, 3)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.hues, b.hues)

    def test_surplus_clusters_dropped(self, white):
        """Asking for more clusters than distinct values keeps the data's
        own structure and compacts the labels."""
        grid = np.zeros((20, 10))
        grid[:10] = hue_angle(0.0)
        grid[10:] = hue_angle(180.0)
        clusters = kmeans(make_field(grid), 3)
        assert clusters.n_clusters == 2
        assert set(np.unique(clusters.labels)) == {0, 1}

    def test_flagged_pixels_keep_sentinels(self, white):
        img = np.broadcast_to([0.4, 0.4, 0.2], (8, 8, 3)).copy()
        img[0, 0] = 0.0
        img[0, 1] = [0.7, 0.7, 0.7]
        field = specular_free_field(img, white)
        clusters = kmeans(field, 1)
        assert clusters.labels.tolist() == [0] * 62
        labels = field.label_map(clusters.labels)
        assert labels.shape == (8, 8) and labels.dtype == np.int32
        assert labels[0, 0] == LABEL_BLACK
        assert labels[0, 1] == LABEL_ACHROMATIC
        assert np.all(labels.reshape(-1)[2:] == 0)

    def test_too_few_pixels(self, white):
        grid = np.full((1, 3), OLIVE_HUE)
        with pytest.raises(errors.TooFewPixelsError):
            kmeans(make_field(grid), 4)

    def test_no_valid_pixels(self, white):
        field = specular_free_field(np.zeros((4, 4, 3)), white)
        with pytest.raises(errors.TooFewPixelsError):
            kmeans(field, 1)


class TestEvaluateFit:
    def test_correct_single_material_passes(self, white):
        gt = synth.render(synth.builtin_scene("single-2", 64, 48))
        field = specular_free_field(gt.input, white)
        clusters = kmeans(field, 1)
        diag = evaluate_fit(field, clusters, ClusterConfig.tau_dev)
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
        clusters = kmeans(field, 1)
        diag = evaluate_fit(field, clusters, ClusterConfig.tau_dev)
        assert diag.failing_fractions[0] == 1.0
        n = img.shape[0] * img.shape[1]
        assert diag.total_error == pytest.approx(n * 0.15125, rel=1e-6)
        assert not diag.converged

    def test_four_materials_in_two_clusters_fail(self, white):
        gt = synth.render(synth.builtin_scene("four-materials", 160, 112))
        field = specular_free_field(gt.input, white)
        clusters = kmeans(field, 2)
        diag = evaluate_fit(field, clusters, ClusterConfig.tau_dev)
        assert np.any(diag.failing_fractions > 0.1)
        assert not diag.converged

    def test_reused_buffers_give_the_allocating_formulas_bits(self, white):
        """Pieces of BLOCK entries and shorter ones, formed in reused
        buffers, sum to the bits of fresh per-piece residuals."""
        img = synth.add_noise(synth.render(synth.builtin_scene("four-materials", 320, 224)), 3.0)
        field = specular_free_field(img, white)
        clusters = kmeans(field, 3)
        tau = ClusterConfig.tau_dev
        cos, sin = field.cos_sin
        bad, total = np.zeros(clusters.n_clusters), 0.0
        for rows, cid in clustering._pieces(clusters.bounds, clusters.owner.tolist()):
            hue = clusters.hues[cid]
            off = field.amplitude[rows] * (sin[rows] * np.cos(hue) - cos[rows] * np.sin(hue))
            bad[cid] += np.count_nonzero(off * off > tau)
            total += float((off * off).sum())
        diag = evaluate_fit(field, clusters, tau)
        assert len(field.hue) > 2 * clustering.BLOCK
        assert diag.total_error == total
        assert np.array_equal(diag.failing_fractions, bad / clusters.sizes)


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

    @pytest.mark.parametrize("name", ["initial_k"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_count_below_one_is_a_config_error(self, name, value):
        field = make_field(np.full((4, 4), OLIVE_HUE))
        with pytest.raises(errors.ConfigError, match=f"{name} must be >= 1, got {value}"):
            adaptive_cluster(field, ClusterConfig(**{name: value}))

    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_nan_or_negative_tau_dev_is_a_config_error(self, value):
        """A library call gets the pipeline's config check: without it a
        NaN threshold passes every cluster and a negative one fails all."""
        field = make_field(np.full((4, 4), OLIVE_HUE))
        with pytest.raises(errors.ConfigError, match="tau_dev must be >= 0") as lib:
            adaptive_cluster(field, ClusterConfig(tau_dev=value))
        with pytest.raises(errors.ConfigError) as pipe:
            _check_config(PipelineConfig(cluster=ClusterConfig(tau_dev=value)))
        assert str(lib.value) == str(pipe.value)

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

    def test_min_cluster_size_override_keeps_small_cluster(self, white, monkeypatch):
        img = self._two_band_image()
        monkeypatch.setattr(clustering, "adaptive_min_cluster_size", lambda n_valid: 1)
        clusters, diag = cluster(img, white)
        assert clusters.n_clusters == 2
        assert sorted(clusters.sizes.tolist()) == [25, 175]
        assert diag.converged

    def test_iteration_cap_warns(self, white, monkeypatch):
        gt = synth.render(synth.builtin_scene("four-materials", 160, 112))
        monkeypatch.setattr(clustering, "MAX_ROUNDS", 1)
        with pytest.warns(errors.NoConvergenceWarning, match="after 1 iterations"):
            clusters, diag = cluster(gt.input, white)
        assert not diag.converged
        assert len(diag.rounds) == 1
        assert clusters.n_clusters >= 1  # best effort still returned

    def test_stops_once_k_can_grow_no_further(self, white):
        """With tau_dev 0 every mixed cluster fails, so k climbs to the
        valid-pixel count.  A round at that k again would find the same
        clusters, so the loop stops there, warning, instead of repeating
        the round up to the cap."""
        gt = synth.render(synth.builtin_scene("four-materials", 64, 48))
        field = specular_free_field(gt.input, white)
        n = len(field.hue)
        cfg = ClusterConfig(tau_dev=0.0, initial_k=n - 6)
        with pytest.warns(errors.NoConvergenceWarning):
            clusters, diag = adaptive_cluster(field, cfg)
        k_history = [r["k"] for r in diag.rounds]
        assert k_history[-1] == n and len(k_history) < clustering.MAX_ROUNDS
        assert len(set(k_history)) == len(k_history)
        assert not diag.converged and clusters.n_clusters >= 1

    def test_merge_leaves_every_entry_at_its_nearest_center(self):
        """k-means at k=3 finds 500/500/20 hues, and the 20 fold into the
        center at 1.0, which moves toward them.  Every entry then goes to
        its nearest refreshed center, as the separation labels pixels:
        the folded hues nearer the center at 0 go there."""
        hues = np.concatenate((np.linspace(-0.02, 0.02, 500), np.linspace(0.98, 1.02, 500),
                               np.linspace(0.40, 0.70, 20)))
        field = make_field(hues.reshape(1, -1))
        field.amplitude[:] = 0.5
        assert sorted(kmeans(field, 3).sizes.tolist()) == [20, 500, 500]
        clusters, _ = adaptive_cluster(field, ClusterConfig(initial_k=3))
        assert clusters.n_clusters == 2
        assert np.array_equal(clusters.labels, nearest_hue(field.hue, clusters.hues))
        assert np.array_equal(clusters.sizes, np.bincount(clusters.labels))
        assert sorted(clusters.sizes.tolist()) == [506, 514]  # 6 folded hues lie nearer 0

    def test_merge_drops_a_center_left_without_entries(self):
        """Two big clusters over one hue refresh to one center: the
        entries go to the lower index, and the other, empty, is dropped."""
        field = make_field(np.zeros((1, 85)))
        clusters = ClusterSet(bounds=np.array([0, 40, 80, 85]), owner=np.array([0, 1, 2]),
                              hues=np.array([0.5, -0.5, 0.4]), sizes=np.array([40, 40, 5]))
        merged = clustering._merge_small_clusters(clusters, field, 30)
        assert merged.n_clusters == 1 and merged.hues.tolist() == [0.0]
        assert merged.sizes.tolist() == [85] and np.all(merged.labels == 0)

    def test_lloyd_cap_warns(self, white, monkeypatch):
        """A k-means run that reaches KMEANS_MAX_ITER says so, naming k
        and the cap."""
        img = synth.add_noise(synth.render(synth.builtin_scene("over-seg", 100, 60)), 3.0,
                              seed=1)
        field = specular_free_field(img, white)
        assert kmeans(field, 8).iterations > 1
        monkeypatch.setattr(clustering, "KMEANS_MAX_ITER", 1)
        with pytest.warns(errors.NoConvergenceWarning, match=r"k=8 .* 1 Lloyd iterations"):
            clusters = kmeans(field, 8)
        assert clusters.iterations == 1

    def test_all_flagged_image_rejected(self, white):
        img = np.broadcast_to([0.5, 0.5, 0.5], (16, 16, 3)).copy()
        with pytest.raises(errors.TooFewPixelsError):
            cluster(img, white)

    def test_angle_caches_last_for_one_clustering(self, white):
        img = synth.add_noise(synth.render(synth.builtin_scene("four-materials", 160, 112)), 3.0)
        field = specular_free_field(img, white)
        clusters, fit = adaptive_cluster(field)
        assert "cos_sin" not in vars(field) and "block_sums" not in vars(field)
        again = evaluate_fit(field, clusters, ClusterConfig.tau_dev)  # rebuilds cos_sin
        assert again.total_error == fit.total_error
        assert np.array_equal(again.failing_fractions, fit.failing_fractions)

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
