"""End-to-end pipeline, fast path, and configuration parsing."""

import os
import re
import subprocess
import sys
import warnings
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_exact_split, peak_bytes
from despec import clustering, errors, imgio, pipeline, synth
from despec.clustering import (
    BLOCK,
    KMEANS_MAX_ITER,
    LABEL_ACHROMATIC,
    LABEL_BLACK,
    SUB,
    adaptive_cluster,
    nearest_hue,
    specular_free_field,
)
from despec.metrics import cluster_accuracy, psnr
from despec.model import EPS_BLACK, MAX_SAMPLE, IlluminationBasis, _norm3, white_balance
from despec.pipeline import (
    FAST_MIN_EDGE,
    OPTIONS,
    TARGET_EDGE,
    PipelineConfig,
    box_downsample,
    config_from_values,
    load_config,
    parse_config_text,
    parse_illumination,
    run,
)
from despec.recovery import estimate_models, separate_image


class TestParseIllumination:
    def test_white(self):
        basis, divide = parse_illumination("white")
        assert divide is None
        assert np.allclose(basis.direction, 1.0 / np.sqrt(3.0))

    def test_explicit_color(self):
        basis, divide = parse_illumination("0.62, 0.60, 0.55")
        assert divide is None
        assert np.allclose(basis.direction,
                           np.array([0.62, 0.60, 0.55]) / np.linalg.norm([0.62, 0.60, 0.55]))

    def test_divide_mode(self):
        basis, divide = parse_illumination("divide:0.9,1.0,0.8")
        assert np.allclose(basis.direction, 1.0 / np.sqrt(3.0))
        assert np.array_equal(divide, [0.9, 1.0, 0.8])

    @pytest.mark.parametrize("bad", ["divide:1,2", "1,2", "a,b,c", "divide:x,y,z"])
    def test_bad_specs(self, bad):
        with pytest.raises(errors.ConfigError):
            parse_illumination(bad)


class TestBoxDownsample:
    def test_block_means(self):
        img = np.arange(16, dtype=np.float64).reshape(4, 4)[..., None].repeat(3, axis=-1)
        small = box_downsample(img, 2)
        assert small.shape == (2, 2, 3)
        assert np.array_equal(small[..., 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_factor_one_is_identity(self):
        img = np.zeros((5, 5, 3))
        assert box_downsample(img, 1) is img

    def test_remainder_cropped(self):
        img = np.ones((5, 7, 3))
        assert box_downsample(img, 2).shape == (2, 3, 3)

    @pytest.mark.parametrize("shape", [(97, 203), (300, 500), (450, 650), (61, 50)])
    def test_matches_strided_mean_bit_for_bit(self, shape):
        img = np.random.default_rng(shape[1]).random((*shape, 3)) * 1.7
        for factor in range(2, 25):
            hc, wc = (shape[0] // factor) * factor, (shape[1] // factor) * factor
            blocks = img[:hc, :wc].reshape(hc // factor, factor, wc // factor, factor, 3)
            assert np.array_equal(box_downsample(img, factor), blocks.mean(axis=(1, 3)))

    @pytest.mark.parametrize("factor", [2, 3, 7])
    def test_thread_count_does_not_change_bits(self, factor):
        img = np.random.default_rng(factor).random((450, 333, 3))
        one = box_downsample(img, factor)
        for threads in (2, 3):
            assert box_downsample(img, factor, threads).tobytes() == one.tobytes()


def planted_image(width=400, height=300):
    """Noisy four-materials scene with a black pixel at (0, 0) and a gray
    one at (0, 1); many 16-row chunks tall, so threaded runs start a pool."""
    gt = synth.render(synth.builtin_scene("four-materials", width, height))
    img = synth.add_noise(gt, 3.0, seed=4)
    img[0, 0] = 0.0
    img[0, 1] = [0.4, 0.4, 0.4]
    return img


class TestAssignToCenters:
    """The separation kernel labels pixels itself when it is given no
    label map (the clusters came from a downsampled copy)."""

    def test_matches_cluster_labels_and_flags(self):
        gt = synth.render(synth.builtin_scene("four-materials", 120, 84))
        img = gt.input.copy()
        img[0, 0] = 0.0
        img[0, 1] = [0.4, 0.4, 0.4]
        basis = IlluminationBasis.white()
        field = specular_free_field(img, basis)
        clusters, _ = adaptive_cluster(field)
        models = estimate_models(field, clusters, basis)
        labels = field.label_map(clusters.labels)
        relabeled = separate_image(img, clusters, models, basis, threads=2)
        given = separate_image(img, clusters, models, basis, threads=2, labels=labels)
        assert np.array_equal(relabeled.labels, labels)
        assert given.labels is labels
        assert relabeled.labels[0, 0] == LABEL_BLACK
        assert relabeled.labels[0, 1] == LABEL_ACHROMATIC
        # the flags are the label codes on both paths
        assert (LABEL_BLACK, LABEL_ACHROMATIC) == (-1, -2)
        assert field.flags.dtype == np.int8
        assert field.flags[0, :2].tolist() == labels[0, :2].tolist() == [-1, -2]
        assert np.count_nonzero(relabeled.labels >= 0) == img.shape[0] * img.shape[1] - 2
        assert np.array_equal(relabeled.diffuse, given.diffuse)
        assert np.array_equal(relabeled.specular, given.specular)


class TestInputValidation:
    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            run(np.zeros((8, 8)))

    def test_non_finite(self):
        img = np.full((8, 8, 3), 0.5)
        img[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            run(img)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite(self, value):
        img = np.full((8, 8, 3), 0.5)
        img[3, 5, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            run(img)

    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3)])
    def test_empty(self, shape):
        with pytest.raises(ValueError, match="input image is empty"):
            run(np.zeros(shape))

    def test_negative(self):
        img = np.full((8, 8, 3), 0.5)
        img[0, 0, 0] = -0.1
        with pytest.raises(ValueError):
            run(img)

    def test_norm_overflow_is_named(self):
        """Squaring a sample of 1e160 overflows float64, which would flag
        every pixel achromatic; the run names the overflow instead."""
        img = synth.render(synth.builtin_scene("four-materials", 64, 48)).input * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="overflows the pixel norm"):
                run(img)

    def test_largest_sample_separates(self):
        """An image whose brightest sample is MAX_SAMPLE runs without an
        overflow, keeps the labels of its unscaled copy and splits
        exactly."""
        gt = synth.render(synth.builtin_scene("four-materials", 64, 48))
        img = gt.input * (MAX_SAMPLE / gt.input.max())
        assert MAX_SAMPLE / 2 < img.max() <= MAX_SAMPLE
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result, diag = run(img, PipelineConfig(threads=1))
        assert np.array_equal(diag.labels, run(gt.input, PipelineConfig(threads=1))[1].labels)
        assert_exact_split(result, img)

    def test_max_sample_is_the_largest_finite_norm(self):
        """A pixel with all three channels at MAX_SAMPLE has a finite norm,
        and one a step above it does not."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isfinite(_norm3(np.full(3, MAX_SAMPLE)))
        with np.errstate(over="ignore"):
            assert np.isinf(_norm3(np.full(3, np.nextafter(MAX_SAMPLE, np.inf))))

    @pytest.mark.parametrize("fast", [False, True])
    def test_pixels_at_the_bound_in_every_channel_separate(self, fast):
        """Pixels with every channel at MAX_SAMPLE, colored and gray, run
        without an overflow and split exactly."""
        gt = synth.render(synth.builtin_scene("four-materials", 64, 48))
        img = gt.input * (MAX_SAMPLE / gt.input.max())
        img[0, :4] = [MAX_SAMPLE, MAX_SAMPLE, 0.9 * MAX_SAMPLE]
        img[1, :4] = MAX_SAMPLE
        with warnings.catch_warnings(), mock.patch.object(pipeline, "TARGET_EDGE", FAST_MIN_EDGE):
            warnings.simplefilter("error", RuntimeWarning)
            result, _ = run(img, PipelineConfig(fast=fast, threads=1))
        assert_exact_split(result, img)


class TestFullPipeline:
    def test_zero_specular_input_is_untouched(self):
        params = synth.SceneParams(materials=[synth.SINGLE_COLORS[0]],
                                   width=96, height=64, lobes=[])
        gt = synth.render(params)
        result, diag = run(gt.input)
        assert np.abs(result.specular).max() <= 1e-12
        assert np.abs(result.diffuse - gt.input).max() <= 1e-12
        assert diag.n_clusters == 1

    def test_additivity_and_diagnostics(self):
        gt = synth.render(synth.builtin_scene("four-materials", 200, 140))
        img = synth.add_noise(gt, 3.0, seed=0)
        result, diag = run(img)
        assert np.abs(result.diffuse + result.specular - img).max() <= 1e-12
        assert result.diffuse.min() >= 0 and result.specular.min() >= 0
        assert diag.fit.converged
        assert diag.n_clusters == 4
        assert diag.labels.shape == img.shape[:2]
        assert diag.k_history[0] == 1
        lines = diag.to_lines()
        assert "converged = true" in lines
        assert "downsampled = false" in lines
        assert any(line.startswith("clusters = 4") for line in lines)

    @pytest.mark.parametrize("scene", ["single-1", "four-materials"])
    def test_diagnostics_count_lloyd_iterations_per_round(self, scene):
        """One count per adaptive round, as one value or a comma list."""
        gt = synth.render(synth.builtin_scene(scene, 200, 140))
        _, diag = run(synth.add_noise(gt, 3.0, seed=0), PipelineConfig(threads=1))
        counts = [r["lloyd_iterations"] for r in diag.fit.rounds]
        assert len(counts) == len(diag.k_history) == len(diag.fit.rounds)
        assert all(1 <= n <= KMEANS_MAX_ITER for n in counts)
        line = f"lloyd_iterations = {','.join(str(n) for n in counts)}"
        assert line in diag.to_lines()
        assert ("," in line) == (len(counts) > 1)

    def test_colored_illumination_recovers_scene(self):
        illum = (0.62, 0.60, 0.55)
        params = synth.SceneParams(materials=[synth.SINGLE_COLORS[0]],
                                   width=160, height=120,
                                   illumination=illum,
                                   lobes=[(0.5, 0.5, 0.10, 0.40)])
        gt = synth.render(params)
        cfg = PipelineConfig(illumination="0.62,0.60,0.55")
        result, _ = run(gt.input, cfg)
        assert psnr(result.diffuse, gt.diffuse) >= 50.0

    def test_divide_mode_balances_then_separates(self):
        gt = synth.render(synth.builtin_scene("four-materials", 130, 90))
        illum = np.array([0.8, 1.0, 0.9])
        tinted = gt.input * illum / illum.max()
        cfg = PipelineConfig(illumination="divide:0.8,1.0,0.9")
        result, diag = run(tinted, cfg)
        # output additivity holds against the balanced working image
        assert np.abs(result.diffuse + result.specular - gt.input).max() <= 1e-12
        assert psnr(result.diffuse, gt.diffuse) >= 50.0
        assert diag.n_clusters == 4

    def test_peak_holds_the_field_its_angle_caches_and_one_block_of_temporaries(self):
        """At 1 thread a full-path run holds at most the field, the
        angle caches it clusters with (cos_sin and block_sums, 16 B per
        entry and per SUB entries), and one BLOCK-sized set of
        temporaries, taken as four float64 buffers.  The label maps and
        the parts come after the angle caches are dropped."""
        gt = synth.render(synth.builtin_scene("four-materials", 650, 450))
        img = synth.add_noise(gt, 3.0, seed=0).astype(np.float32)
        field = specular_free_field(img, IlluminationBasis.white())
        n = len(field.hue)
        held = sum(a.nbytes for a in (field.hue, field.amplitude, field.pixel, field.flags))
        held += 16 * n + 16 * (n // SUB + 2) + 4 * 8 * BLOCK
        cfg = PipelineConfig(threads=1)
        run(img, cfg)  # the first run's one-time allocations are not counted
        assert peak_bytes(lambda: run(img, cfg)) < held

    def test_a_one_thread_run_imports_no_generator_and_no_pool(self):
        """k-means' first center is drawn without numpy.random, and a run
        on one worker never builds the row pool, so a cold one-thread run
        loads neither module."""
        code = ("import sys\n"
                "from despec import pipeline, synth\n"
                "img = synth.render(synth.builtin_scene('four-materials', 160, 120)).input\n"
                "pipeline.run(img, pipeline.PipelineConfig(threads=1))\n"
                "print(*(m in sys.modules for m in ('numpy.random', 'concurrent.futures')))\n")
        src = str(Path(pipeline.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_divide_overflow_is_rejected(self):
        """A divide color that makes the balanced image overflow is an
        illuminant error, raised before any clustering."""
        gt = synth.render(synth.builtin_scene("single-1", 64, 48))
        with pytest.raises(errors.InvalidIlluminantError, match="non-finite"):
            run(gt.input, PipelineConfig(illumination="divide:1e-320,1,1"))


class TestFastPath:
    def test_small_image_falls_back_to_full(self):
        gt = synth.render(synth.builtin_scene("single-1", 160, 120))
        result, diag = run(gt.input, PipelineConfig(fast=True))
        assert not diag.downsampled
        assert np.abs(result.diffuse + result.specular - gt.input).max() <= 1e-12

    def test_factor_stops_at_the_short_side(self):
        """The default target edge asks for factor 5 on a 1000x4 image,
        but a copy must keep FAST_MIN_EDGE pixels on its short side, so
        the image takes the full path.  So does a 4x1000 image."""
        gt = synth.render(synth.builtin_scene("over-seg", 1000, 4))
        result, diag = run(gt.input, PipelineConfig(fast=True))
        assert not diag.downsampled and diag.n_clusters == 5
        assert_exact_split(result, gt.input)
        assert cluster_accuracy(diag.labels, gt.labels) == 1.0
        tall = synth.render(synth.builtin_scene("over-seg", 4, 1000)).input
        result, diag = run(tall, PipelineConfig(fast=True))
        assert not diag.downsampled and diag.labels.shape == (1000, 4)
        assert_exact_split(result, tall)

    @pytest.mark.parametrize("scene, width, height, downsampled", [
        ("four-materials", 1000, 4, False),
        ("four-materials", 4, 1000, False),
        ("four-materials", 8, 1000, False),
        ("over-seg", 16, 1000, True),   # factor 2, not 5
        ("over-seg", 64, 2000, True),   # factor 8, not 10
    ])
    def test_thin_image_keeps_its_materials_apart(self, scene, width, height, downsampled):
        """A copy averaged down to a row or two mixes materials laid side
        by side across it; capping the factor at the short side over
        FAST_MIN_EDGE keeps every material as the full path finds it."""
        gt = synth.render(synth.builtin_scene(scene, width, height))
        result, diag = run(gt.input, PipelineConfig(fast=True))
        assert diag.downsampled == downsampled
        assert cluster_accuracy(diag.labels, gt.labels) == 1.0
        assert_exact_split(result, gt.input)

    def test_downsampled_clustering_keeps_quality(self):
        gt = synth.render(synth.builtin_scene("four-materials", 800, 560))
        result, diag = run(gt.input, PipelineConfig(fast=True))
        assert diag.downsampled
        assert diag.labels.shape == (560, 800)
        assert diag.n_clusters == 4
        assert cluster_accuracy(diag.labels, gt.labels) >= 0.99
        assert psnr(result.diffuse, gt.diffuse) >= 50.0
        assert np.abs(result.diffuse + result.specular - gt.input).max() <= 1e-12

    def test_full_resolution_labels_are_nearest_center_hues(self):
        img = planted_image()
        cfg = PipelineConfig(fast=True, threads=3)
        _, diag = run(img, cfg)
        assert diag.downsampled
        assert diag.labels[0, 0] == LABEL_BLACK
        assert diag.labels[0, 1] == LABEL_ACHROMATIC
        basis = IlluminationBasis.white()
        factor = int(np.ceil(max(img.shape[:2]) / TARGET_EDGE))
        clusters, _ = adaptive_cluster(specular_free_field(box_downsample(img, factor), basis))
        field = specular_free_field(img, basis)
        assert np.array_equal(diag.labels,
                              field.label_map(nearest_hue(field.hue, clusters.hues)))

    def test_run_dispatches_on_config(self):
        gt = synth.render(synth.builtin_scene("single-1", 280, 200))
        _, full_diag = run(gt.input, PipelineConfig(fast=False))
        _, fast_diag = run(gt.input, PipelineConfig(fast=True))
        assert not full_diag.downsampled
        assert fast_diag.downsampled


class TestExactSplit:
    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_three_identities_bit_for_bit(self, fast, threads):
        """Noisy four-materials, several 16-row chunks tall, on both paths:
        every sample splits so that d + s == b, b - d == s and b - s == d."""
        gt = synth.render(synth.builtin_scene("four-materials", 240, 170))
        img = synth.add_noise(gt, 3.0, seed=4)
        with mock.patch.object(pipeline, "TARGET_EDGE", 60):
            result, diag = run(img, PipelineConfig(fast=fast, threads=threads))
        assert diag.downsampled == fast
        assert_exact_split(result, img)


class TestFloat32Input:
    @pytest.mark.parametrize("scene", synth.BUILTIN_SCENES)
    @pytest.mark.parametrize("sigma", [0.0, 3.0])
    @pytest.mark.parametrize("fast", [False, True])
    def test_float32_and_float64_agree(self, scene, sigma, fast):
        """A float32 image and its float64 copy give the same labels, and
        diffuse parts within one float32 spacing of the input sample;
        each run's parts have its input's dtype and split it exactly."""
        gt = synth.render(synth.builtin_scene(scene, 120, 90))
        img32 = synth.add_noise(gt, sigma, seed=5).astype(np.float32)
        img64 = img32.astype(np.float64)
        cfg = PipelineConfig(fast=fast, threads=2)
        with mock.patch.object(pipeline, "TARGET_EDGE", 40):
            (a, da), (b, db) = run(img32, cfg), run(img64, cfg)
        assert da.downsampled == db.downsampled == fast
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.diffuse.dtype == a.specular.dtype == np.float32
        assert b.diffuse.dtype == b.specular.dtype == np.float64
        gap = np.abs(a.diffuse.astype(np.float64) - b.diffuse)
        assert np.all(gap <= np.spacing(img32).astype(np.float64))
        assert_exact_split(a, img32)
        assert_exact_split(b, img64)


class TestDeterminism:
    def test_thread_count_does_not_change_output(self):
        gt = synth.render(synth.builtin_scene("over-seg", 130, 97))
        img = synth.add_noise(gt, 3.0, seed=2)
        a, _ = run(img, PipelineConfig(threads=1))
        b, _ = run(img, PipelineConfig(threads=3))
        assert np.array_equal(a.diffuse, b.diffuse)
        assert np.array_equal(a.specular, b.specular)

    def test_fast_path_thread_count_does_not_change_output(self):
        img = planted_image()
        a, da = run(img, PipelineConfig(fast=True, threads=1))
        b, db = run(img, PipelineConfig(fast=True, threads=3))
        assert da.downsampled and db.downsampled
        for x, y in ((a.diffuse, b.diffuse), (a.specular, b.specular),
                     (da.labels, db.labels)):
            assert x.tobytes() == y.tobytes()

    @settings(max_examples=30)
    @given(scene=st.sampled_from(synth.BUILTIN_SCENES), height=st.integers(64, 160),
           width=st.integers(6, 40), seed=st.integers(0, 2**16), fast=st.booleans(),
           factor=st.sampled_from([2, 3]), dtype=st.sampled_from([np.float64, np.float32]))
    def test_thread_count_property(self, scene, height, width, seed, fast, factor, dtype):
        """Generated float64 or float32 images several 16-row chunks
        tall, so every row-chunked stage (field fill, downsample,
        separation kernel) starts a pool: 1, 2 and 3 workers give the
        same bytes on both paths.  The fast path's target edge, patched,
        makes it downsample by ``factor``, at most the width over
        FAST_MIN_EDGE: an image under twice that wide takes the full
        path."""
        img = synth.add_noise(synth.render(synth.builtin_scene(scene, width, height)),
                              3.0, seed=seed).astype(dtype)
        outputs = []
        for threads in (1, 2, 3):
            try:
                with mock.patch.object(pipeline, "TARGET_EDGE", -(-height // factor)):
                    result, diag = run(img, PipelineConfig(fast=fast, threads=threads))
            except errors.DespecError as exc:  # each worker count must fail alike
                outputs.append(repr(exc))
                continue
            assert diag.downsampled == (fast and width >= 2 * FAST_MIN_EDGE)
            assert result.diffuse.dtype == result.specular.dtype == dtype
            outputs.append(result.diffuse.tobytes() + result.specular.tobytes()
                           + result.labels.tobytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def option_values(key: str, cap):
    """Values of option ``key`` from its table minimum up to ``cap``."""
    opt = next(opt for opt in OPTIONS if opt.key == key)
    if opt.kind == "number":
        return st.floats(opt.lo, cap)
    return st.integers(int(opt.lo), int(cap))


RGB = st.tuples(*[st.floats(1e-3, 1.0)] * 3).map(lambda rgb: ",".join(map(repr, rgb)))
ILLUMINATIONS = st.just("white") | RGB | RGB.map("divide:".__add__)


class TestGeneratedSettings:
    @pytest.mark.filterwarnings("ignore::despec.errors.NoConvergenceWarning")
    @settings(max_examples=30)
    @given(scene=st.sampled_from(synth.BUILTIN_SCENES), height=st.integers(17, 48),
           width=st.integers(4, 24), seed=st.integers(0, 2**16), fast=st.booleans(),
           target_edge=st.integers(1, 60), initial_k=option_values("initial_k", 12),
           tau_dev=option_values("tau_dev", 1.5), max_rounds=st.integers(1, 12),
           illum=ILLUMINATIONS)
    def test_settings_property(self, scene, height, width, seed, fast, target_edge,
                               initial_k, tau_dev, max_rounds, illum):
        """Any in-range settings on an image taller than one 16-row chunk,
        with 2 workers, either fail with a processing error (exit 5) or
        split the working image exactly into nonnegative parts.  The
        patched target edge and round cap reach the fast path on these
        small images and stop the adaptive rounds early."""
        img = synth.add_noise(synth.render(synth.builtin_scene(scene, width, height)),
                              3.0, seed=seed)
        values = {"fast": str(fast), "initial_k": str(initial_k), "tau_dev": repr(tau_dev),
                  "threads": "2", "illum": illum}
        cfg = config_from_values(values)
        assert {opt.key for opt in OPTIONS} == set(values)
        try:
            with mock.patch.object(pipeline, "TARGET_EDGE", target_edge), \
                    mock.patch.object(clustering, "MAX_ROUNDS", max_rounds):
                result, diag = run(img, cfg)
        except errors.DespecError as exc:
            assert exc.exit_code == 5, repr(exc)
            return
        _, divide = parse_illumination(illum)
        if divide is not None:
            img = white_balance(img, divide)
        assert np.array_equal(result.diffuse + result.specular, img)
        assert result.diffuse.min() >= 0.0 and result.specular.min() >= 0.0
        assert diag.labels.shape == img.shape[:2]


@lru_cache(maxsize=None)
def scale_base(scene: str, fast: bool):
    """(config, image, result, diagnostics) of one unscaled 200x120 run,
    with a black and a gray pixel planted; at a TARGET_EDGE of 60 the
    fast path downsamples by 4."""
    img = synth.add_noise(synth.render(synth.builtin_scene(scene, 200, 120)), 3.0, seed=0)
    img[0, 0] = 0.0
    img[0, 1] = [0.4, 0.4, 0.4]
    cfg = PipelineConfig(fast=fast, threads=1)
    return (cfg, img, *run(img, cfg))


class TestScaleEquivariance:
    @settings(max_examples=24)
    @given(scene=st.sampled_from(["four-materials", "over-seg", "single-1"]),
           fast=st.booleans(), j=st.integers(-24, 64))
    def test_power_of_two_scale_property(self, scene, fast, j):
        """Scaling the input by 2**j keeps every label and scales both
        parts by exactly 2**j: chromaticity does not depend on scale, and
        the kernel is products, clips and one subtraction.  It holds while
        no pixel crosses EPS_BLACK; the drawn range of j keeps every value
        far from overflow and from subnormals."""
        with mock.patch.object(pipeline, "TARGET_EDGE", 60):
            cfg, img, base, base_diag = scale_base(scene, fast)
            scale = 2.0 ** j
            assume(np.array_equal(_norm3(img) <= EPS_BLACK, _norm3(img * scale) <= EPS_BLACK))
            result, diag = run(img * scale, cfg)
        assert diag.downsampled == fast
        assert np.array_equal(diag.labels, base_diag.labels)
        assert np.array_equal(result.diffuse, base.diffuse * scale)
        assert np.array_equal(result.specular, base.specular * scale)


class TestConfigParsing:
    FULL = """
    # sample configuration
    illum = divide:0.9,1.0,0.8
    initial_k = 2
    tau_dev = 0.12
    fast = yes
    threads = 2
    """

    def test_full_round_trip(self):
        cfg = config_from_values(parse_config_text(self.FULL))
        assert cfg.illumination == "divide:0.9,1.0,0.8"
        assert cfg.cluster.initial_k == 2
        assert cfg.cluster.tau_dev == 0.12
        assert cfg.fast is True
        assert cfg.threads == 2

    def test_base_is_not_mutated(self):
        base = PipelineConfig()
        derived = config_from_values({"initial_k": "5", "fast": "true"}, base)
        assert derived.cluster.initial_k == 5 and derived.fast
        assert base.cluster.initial_k == 1 and not base.fast

    @pytest.mark.parametrize("text", [
        "wibble = 3\n",
        "initial_k two\n",
    ])
    def test_bad_lines(self, text):
        with pytest.raises(errors.ConfigError):
            parse_config_text(text)

    @pytest.mark.parametrize("values", [
        {"initial_k": "two"},
        {"tau_dev": "lots"},
        {"fast": "maybe"},
        {"wibble": "3"},
    ])
    def test_bad_values(self, values):
        with pytest.raises(errors.ConfigError):
            config_from_values(values)

    def test_load_config(self, tmp_path):
        path = tmp_path / "despec.cfg"
        path.write_text("initial_k = 3\nfast = off\n")
        cfg = load_config(path)
        assert cfg.cluster.initial_k == 3
        assert cfg.fast is False

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(errors.ConfigError):
            load_config(tmp_path / "absent.cfg")


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    """The README's "Library use" code blocks, run in order in one
    namespace on a small synthetic input.pfm, so the attributes they
    name cannot drift from the code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    gt = synth.render(synth.builtin_scene("four-materials", 64, 48))
    monkeypatch.chdir(tmp_path)
    imgio.save(gt.input, "input.pfm")
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert (tmp_path / "diffuse.pfm").exists()
    assert np.array_equal(namespace["result"].diffuse + namespace["result"].specular,
                          namespace["img"])
    assert "validate" in capsys.readouterr().out
