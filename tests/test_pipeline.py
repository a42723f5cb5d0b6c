"""End-to-end pipeline, fast path, and configuration parsing."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from despec import errors, synth
from despec.clustering import (
    KMEANS_MAX_ITER,
    LABEL_ACHROMATIC,
    LABEL_BLACK,
    adaptive_cluster,
    nearest_hue,
    specular_free_field,
)
from despec.metrics import cluster_accuracy, psnr
from despec.model import EPS_BLACK, IlluminationBasis, _norm3, white_balance
from despec.pipeline import (
    OPTIONS,
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


class TestFullPipeline:
    def test_zero_specular_input_is_untouched(self):
        params = synth.SceneParams(materials=[synth.SINGLE_COLORS[0]],
                                   width=96, height=64, lobes=[])
        gt = synth.render(synth.build_scene(params))
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
        gt = synth.render(synth.build_scene(params))
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
        """The default target edge asks for factor 5 on a 1000x4 image;
        capped at 4, the copy keeps one row and clusters like the full
        path.  A 4x1000 image keeps one column."""
        gt = synth.render(synth.builtin_scene("over-seg", 1000, 4))
        result, diag = run(gt.input, PipelineConfig(fast=True))
        assert diag.downsampled and diag.n_clusters == 5
        assert np.array_equal(result.diffuse + result.specular, gt.input)
        assert cluster_accuracy(diag.labels, gt.labels) == 1.0
        tall = synth.render(synth.builtin_scene("over-seg", 4, 1000)).input
        result, diag = run(tall, PipelineConfig(fast=True))
        assert diag.downsampled and diag.labels.shape == (1000, 4)
        assert np.array_equal(result.diffuse + result.specular, tall)

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
        factor = int(np.ceil(max(img.shape[:2]) / cfg.target_edge))
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
           factor=st.sampled_from([2, 3]))
    def test_thread_count_property(self, scene, height, width, seed, fast, factor):
        """Generated images several 16-row chunks tall, so every
        row-chunked stage (field fill, downsample, separation kernel)
        starts a pool: 1, 2 and 3 workers give the same bytes on both
        paths.  The fast path's target edge makes it downsample by
        ``factor``."""
        img = synth.add_noise(synth.render(synth.builtin_scene(scene, width, height)),
                              3.0, seed=seed)
        target = -(-height // factor) if fast else 200
        outputs = []
        for threads in (1, 2, 3):
            try:
                result, diag = run(img, PipelineConfig(fast=fast, target_edge=target,
                                                       threads=threads))
            except errors.DespecError as exc:  # each worker count must fail alike
                outputs.append(repr(exc))
                continue
            assert diag.downsampled == fast
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
           target_edge=option_values("target_edge", 60),
           initial_k=option_values("initial_k", 12),
           min_cluster_size=st.none() | option_values("min_cluster_size", 300),
           tau_dev=option_values("tau_dev", 1.5),
           cluster_seed=option_values("seed", 2**16),
           max_iterations=option_values("max_iterations", 12),
           illum=ILLUMINATIONS)
    def test_settings_property(self, scene, height, width, seed, fast, target_edge,
                               initial_k, min_cluster_size, tau_dev, cluster_seed,
                               max_iterations, illum):
        """Any in-range settings on an image taller than one 16-row chunk,
        with 2 workers, either fail with a processing error (exit 5) or
        split the working image exactly into nonnegative parts."""
        img = synth.add_noise(synth.render(synth.builtin_scene(scene, width, height)),
                              3.0, seed=seed)
        values = {"fast": str(fast), "target_edge": str(target_edge),
                  "initial_k": str(initial_k), "tau_dev": repr(tau_dev), "threads": "2",
                  "min_cluster_size": "auto" if min_cluster_size is None
                  else str(min_cluster_size),
                  "seed": str(cluster_seed), "max_iterations": str(max_iterations),
                  "illum": illum}
        cfg = config_from_values(values)
        assert {opt.key for opt in OPTIONS} == set(values)
        try:
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
    with a black and a gray pixel planted; the fast path downsamples by 4."""
    img = synth.add_noise(synth.render(synth.builtin_scene(scene, 200, 120)), 3.0, seed=0)
    img[0, 0] = 0.0
    img[0, 1] = [0.4, 0.4, 0.4]
    cfg = PipelineConfig(fast=fast, target_edge=60, threads=1)
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
    min_cluster_size = 64
    seed = 7
    max_iterations = 6
    fast = yes
    target_edge = 150
    threads = 2
    """

    def test_full_round_trip(self):
        cfg = config_from_values(parse_config_text(self.FULL))
        assert cfg.illumination == "divide:0.9,1.0,0.8"
        assert cfg.cluster.initial_k == 2
        assert cfg.cluster.tau_dev == 0.12
        assert cfg.cluster.min_cluster_size == 64
        assert cfg.cluster.seed == 7
        assert cfg.cluster.max_iterations == 6
        assert cfg.fast is True
        assert cfg.target_edge == 150
        assert cfg.threads == 2

    def test_auto_min_cluster_size(self):
        cfg = config_from_values({"min_cluster_size": "auto"})
        assert cfg.cluster.min_cluster_size is None

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
        {"min_cluster_size": "some"},
    ])
    def test_bad_values(self, values):
        with pytest.raises(errors.ConfigError):
            config_from_values(values)

    def test_load_config(self, tmp_path):
        path = tmp_path / "despec.cfg"
        path.write_text("seed = 3\nfast = off\n")
        cfg = load_config(path)
        assert cfg.cluster.seed == 3
        assert cfg.fast is False

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(errors.ConfigError):
            load_config(tmp_path / "absent.cfg")
