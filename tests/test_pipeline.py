"""End-to-end pipeline, fast path, and configuration parsing."""

import numpy as np
import pytest

from despec import errors, synth
from despec.metrics import cluster_accuracy, psnr
from despec.model import IlluminationBasis
from despec.pipeline import (
    PipelineConfig,
    assign_to_centers,
    box_downsample,
    config_from_values,
    load_config,
    parse_config_text,
    parse_illumination,
    run,
)


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


class TestAssignToCenters:
    def test_matches_cluster_labels_and_flags(self):
        gt = synth.render(synth.builtin_scene("four-materials", 120, 84))
        img = gt.input.copy()
        img[0, 0] = 0.0
        img[0, 1] = [0.4, 0.4, 0.4]
        basis = IlluminationBasis.white()
        from despec.clustering import adaptive_cluster, specular_free_field
        field = specular_free_field(img, basis)
        clusters, _ = adaptive_cluster(field, basis)
        assigned = assign_to_centers(field, clusters.centers)
        assert np.array_equal(assigned.labels, clusters.labels)
        assert assigned.labels[0, 0] < 0 and assigned.labels[0, 1] < 0
        assert assigned.sizes.sum() == img.shape[0] * img.shape[1] - 2


class TestInputValidation:
    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            run(np.zeros((8, 8)))

    def test_non_finite(self):
        img = np.full((8, 8, 3), 0.5)
        img[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            run(img)

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
        assert diag.converged
        assert diag.n_clusters == 4
        assert diag.labels.shape == img.shape[:2]
        assert diag.k_history[0] == 1
        lines = diag.to_lines()
        assert "converged = true" in lines
        assert "downsampled = false" in lines
        assert any(line.startswith("clusters = 4") for line in lines)

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


class TestFastPath:
    def test_small_image_falls_back_to_full(self):
        gt = synth.render(synth.builtin_scene("single-1", 160, 120))
        result, diag = run(gt.input, PipelineConfig(fast=True))
        assert not diag.downsampled
        assert np.abs(result.diffuse + result.specular - gt.input).max() <= 1e-12

    def test_downsampled_clustering_keeps_quality(self):
        gt = synth.render(synth.builtin_scene("four-materials", 800, 560))
        result, diag = run(gt.input, PipelineConfig(fast=True))
        assert diag.downsampled
        assert diag.labels.shape == (560, 800)
        assert diag.n_clusters == 4
        assert cluster_accuracy(diag.labels, gt.labels) >= 0.99
        assert psnr(result.diffuse, gt.diffuse) >= 50.0
        assert np.abs(result.diffuse + result.specular - gt.input).max() <= 1e-12

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


class TestConfigParsing:
    FULL = """
    # sample configuration
    illum = divide:0.9,1.0,0.8
    initial_k = 2
    tau_dev = 0.12
    tau_frac = 0.08
    min_cluster_size = 64
    seed = 7
    max_iterations = 6
    bin_width = 0.01
    peak_floor = 9
    fast = yes
    target_edge = 150
    threads = 2
    """

    def test_full_round_trip(self):
        cfg = config_from_values(parse_config_text(self.FULL))
        assert cfg.illumination == "divide:0.9,1.0,0.8"
        assert cfg.cluster.initial_k == 2
        assert cfg.cluster.tau_dev == 0.12
        assert cfg.cluster.tau_frac == 0.08
        assert cfg.cluster.min_cluster_size == 64
        assert cfg.cluster.seed == 7
        assert cfg.cluster.max_iterations == 6
        assert cfg.recovery.bin_width == 0.01
        assert cfg.recovery.peak_floor == 9
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
