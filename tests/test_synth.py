"""Synthetic scene generation, ground truth, and sensor noise."""

from dataclasses import replace

import numpy as np
import pytest

from despec import errors
from despec.model import WHITE
from despec.synth import (
    BUILTIN_SCENES,
    SINGLE_COLORS,
    SceneParams,
    add_noise,
    builtin_scene,
    hue_chromaticity,
    load_scene,
    render,
    save_scene,
    scene_from_text,
)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestHueChromaticity:
    def test_unit_and_nonnegative(self):
        for angle in np.linspace(0.0, 360.0, 17):
            c = hue_chromaticity(angle)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
            assert c.min() >= 0.0

    def test_saturation_is_orthogonal_coordinate(self):
        c = hue_chromaticity(70.0)
        parallel = float(c @ WHITE)
        ortho = np.linalg.norm(c - parallel * WHITE)
        assert ortho == pytest.approx(0.55, abs=1e-12)
        assert parallel == pytest.approx(0.8351646544245033, abs=1e-12)

    def test_angles_are_honored(self):
        a = hue_chromaticity(0.0) - 0.8351646544245033 * WHITE
        b = hue_chromaticity(90.0) - 0.8351646544245033 * WHITE
        assert float(a @ b) == pytest.approx(0.0, abs=1e-12)


class TestBuiltins:
    def test_scene_list(self):
        assert BUILTIN_SCENES == (
            "four-materials", "over-seg", "single-1", "single-2", "single-3")

    def test_unknown_scene(self):
        with pytest.raises(errors.UnknownSceneError):
            builtin_scene("glossy-teapot")

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_single_scene_colors(self, idx):
        gt = render(builtin_scene(f"single-{idx + 1}"))
        assert np.all(gt.labels == 0)
        material = unit(gt.diffuse[0, 0])
        assert np.allclose(material, unit(SINGLE_COLORS[idx]), atol=1e-12)
        assert np.allclose(material, SINGLE_COLORS[idx], atol=5e-5)

    def test_four_materials_quadrant_layout(self):
        labels = render(builtin_scene("four-materials")).labels
        assert labels.shape == (450, 650)
        assert [labels[0, 0], labels[0, -1], labels[-1, 0], labels[-1, -1]] == [0, 1, 2, 3]

    def test_over_seg_stripe_layout(self):
        row = render(builtin_scene("over-seg")).labels[0]
        assert row[0] == 0 and row[99] == 0 and row[100] == 1 and row[-1] == 4
        assert np.all(np.diff(row) >= 0)

    def test_size_override(self):
        params = builtin_scene("single-1", 64, 48)
        assert (params.width, params.height) == (64, 48)
        assert render(params).labels.shape == (48, 64)

    def test_every_material_keeps_highlight_free_pixels(self):
        for name in BUILTIN_SCENES:
            gt = render(builtin_scene(name))
            for m in range(gt.labels.max() + 1):
                mask = (gt.labels == m) & np.all(gt.specular == 0.0, axis=-1)
                assert mask.any(), f"{name}: material {m} has no pure pixels"

    def test_lobes_actually_present(self):
        for name in BUILTIN_SCENES:
            assert np.linalg.norm(render(builtin_scene(name)).specular, axis=-1).max() > 0.1


class TestRender:
    def flat_params(self, m_d, m_s, material):
        """A 4x4 scene of one material at diffuse magnitude m_d whose one
        lobe, centred on pixel (2, 2), gives that pixel exactly m_s."""
        return SceneParams(width=4, height=4, materials=[material],
                           diffuse_range=(m_d, m_d), lobes=[(0.5, 0.5, 0.1, m_s)])

    def test_single_pixel_composition(self):
        mat = unit([0.6667, 0.6667, 0.3333])
        gt = render(self.flat_params(0.6, 0.2, mat))
        expected = 0.6 * mat + 0.2 * WHITE
        assert np.array_equal(gt.input[2, 2], expected)
        # reference triple is quoted to 4 decimals, so allow half a digit
        assert np.abs(gt.input[2, 2] - [0.5155, 0.5155, 0.3155]).max() <= 1e-4

    def test_zero_specular_scene(self):
        gt = render(self.flat_params(0.6, 0.0, [0.7053, 0.7053, 0.0705]))
        assert np.array_equal(gt.input, gt.diffuse)
        assert np.all(gt.specular == 0.0)

    def test_additivity_is_exact(self):
        gt = render(builtin_scene("four-materials", 130, 90))
        assert np.array_equal(gt.input, gt.diffuse + gt.specular)

    def test_labels_match_map(self):
        """Five stripes of 20 columns each over a 100-pixel width."""
        gt = render(builtin_scene("over-seg", 100, 60))
        assert gt.labels.dtype == np.int32
        assert np.array_equal(gt.labels, np.broadcast_to(np.arange(100) // 20, (60, 100)))

    def test_chromaticity_mixing_identity(self):
        """Normalized pixel color must equal the diffuse chromaticity and
        illumination mixed by their magnitude shares."""
        params = builtin_scene("four-materials", 120, 80)
        gt = render(params)
        norm = np.linalg.norm(gt.input, axis=-1)
        chroma = gt.input / norm[..., None]
        mats = np.array([unit(m) for m in params.materials])[gt.labels]
        alpha = np.linalg.norm(gt.diffuse, axis=-1) / norm
        beta = np.linalg.norm(gt.specular, axis=-1) / norm
        mixed = alpha[..., None] * mats + beta[..., None] * WHITE
        assert np.abs(chroma - mixed).max() <= 1e-12

    def test_values_may_exceed_one(self):
        params = SceneParams(materials=[SINGLE_COLORS[0]],
                             diffuse_range=(1.8, 2.0), width=16, height=8)
        gt = render(params)
        assert gt.input.max() > 1.2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e300, 1e-160])
    @pytest.mark.parametrize("which", ["material", "illumination"])
    def test_color_scale_does_not_matter(self, which, scale):
        """A color renders as its direction at any scale, with no warning:
        one whose norm overflows, or whose squares lose precision, gives
        the bytes of the same color at scale 1 when dividing it by its
        largest component is exact."""
        def scene(k):
            params = builtin_scene("single-1", 16, 8)
            if which == "material":
                params.materials = [(k, k / 2, k / 4)]
            else:
                params.illumination = (k, k, k)
            return render(params)

        got, want = scene(scale), scene(1.0)
        for part in ("input", "diffuse", "specular"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part


class TestBuildSceneValidation:
    """``render`` rejects a description that does not render."""

    def test_too_small(self):
        with pytest.raises(errors.InvalidSceneError):
            render(SceneParams(width=3, height=3, materials=[SINGLE_COLORS[0]]))

    def test_no_materials(self):
        with pytest.raises(errors.InvalidSceneError):
            render(SceneParams(materials=[]))

    def test_negative_material(self):
        with pytest.raises(errors.InvalidSceneError):
            render(SceneParams(materials=[(0.5, -0.1, 0.5)]))

    @pytest.mark.parametrize("color", [(0.0, 0.0, 0.0), (0.5, -0.1, 0.5), (np.nan, 1.0, 1.0),
                                       (np.inf, 1.0, 1.0), (1.0, 1.0)])
    @pytest.mark.parametrize("which", ["material", "illumination"])
    def test_bad_color(self, which, color):
        """A black color, or one with a negative, NaN or infinite component
        or not three of them, for a material or the illumination."""
        params = SceneParams(materials=[SINGLE_COLORS[0]])
        if which == "material":
            params.materials = [color]
        else:
            params.illumination = color
        with pytest.raises(errors.InvalidSceneError, match=f"{which} color"):
            render(params)

    @pytest.mark.parametrize("span", [(np.nan, 0.75), (0.45, np.inf), (-0.1, 0.75)])
    def test_bad_diffuse_range(self, span):
        with pytest.raises(errors.InvalidSceneError, match="bad diffuse range"):
            render(SceneParams(materials=[SINGLE_COLORS[0]], diffuse_range=span))

    def test_bad_lobe_sigma(self):
        with pytest.raises(errors.InvalidSceneError):
            render(SceneParams(materials=[SINGLE_COLORS[0]], lobes=[(0.5, 0.5, 0.0, 0.4)]))

    def test_unknown_layout(self):
        with pytest.raises(errors.InvalidSceneError):
            render(SceneParams(materials=[SINGLE_COLORS[0]], layout="blob"))

    def test_shading_ramp_spans_requested_range(self):
        gt = render(SceneParams(materials=[SINGLE_COLORS[1]], width=33, height=8))
        shading = np.linalg.norm(gt.diffuse[0], axis=-1)
        assert shading[0] == pytest.approx(0.45, abs=1e-12)
        assert shading[-1] == pytest.approx(0.75, abs=1e-12)


class TestAddNoise:
    def test_zero_sigma_is_identity_copy(self):
        gt = render(builtin_scene("single-1", 32, 24))
        noisy = add_noise(gt, 0.0)
        assert np.array_equal(noisy, gt.input)
        assert noisy is not gt.input

    def test_sample_std_matches_request(self):
        gt = render(builtin_scene("single-2", 400, 250))
        noisy = add_noise(gt, 3.0, seed=0)
        std = (noisy - gt.input).std()
        assert abs(std - 3.0 / 255.0) <= 0.05 * (3.0 / 255.0)

    def test_deterministic_per_seed(self):
        gt = render(builtin_scene("single-1", 64, 48))
        assert np.array_equal(add_noise(gt, 3.0, seed=7), add_noise(gt, 3.0, seed=7))
        assert not np.array_equal(add_noise(gt, 3.0, seed=7), add_noise(gt, 3.0, seed=8))

    def test_clips_at_zero_only(self):
        dark = SceneParams(materials=[SINGLE_COLORS[1]], width=64, height=48,
                           diffuse_range=(0.0, 0.0), lobes=[(0.5, 0.5, 0.1, 0.4)])
        noisy = add_noise(render(dark), 6.0, seed=0)
        assert noisy.min() == 0.0
        assert (noisy == 0.0).sum() > 0

    def test_leaves_hdr_values_unclipped(self):
        params = SceneParams(materials=[SINGLE_COLORS[0]], width=64, height=48,
                             diffuse_range=(1.8, 2.0))
        noisy = add_noise(render(params), 3.0, seed=0)
        assert noisy.max() > 1.2

    def test_negative_sigma_rejected(self):
        gt = render(builtin_scene("single-1", 16, 8))
        with pytest.raises(errors.InvalidSceneError):
            add_noise(gt, -1.0)


class TestSceneText:
    def test_round_trip_preserves_render(self):
        """The text keeps every float's bits, so each builtin scene's
        description renders to the same arrays once parsed back."""
        for name in BUILTIN_SCENES:
            params = builtin_scene(name, 64, 48)
            parsed = scene_from_text(params.to_text())
            assert parsed == params
            a, b = render(params), render(parsed)
            for part in ("input", "diffuse", "specular", "labels"):
                assert np.array_equal(getattr(a, part), getattr(b, part)), (name, part)

    def test_a_scene_of_its_own_name_round_trips(self):
        """A scene named outside BUILTIN_SCENES is saved as custom, so its
        text loads and renders the same arrays."""
        params = SceneParams(name="tint", width=24, height=16, materials=[(1.0, 0.5, 0.2)],
                             lobes=[(0.5, 0.5, 0.2, 0.4)])
        parsed = scene_from_text(params.to_text())
        assert parsed == replace(params, name="custom")
        a, b = render(params), render(parsed)
        for part in ("input", "diffuse", "specular", "labels"):
            assert np.array_equal(getattr(a, part), getattr(b, part)), part

    @pytest.mark.parametrize("emptied", ["lobes", "materials"])
    def test_a_builtin_scene_with_an_empty_list_round_trips(self, emptied):
        """A builtin-named scene with no lobes, or no materials, is saved as
        custom, as a builtin base would fill the empty list back in."""
        params = replace(builtin_scene("four-materials", 64, 48), **{emptied: []})
        parsed = scene_from_text(params.to_text())
        assert parsed == replace(params, name="custom")

    def test_save_and_load(self, tmp_path):
        params = builtin_scene("single-3", 48, 32)
        path = tmp_path / "scene.txt"
        save_scene(params, path)
        loaded = load_scene(path)
        assert loaded.width == 48 and loaded.height == 32
        assert np.allclose(loaded.materials, params.materials, atol=1e-9)

    def test_save_into_missing_directory_raises_io_failure(self, tmp_path):
        with pytest.raises(errors.IoFailureError, match="cannot write"):
            save_scene(builtin_scene("single-1"), tmp_path / "missing" / "scene.txt")

    def test_custom_scene(self):
        text = """
        # two stripes, one highlight
        scene = custom
        width = 40
        height = 24
        layout = stripes
        material = 0.6667 0.6667 0.3333
        material = 0.7053, 0.7053, 0.0705
        lobe = 0.5 0.5 0.1 0.3
        """
        params = scene_from_text(text)
        assert params.width == 40 and params.height == 24
        assert len(params.materials) == 2
        assert params.materials[1] == (0.7053, 0.7053, 0.0705)
        assert render(params).labels.max() == 1

    def test_builtin_base_with_overrides(self):
        params = scene_from_text("scene = single-2\nwidth = 64\n")
        assert params.width == 64
        assert params.height == 240  # untouched default of the base scene
        assert params.materials == [SINGLE_COLORS[1]]

    def test_no_scene_line_starts_from_custom(self):
        params = scene_from_text("material = 0.4 0.4 0.2\nwidth = 16\n")
        assert params.name == "custom" and params.layout == "stripes"
        assert params.width == 16 and params.materials == [(0.4, 0.4, 0.2)]

    def test_unknown_base_scene(self):
        with pytest.raises(errors.UnknownSceneError):
            scene_from_text("scene = nope\nmaterial = 1 1 1\n")

    @pytest.mark.parametrize("text", [
        "scene = custom\nfoo = 1\nmaterial = 1 1 1\n",
        "scene = custom\nlayout = spiral\nmaterial = 1 1 1\n",
        "scene = custom\n",                          # no materials
        "scene = custom\nmaterial = a b c\n",        # bad number
        "scene = custom\nmaterial = 1 1\n",          # wrong arity
        "scene = custom\nwidth = ten\nmaterial = 1 1 1\n",
        "just some words\n",                         # no key = value shape
    ])
    def test_bad_descriptions(self, text):
        with pytest.raises(errors.InvalidSceneError):
            render(scene_from_text(text))

    @pytest.mark.parametrize("text, message", [
        ("scene = custom\nlayout = spiral\nmaterial = 1 1 1\n", "unknown layout 'spiral'"),
        ("scene = custom\n", "scene needs at least one material"),
    ])
    def test_values_are_checked_by_render_alone(self, text, message):
        """The parser reads these; render rejects them."""
        params = scene_from_text(text)
        with pytest.raises(errors.InvalidSceneError, match=message):
            render(params)

    def test_text_is_commented_key_value(self):
        text = builtin_scene("single-1").to_text()
        assert text.startswith("#")
        assert "scene = single-1" in text
        assert "material = " in text
