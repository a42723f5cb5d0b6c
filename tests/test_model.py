"""Unit chromaticity and the illumination-frame decomposition.

Expected values were computed independently with plain vector arithmetic
(norms, dot products, Gram-Schmidt) and frozen here as literals.  The
decomposition is checked through the kernels the pipeline runs:
``specular_free_field`` for a chromaticity's hue angle (its orthogonal
direction is ``basis.orthogonal(hue)``) and achromatic flag,
``_cluster_residuals`` for its unit-circle residual in a (material,
illumination) frame.  Unit chromaticities of test colors come from
``IlluminationBasis.from_rgb``, which scales an illumination color to
unit Euclidean norm.
"""

import warnings

import numpy as np
import pytest

from conftest import parallel_coeff, row_major
from despec import errors
from despec.clustering import (
    FLAG_VALID,
    LABEL_ACHROMATIC,
    _cluster_residuals,
    specular_free_field,
    split_block,
)
from despec.model import (
    EPS_BLACK,
    EPS_GRAY,
    WHITE,
    IlluminationBasis,
    color_vector,
    white_balance,
)

# chromaticity of (2, 2, 1): exact thirds
OLIVE_CHROMA = np.array([2.0, 2.0, 1.0]) / 3.0
# its decomposition against white illumination
OLIVE_PARALLEL = 0.9622504486493764
OLIVE_ORTHO = 0.2721655269759087
OLIVE_DIR = np.array([0.4082482904638624, 0.4082482904638624, -0.8164965809277266])
# chromaticity of (1, 2, 3) and its coordinates in the olive frame
N123 = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
N123_PARALLEL = 0.9258200997725516
N123_ORTHO_NORM = 0.37796447300922686
N123_ON_OLIVE_DIR = -0.32732683535398954


@pytest.fixture
def white():
    return IlluminationBasis.white()


def l2_chromaticity(v):
    """Unit-Euclidean-norm chromaticity of an RGB vector, as from_rgb takes it."""
    return IlluminationBasis.from_rgb(v).direction


class TestL2Chromaticity:
    """The unit chromaticity IlluminationBasis.from_rgb takes of a color."""

    def test_two_two_one(self):
        c = l2_chromaticity([2.0, 2.0, 1.0])
        assert np.allclose(c, [0.6667, 0.6667, 0.3333], atol=5e-5)
        assert np.allclose(c, OLIVE_CHROMA, atol=1e-15)

    def test_equal_channels_give_white(self):
        assert np.allclose(l2_chromaticity([5.0, 5.0, 5.0]),
                           [0.5774, 0.5774, 0.5774], atol=5e-5)

    def test_zero_vector_rejected(self):
        with pytest.raises(errors.InvalidIlluminantError, match="illumination color norm 0"):
            IlluminationBasis.from_rgb([0.0, 0.0, 0.0])

    def test_near_black_rejected(self):
        v = np.full(3, EPS_BLACK / 10)
        with pytest.raises(errors.InvalidIlluminantError, match="illumination color norm"):
            IlluminationBasis.from_rgb(v)

    @pytest.mark.filterwarnings("error")
    def test_unit_norm_and_scale_invariance(self):
        """At any scale, a norm that overflows (1e300) included."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            v = rng.random(3) + 1e-3
            c = l2_chromaticity(v)
            assert abs(np.linalg.norm(c) - 1.0) <= 1e-12
            for k in (1e-4, 0.3, 7.0, 1e5, 1e300):
                assert np.allclose(l2_chromaticity(k * v), c, atol=1e-12)


class TestColorVector:
    """The one check of a color vector, shared by the model and the scenes."""

    def test_returns_a_float64_3_vector(self):
        v = color_vector([1, 0, 2], "color", errors.ConfigError)
        assert v.dtype == np.float64 and v.tolist() == [1.0, 0.0, 2.0]

    @pytest.mark.parametrize("bad", [[1.0, 1.0], [[1.0, 1.0, 1.0]], [np.nan, 1.0, 1.0],
                                     [1.0, np.inf, 1.0], [1.0, 1.0, -np.inf], [1.0, -0.5, 1.0]])
    def test_raises_the_callers_error(self, bad):
        with pytest.raises(errors.ConfigError, match="shade must be 3 numbers"):
            color_vector(bad, "shade", errors.ConfigError)

    def test_no_norm_no_warning(self):
        """Huge components pass without a norm taken, so nothing overflows."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert color_vector([1e300, 1e300, 1.0], "c", errors.ConfigError)[0] == 1e300


class TestIlluminationBasis:
    def test_white(self, white):
        assert np.allclose(white.direction, WHITE, atol=0)

    def test_from_rgb_normalizes(self):
        basis = IlluminationBasis.from_rgb([2.0, 1.0, 1.0])
        assert np.allclose(basis.direction, np.array([2.0, 1.0, 1.0]) / np.sqrt(6.0),
                           atol=1e-15)

    def test_from_rgb_rejects_negative(self):
        with pytest.raises(errors.InvalidIlluminantError):
            IlluminationBasis.from_rgb([0.5, -0.1, 0.5])

    def test_constructor_rejects_negative(self):
        with pytest.raises(errors.InvalidIlluminantError, match="negative"):
            IlluminationBasis(np.array([0.6, -0.8, 0.0]))

    def test_constructor_requires_unit_norm(self):
        with pytest.raises(errors.InvalidIlluminantError):
            IlluminationBasis(np.array([1.0, 1.0, 1.0]))

    def test_constructor_requires_3_vector(self):
        with pytest.raises(errors.InvalidIlluminantError):
            IlluminationBasis(np.array([1.0, 0.0]))
        with pytest.raises(errors.InvalidIlluminantError):
            IlluminationBasis.from_rgb([1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(errors.InvalidIlluminantError):
            IlluminationBasis.from_rgb([bad, 1.0, 1.0])
        with pytest.raises(errors.InvalidIlluminantError):
            IlluminationBasis(np.array([bad, 0.0, 0.0]))

    @pytest.mark.parametrize("rgb", [[1.0, 1.0, 1.0], [0.600, 0.588, 0.542]])
    def test_frame_is_orthonormal_and_right_handed(self, rgb):
        basis = IlluminationBasis.from_rgb(rgb)
        frame3 = np.stack([basis.u, basis.v, basis.direction])
        assert np.abs(frame3 @ frame3.T - np.eye(3)).max() <= 1e-12
        assert np.abs(np.cross(basis.u, basis.v) - basis.direction).max() <= 1e-12

    def test_orthogonal_is_the_frame_circle(self, white):
        assert np.array_equal(white.orthogonal(0.0), white.u)
        hues = np.linspace(-np.pi, np.pi, 12).reshape(3, 4)
        dirs = white.orthogonal(hues)
        assert dirs.shape == (3, 4, 3)
        assert np.abs(np.linalg.norm(dirs, axis=-1) - 1.0).max() <= 1e-12
        assert np.abs(dirs @ white.direction).max() <= 1e-12

    def test_frame_is_not_settable(self, white):
        with pytest.raises(TypeError):
            IlluminationBasis(WHITE.copy(), u=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(AttributeError):
            white.u = np.array([1.0, 0.0, 0.0])


def frame(chroma, basis):
    """Flags, orthogonal directions and (ortho, parallel) coordinates of
    (N, 3) unit chromaticities, each against its own orthogonal direction
    basis.orthogonal(hue) with the hue that specular_free_field computes."""
    chroma = np.atleast_2d(chroma)
    field = specular_free_field(chroma[:, None, :], basis)
    dirs = basis.orthogonal(row_major(field, field.hue))
    return field.flags[:, 0], dirs, (chroma * dirs).sum(axis=1), parallel_coeff(chroma, basis)


def residual(chroma, center, basis):
    """Unit-circle residual of (N, 3) chromaticities in the frame of one
    unit center direction orthogonal to the illumination.  The hue and
    amplitude are split_block's coordinates of every pixel, so a
    chromaticity the pipeline flags as achromatic still gets one."""
    hue, amplitude, _ = split_block(np.atleast_2d(chroma), basis)
    center_hue = np.arctan2(center @ basis.v, center @ basis.u)
    return _cluster_residuals(np.cos(hue), np.sin(hue), amplitude, center_hue)


class TestDecompose:
    """The illumination-parallel / orthogonal split of a chromaticity."""

    def test_olive_example(self, white):
        flags, dirs, ortho, parallel = frame(OLIVE_CHROMA, white)
        assert flags[0] == FLAG_VALID
        assert parallel[0] == pytest.approx(OLIVE_PARALLEL, abs=1e-12)
        assert ortho[0] == pytest.approx(OLIVE_ORTHO, abs=1e-12)
        assert np.allclose(dirs[0], OLIVE_DIR, atol=1e-12)

    def test_one_two_three_example(self, white):
        _, _, ortho, parallel = frame(l2_chromaticity([1.0, 2.0, 3.0]), white)
        assert parallel[0] == pytest.approx(N123_PARALLEL, abs=1e-12)
        assert ortho[0] == pytest.approx(N123_ORTHO_NORM, abs=1e-12)

    def test_gray_is_achromatic(self, white):
        field = specular_free_field(WHITE[None, None], white)
        assert field.flags[0, 0] == LABEL_ACHROMATIC
        assert len(field.hue) == 0 and len(field.amplitude) == 0

    def test_nearly_gray_is_achromatic(self, white):
        chroma = l2_chromaticity(WHITE + EPS_GRAY * 1e-2 * np.array([1.0, -1.0, 0.0]))
        field = specular_free_field(chroma[None, None], white)
        assert field.flags[0, 0] == LABEL_ACHROMATIC

    def test_pythagorean_and_reconstruction(self, white):
        rng = np.random.default_rng(11)
        chroma = np.array([l2_chromaticity(rng.random(3) + 0.05) for _ in range(300)])
        flags, dirs, ortho, parallel = frame(chroma, white)
        assert np.all(flags == FLAG_VALID)
        assert ortho.min() >= 0.0
        assert np.abs(ortho ** 2 + parallel ** 2 - 1.0).max() <= 1e-9
        rebuilt = ortho[:, None] * dirs + parallel[:, None] * white.direction
        assert np.abs(rebuilt - chroma).max() <= 1e-9
        assert np.abs(dirs @ white.direction).max() <= 1e-9
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-9

    def test_colored_illumination_frame(self):
        basis = IlluminationBasis.from_rgb([0.600, 0.588, 0.542])
        _, dirs, ortho, parallel = frame(OLIVE_CHROMA, basis)
        rebuilt = ortho[0] * dirs[0] + parallel[0] * basis.direction
        assert np.allclose(rebuilt, OLIVE_CHROMA, atol=1e-12)


class TestProjectOnto:
    """A chromaticity placed in a material's (center, illumination) frame,
    as the clustering fit check measures it."""

    def test_own_frame_recovers_decomposition(self, white):
        _, dirs, _, _ = frame(OLIVE_CHROMA, white)
        assert residual(OLIVE_CHROMA, dirs[0], white)[0] == pytest.approx(0.0, abs=1e-12)

    def test_foreign_pixel_goes_negative(self, white):
        _, dirs, _, _ = frame(N123, white)
        assert float(dirs[0] @ OLIVE_DIR) == pytest.approx(
            N123_ON_OLIVE_DIR / N123_ORTHO_NORM, abs=1e-12)
        assert residual(N123, OLIVE_DIR, white)[0] == pytest.approx(1.0 / 28.0, abs=1e-12)

    def test_illumination_pixel_maps_to_0_1(self, white):
        assert residual(WHITE, OLIVE_DIR, white)[0] == pytest.approx(0.0, abs=1e-12)


class TestUnitCircleResidual:
    """Residuals of pixels placed at given (ortho, parallel) coordinates."""

    @staticmethod
    def olive_frame_pixel(ortho, parallel):
        return ortho * OLIVE_DIR + parallel * WHITE

    def test_on_circle(self, white):
        d = residual(self.olive_frame_pixel(OLIVE_ORTHO, OLIVE_PARALLEL), OLIVE_DIR, white)
        assert d[0] == pytest.approx(0.0, abs=1e-12)

    def test_off_circle_value(self, white):
        # normalize(1,2,3) sits off the olive center's axis: 1/7 - 3/28 = 1/28
        d = residual(N123, OLIVE_DIR, white)
        assert d[0] == pytest.approx(1.0 / 28.0, abs=1e-12)

    def test_pure_illumination(self):
        # an axis-aligned frame holds the coordinates (0, 1) exactly
        basis = IlluminationBasis(np.array([0.0, 0.0, 1.0]))
        d = residual(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), basis)
        assert d[0] == pytest.approx(0.0, abs=0)

    def test_monotone_in_specular_strength(self, white):
        """With the body magnitude fixed, growing the highlight moves the
        parallel coefficient up and the orthogonal one down, strictly."""
        rng = np.random.default_rng(5)
        betas = np.linspace(0.0, 2.0, 21)
        for _ in range(20):
            chroma = l2_chromaticity(rng.random(3) + 0.05)
            _, dirs, _, _ = frame(chroma, white)
            mixed = np.array([l2_chromaticity(chroma + b * white.direction) for b in betas])
            gammas = parallel_coeff(mixed, white)
            orthos = mixed @ dirs[0]
            assert np.all(np.diff(gammas) > 0)
            assert np.all(np.diff(orthos) < 0)


class TestWhiteBalance:
    def test_proportional_image_turns_gray(self):
        img = np.broadcast_to([0.6, 0.3, 0.3], (4, 5, 3)).copy()
        out = white_balance(img, l2_chromaticity([2.0, 1.0, 1.0]))
        assert np.allclose(out, 0.6, atol=1e-12)

    def test_white_illumination_is_identity_up_to_scale(self):
        rng = np.random.default_rng(3)
        img = rng.random((6, 7, 3))
        out = white_balance(img, WHITE)
        assert np.allclose(out, img, atol=1e-12)

    def test_max_channel_preserved(self):
        img = np.array([[[0.6, 0.3, 0.3]]])
        out = white_balance(img, np.array([2.0, 1.0, 1.0]))
        # brightest illumination channel is divided by itself
        assert out[0, 0, 0] == pytest.approx(0.6, abs=0)

    def test_zero_channel_rejected(self):
        with pytest.raises(errors.InvalidIlluminantError):
            white_balance(np.ones((2, 2, 3)), np.array([0.5, 0.5, 0.0]))

    def test_negative_channel_rejected(self):
        with pytest.raises(errors.InvalidIlluminantError):
            white_balance(np.ones((2, 2, 3)), np.array([0.5, -0.5, 0.5]))

    def test_shape_checked(self):
        with pytest.raises(errors.InvalidIlluminantError):
            white_balance(np.ones((2, 2, 3)), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("illum", [[1e-320, 1.0, 1.0], [1e300, 1e-300, 1.0],
                                       [1e-200, 1.0, 1.0]])
    def test_overflow_rejected(self, illum):
        """Positive finite components whose quotient overflows: the
        balanced image would hold inf, or samples near 1e200 whose pixel
        norm overflows."""
        with pytest.raises(errors.InvalidIlluminantError, match="non-finite"):
            white_balance(np.full((2, 2, 3), 0.5), np.array(illum))
