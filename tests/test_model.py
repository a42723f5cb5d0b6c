"""Unit chromaticity and the illumination-frame decomposition.

Expected values were computed independently with plain vector arithmetic
(norms, dot products, Gram-Schmidt) and frozen here as literals.  The
decomposition is checked through the kernels the pipeline runs:
``specular_free_field`` for a chromaticity's orthogonal direction and
achromatic flag, ``_cluster_residuals`` for its unit-circle residual in a
(material, illumination) frame.
"""

import numpy as np
import pytest

from despec import errors
from despec.clustering import (
    FLAG_ACHROMATIC,
    FLAG_VALID,
    _cluster_residuals,
    specular_free_field,
)
from despec.model import (
    EPS_BLACK,
    EPS_GRAY,
    WHITE,
    IlluminationBasis,
    l2_chromaticity,
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


class TestL2Chromaticity:
    def test_two_two_one(self):
        c = l2_chromaticity([2.0, 2.0, 1.0])
        assert np.allclose(c, [0.6667, 0.6667, 0.3333], atol=5e-5)
        assert np.allclose(c, OLIVE_CHROMA, atol=1e-15)

    def test_equal_channels_give_white(self):
        assert np.allclose(l2_chromaticity([5.0, 5.0, 5.0]),
                           [0.5774, 0.5774, 0.5774], atol=5e-5)

    def test_zero_vector_rejected(self):
        with pytest.raises(errors.BlackPixelError):
            l2_chromaticity([0.0, 0.0, 0.0])

    def test_near_black_rejected(self):
        v = np.full(3, EPS_BLACK / 10)
        with pytest.raises(errors.BlackPixelError):
            l2_chromaticity(v)

    def test_unit_norm_and_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            v = rng.random(3) + 1e-3
            c = l2_chromaticity(v)
            assert abs(np.linalg.norm(c) - 1.0) <= 1e-12
            for k in (1e-4, 0.3, 7.0, 1e5):
                assert np.allclose(l2_chromaticity(k * v), c, atol=1e-12)


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

    def test_constructor_requires_unit_norm(self):
        with pytest.raises(errors.InvalidIlluminantError):
            IlluminationBasis(np.array([1.0, 1.0, 1.0]))

    def test_constructor_requires_3_vector(self):
        with pytest.raises(errors.InvalidIlluminantError):
            IlluminationBasis(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(errors.InvalidIlluminantError):
            IlluminationBasis.from_rgb([bad, 1.0, 1.0])
        with pytest.raises(errors.InvalidIlluminantError):
            IlluminationBasis(np.array([bad, 0.0, 0.0]))


def frame(chroma, basis):
    """Flags, orthogonal directions and (ortho, parallel) coordinates of
    (N, 3) unit chromaticities, each against its own orthogonal direction
    as specular_free_field computes it."""
    chroma = np.atleast_2d(chroma)
    field = specular_free_field(chroma[:, None, :], basis)
    dirs = field.directions[:, 0]
    return field.flags[:, 0], dirs, (chroma * dirs).sum(axis=1), basis.parallel_coeff(chroma)


def residual(chroma, center, basis):
    """Unit-circle residual of (N, 3) chromaticities in one center's frame."""
    chroma = np.atleast_2d(chroma)
    field = specular_free_field(chroma[:, None, :], basis)
    labels = np.zeros((len(chroma), 1), dtype=np.int32)
    dev, _, _ = _cluster_residuals(field, labels, np.asarray(center)[None])
    return dev


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
        flags, dirs, _, _ = frame(WHITE, white)
        assert flags[0] == FLAG_ACHROMATIC
        assert np.all(dirs[0] == 0.0)

    def test_nearly_gray_is_achromatic(self, white):
        chroma = l2_chromaticity(WHITE + EPS_GRAY * 1e-2 * np.array([1.0, -1.0, 0.0]))
        flags, _, _, _ = frame(chroma, white)
        assert flags[0] == FLAG_ACHROMATIC

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
            gammas = white.parallel_coeff(mixed)
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
