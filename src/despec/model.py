"""Core color model: unit chromaticities, the illumination direction
they are decomposed against, and white balance.

A pixel's chromaticity is its RGB vector scaled to unit Euclidean norm.
Under a single global illumination color the chromaticity of any mix of
body reflection (material color) and surface reflection (illumination
color) lies in the plane spanned by the material chromaticity and the
illumination chromaticity.  Splitting that plane into the illumination
direction and its orthogonal complement gives coordinates in which pure
materials sit on the unit circle.  A fixed orthonormal frame (u, v) of
that complement turns each material into one hue angle.  The per-pixel
split itself is vectorized in :func:`despec.clustering.split_block`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidIlluminantError

# Intensity norm below which a pixel carries no usable color information.
EPS_BLACK = 1e-6

# Orthogonal residue below which a chromaticity counts as achromatic
# (indistinguishable from the illumination color itself).
EPS_GRAY = 1e-4

# Unit-norm white: equal-energy illumination direction.
WHITE = np.full(3, 1.0 / np.sqrt(3.0))


def _norm3(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, written out so the reduction
    order is fixed regardless of array blocking."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])


@dataclass(frozen=True)
class IlluminationBasis:
    """Unit illumination direction ``d`` plus a fixed right-handed
    orthonormal frame (u, v, d): ``u`` is the axis of d's smallest
    component with d projected out, and ``v = d × u``."""

    direction: np.ndarray
    u: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=np.float64)
        if d.shape != (3,):
            raise InvalidIlluminantError("illumination direction must be a 3-vector")
        if not np.all(np.isfinite(d)):
            raise InvalidIlluminantError("illumination direction has non-finite components")
        n = float(_norm3(d))
        if abs(n - 1.0) > 1e-9:
            raise InvalidIlluminantError(f"illumination direction norm {n!r} is not 1")
        if np.any(d < 0):
            raise InvalidIlluminantError("illumination direction has negative components")
        object.__setattr__(self, "direction", d)
        i = int(np.argmin(d))
        u = np.eye(3)[i] - d[i] * d
        u /= float(_norm3(u))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", np.cross(d, u))

    @classmethod
    def white(cls) -> "IlluminationBasis":
        return cls(WHITE.copy())

    @classmethod
    def from_rgb(cls, rgb) -> "IlluminationBasis":
        """Basis from an (unnormalized) illumination color: its unit
        chromaticity.  A color whose norm is at or below EPS_BLACK has no
        direction and is rejected."""
        rgb = np.asarray(rgb, dtype=np.float64)
        if not np.all(np.isfinite(rgb)):
            raise InvalidIlluminantError("illumination color has non-finite components")
        if np.any(rgb < 0):
            raise InvalidIlluminantError("illumination color has negative components")
        n = float(_norm3(rgb))
        if n <= EPS_BLACK:
            raise InvalidIlluminantError(f"illumination color norm {n:g} is below {EPS_BLACK:g}")
        return cls(rgb / n)

    def orthogonal(self, hue) -> np.ndarray:
        """Unit vector(s) cos(hue)·u + sin(hue)·v; (..., 3) for a hue array."""
        hue = np.asarray(hue, dtype=np.float64)[..., None]
        return np.cos(hue) * self.u + np.sin(hue) * self.v


def white_balance(img, illum) -> np.ndarray:
    """Divide out a non-white illumination color channel-wise.

    After balancing, the effective illumination direction is white.  The
    result is rescaled by the max illumination component so the brightest
    channel keeps its range.  Raises InvalidIlluminantError if any
    component of ``illum`` is zero or negative, or so small against the
    image that the balanced image overflows.
    """
    img = np.asarray(img, dtype=np.float64)
    illum = np.asarray(illum, dtype=np.float64)
    if illum.shape != (3,):
        raise InvalidIlluminantError("illumination color must be a 3-vector")
    if np.any(illum <= 0) or not np.all(np.isfinite(illum)):
        raise InvalidIlluminantError(
            "illumination color must have strictly positive finite components"
        )
    with np.errstate(over="ignore"):
        balanced = img / illum * float(illum.max())
    if not np.all(np.isfinite(balanced)):
        raise InvalidIlluminantError(
            "white balance overflows: the balanced image has non-finite values")
    return balanced
