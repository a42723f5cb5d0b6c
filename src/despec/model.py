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

import math
import sys
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


# the largest sample whose pixel norm, a root of three squares summed in
# float64 by _norm3, cannot overflow; max / 3 rounds up, so with all three
# channels at sqrt(max / 3) the sum of squares would, and one step below
# it does not
MAX_SAMPLE = math.nextafter((sys.float_info.max / 3.0) ** 0.5, 0.0)


def _norm3(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, written out so the reduction
    order is fixed regardless of array blocking."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])


def color_vector(values, what: str, error: type[Exception]) -> np.ndarray:
    """Numeric ``values`` as a float64 3-vector; ``error`` unless they are
    three finite, nonnegative numbers.  Any rule on the norm is the caller's."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (3,) or not (np.all(np.isfinite(v)) and np.all(v >= 0)):
        raise error(f"{what} must be 3 numbers, none negative or non-finite, got {values!r}")
    return v


def direction(values, what: str, error: type[Exception]) -> np.ndarray:
    """Color ``values`` scaled to unit norm at any scale, with no warning;
    ``error`` unless they are a color vector (``color_vector``) that is not
    all zero.  A norm that overflows, or whose squares lose precision
    (below 1e-150), is taken of the color over its largest component."""
    v = color_vector(values, what, error)
    if not v.any():
        raise error(f"{what} {values!r} is black")
    with np.errstate(over="ignore"):
        n = float(_norm3(v))
    if not 1e-150 <= n < math.inf:
        v = v / v.max()
        n = float(_norm3(v))
    return v / n


@dataclass(frozen=True)
class IlluminationBasis:
    """Unit illumination direction ``d`` plus a fixed right-handed
    orthonormal frame (u, v, d): ``u`` is the axis of d's smallest
    component with d projected out, and ``v = d × u``."""

    direction: np.ndarray
    u: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = color_vector(self.direction, "illumination direction", InvalidIlluminantError)
        n = float(_norm3(d))
        if abs(n - 1.0) > 1e-9:
            raise InvalidIlluminantError(f"illumination direction norm {n!r} is not 1")
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
        """Basis from an illumination color at any scale: its unit
        chromaticity (``direction``).  InvalidIlluminantError unless the
        color is a color vector that is not all zero."""
        return cls(direction(rgb, "illumination color", InvalidIlluminantError))

    def orthogonal(self, hue) -> np.ndarray:
        """Unit vector(s) cos(hue)·u + sin(hue)·v; (..., 3) for a hue array."""
        hue = np.asarray(hue, dtype=np.float64)[..., None]
        return np.cos(hue) * self.u + np.sin(hue) * self.v


def white_balance(img, illum) -> np.ndarray:
    """Divide out a non-white illumination color channel-wise.

    After balancing, the effective illumination direction is white.  The
    result is rescaled by the max illumination component so the brightest
    channel keeps its range.  Raises InvalidIlluminantError unless
    ``illum`` is a color vector (``color_vector``) with no zero component,
    or if one is so small against the image that the balanced image
    overflows or holds a sample above MAX_SAMPLE, whose pixel norm would.
    """
    img = np.asarray(img, dtype=np.float64)
    illum = color_vector(illum, "illumination color", InvalidIlluminantError)
    if not np.all(illum > 0):
        raise InvalidIlluminantError("illumination color must have no zero component")
    with np.errstate(over="ignore"):
        balanced = img / illum * float(illum.max())
    if not balanced.max(initial=0.0) <= MAX_SAMPLE:  # inf, or a norm that overflows
        raise InvalidIlluminantError(
            "white balance overflows: the balanced image has non-finite values "
            f"or samples above {MAX_SAMPLE:.6g}")
    return balanced
