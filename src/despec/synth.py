"""Synthetic scenes with exact ground truth.

A scene is one parametric record, ``SceneParams`` (layout, material and
illumination colors at any scale, highlight lobes, shading ramp), that
can be serialized as a plain-text key/value file that parses back to
the same bits.  ``render`` alone checks it and renders it into the input
and its ground-truth diffuse, specular and label maps.  Every built-in
scene keeps highlight-free margins around each lobe so each material has
pure body-reflection pixels, which the recovery stage depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._keyvalue import key_values, numbers, read_text, write_text
from .errors import InvalidSceneError, UnknownSceneError
from .model import WHITE, _norm3, direction

# Orthonormal hue plane perpendicular to white; used to place synthetic
# material colors at controlled angular spacing.
HUE_AXIS_1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
HUE_AXIS_2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)

# Saturation (orthogonal coordinate) used by the multi-material scenes;
# high enough that two materials 90 degrees apart in hue can never hide
# inside one cluster of the 0.1-deviation fit check.
DEFAULT_SATURATION = 0.55

# Single-material scene colors: a strongly colored, a medium, and a
# near-illumination ("almost white") chromaticity.
SINGLE_COLORS = (
    (0.7053, 0.7053, 0.0705),
    (0.6667, 0.6667, 0.3333),
    (0.5965, 0.5965, 0.5369),
)

_CUTOFF = float(np.exp(-4.5))  # lobe support ends at 3 sigma exactly


def hue_chromaticity(angle_deg: float, saturation: float = DEFAULT_SATURATION) -> np.ndarray:
    """Unit chromaticity at a given hue angle and saturation.

    The angle walks the plane orthogonal to white; saturation is the
    orthogonal coordinate, so all channels stay nonnegative for
    saturation up to ~0.59.
    """
    phi = np.deg2rad(angle_deg)
    u = np.cos(phi) * HUE_AXIS_1 + np.sin(phi) * HUE_AXIS_2
    v = saturation * u + np.sqrt(1.0 - saturation * saturation) * WHITE
    return v / float(_norm3(v))


@dataclass
class SceneParams:
    """Parametric scene description; serializable as key/value text."""

    name: str = "custom"
    width: int = 320
    height: int = 240
    layout: str = "stripes"                 # "stripes" | "quadrants"
    illumination: tuple = (1.0, 1.0, 1.0)   # unnormalized illumination color
    materials: list = field(default_factory=list)   # list of RGB triples
    diffuse_range: tuple = (0.45, 0.75)     # shading ramp, left to right
    lobes: list = field(default_factory=list)  # (cx, cy, sigma, amplitude)

    def to_text(self) -> str:
        def floats(values):  # at repr precision, so they parse back to the same bits
            return " ".join("%r" % float(x) for x in values)

        lines = [
            "# despec scene description",
            f"scene = {self.name}",
            f"width = {self.width}",
            f"height = {self.height}",
            f"layout = {self.layout}",
            f"illumination = {floats(self.illumination)}",
            f"diffuse_range = {floats(self.diffuse_range)}",
        ]
        lines += [f"material = {floats(m)}" for m in self.materials]
        lines += [f"lobe = {floats(lb)}" for lb in self.lobes]
        return "\n".join(lines) + "\n"


@dataclass
class GroundTruth:
    input: np.ndarray
    diffuse: np.ndarray
    specular: np.ndarray
    labels: np.ndarray


def _builtin_table() -> dict:
    singles = {
        f"single-{i + 1}": SceneParams(
            name=f"single-{i + 1}",
            width=320,
            height=240,
            layout="stripes",
            materials=[SINGLE_COLORS[i]],
            lobes=[(0.5, 0.5, 0.10, 0.40)],
        )
        for i in range(3)
    }
    four = SceneParams(
        name="four-materials",
        width=650,
        height=450,
        layout="quadrants",
        materials=[tuple(hue_chromaticity(a)) for a in (45.0, 135.0, 225.0, 315.0)],
        lobes=[
            (0.25, 0.25, 0.06, 0.45),
            (0.75, 0.25, 0.06, 0.45),
            (0.25, 0.75, 0.06, 0.45),
            (0.75, 0.75, 0.06, 0.45),
        ],
    )
    overseg = SceneParams(
        name="over-seg",
        width=500,
        height=300,
        layout="stripes",
        materials=[tuple(hue_chromaticity(a)) for a in (18.0, 90.0, 162.0, 234.0, 306.0)],
        lobes=[(0.1 + 0.2 * i, 0.5, 0.08, 0.45) for i in range(5)],
    )
    table = dict(singles)
    table["four-materials"] = four
    table["over-seg"] = overseg
    return table


BUILTIN_SCENES = tuple(sorted(_builtin_table()))


def builtin_scene(name: str, width: int | None = None, height: int | None = None) -> SceneParams:
    """Builtin scene ``name``'s description, with ``width``/``height`` if given."""
    table = _builtin_table()
    if name not in table:
        raise UnknownSceneError(
            f"unknown scene {name!r}; built-ins: {', '.join(BUILTIN_SCENES)}"
        )
    params = table[name]
    if width is not None:
        params.width = int(width)
    if height is not None:
        params.height = int(height)
    return params


def render(params: SceneParams) -> GroundTruth:
    """Render a scene description into input + ground-truth components.

    input = ramp * material + lobes * illumination, pixel by pixel, each
    color scaled to unit norm by ``model.direction``; labels are the
    material map.  This is the one check of a description, built or
    parsed: InvalidSceneError for any value that does not render.
    """
    w, h = int(params.width), int(params.height)
    if w < 4 or h < 4:
        raise InvalidSceneError(f"scene size {w}x{h} is too small")
    if not params.materials:
        raise InvalidSceneError("scene needs at least one material")

    mats = np.array([direction(m, "material color", InvalidSceneError)
                     for m in params.materials])
    illum = direction(params.illumination, "illumination color", InvalidSceneError)

    n_mat = len(mats)
    xs = np.arange(w)
    ys = np.arange(h)
    if params.layout == "stripes":
        material_map = np.broadcast_to(
            np.minimum(xs * n_mat // w, n_mat - 1)[None, :], (h, w)
        ).astype(np.int32, order="C")
    elif params.layout == "quadrants":
        col = (xs * 2 // w)[None, :]
        row = (ys * 2 // h)[:, None]
        material_map = ((row * 2 + col) % n_mat).astype(np.int32)
    else:
        raise InvalidSceneError(f"unknown layout {params.layout!r}")

    lo, hi = params.diffuse_range
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo < 0 or hi < 0:
        raise InvalidSceneError(f"bad diffuse range {params.diffuse_range!r}")
    ramp = lo + (hi - lo) * (xs / max(w - 1, 1))

    specular_mag = np.zeros((h, w), dtype=np.float64)
    gx = xs[None, :].astype(np.float64)
    gy = ys[:, None].astype(np.float64)
    for lb in params.lobes:
        cx, cy, sigma, amp = (float(q) for q in lb)
        if not np.all(np.isfinite([cx, cy, sigma, amp])) or sigma <= 0 or amp < 0:
            raise InvalidSceneError(f"bad lobe {lb!r}")
        s_px = sigma * min(w, h)
        d2 = (gx - cx * w) ** 2 + (gy - cy * h) ** 2
        bump = (np.exp(-d2 / (2.0 * s_px * s_px)) - _CUTOFF) / (1.0 - _CUTOFF)
        specular_mag += amp * np.clip(bump, 0.0, None)

    diffuse = ramp[None, :, None] * mats[material_map]
    specular = specular_mag[..., None] * illum
    return GroundTruth(input=diffuse + specular, diffuse=diffuse, specular=specular,
                       labels=material_map)


def add_noise(gt: GroundTruth, sigma: float, seed: int = 0) -> np.ndarray:
    """Input image plus Gaussian noise of standard deviation sigma/255.

    Uses a counter-based generator keyed on the seed, so the noise field
    for a given seed and shape is reproducible regardless of how the
    caller parallelizes.  Negative results are clipped to zero (sensors
    do not report negative energy); values above 1 are left alone.
    """
    if not (np.isfinite(sigma) and sigma >= 0):
        raise InvalidSceneError(f"noise sigma must be finite and nonnegative, got {sigma!r}")
    if sigma == 0:
        return gt.input.copy()
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    noisy = gt.input + rng.normal(0.0, sigma / 255.0, size=gt.input.shape)
    return np.clip(noisy, 0.0, None)


# --- plain-text scene description files ---

def scene_from_text(text: str) -> SceneParams:
    """Parse the key/value scene grammar.

    Lines are ``key = value``; ``#`` starts a comment; repeated
    ``material`` / ``lobe`` keys append.  A ``scene = <builtin-name>``
    line pulls that scene's defaults, which later keys override.  It only
    parses: InvalidSceneError for a line, key, integer or count of
    numbers it cannot read, UnknownSceneError for an unknown base scene;
    ``render`` checks every value (custom scenes must list materials).
    """
    params: SceneParams | None = None
    pending: dict = {}
    materials: list = []
    lobes: list = []

    for lineno, key, value in key_values(text, InvalidSceneError):
        if key == "scene":
            params = builtin_scene(value) if value != "custom" else SceneParams()
        elif key in ("width", "height"):
            try:
                pending[key] = int(value)
            except ValueError as exc:
                raise InvalidSceneError(f"bad integer for {key}: {value!r}") from exc
        elif key == "layout":
            pending[key] = value
        elif key == "illumination":
            pending[key] = numbers(value, 3, key, InvalidSceneError)
        elif key == "diffuse_range":
            pending[key] = numbers(value, 2, key, InvalidSceneError)
        elif key == "material":
            materials.append(numbers(value, 3, key, InvalidSceneError))
        elif key == "lobe":
            lobes.append(numbers(value, 4, key, InvalidSceneError))
        else:
            raise InvalidSceneError(f"line {lineno}: unknown key {key!r}")

    if params is None:
        params = SceneParams()
    for key, value in pending.items():
        setattr(params, key, value)
    if materials:
        params.materials = materials
    if lobes:
        params.lobes = lobes
    return params


def load_scene(path) -> SceneParams:
    return scene_from_text(read_text(path, InvalidSceneError, "scene"))


def save_scene(params: SceneParams, path) -> None:
    write_text(path, params.to_text())
