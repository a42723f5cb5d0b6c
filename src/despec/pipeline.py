"""End-to-end highlight removal: optional white balance, adaptive
material clustering, per-cluster model estimation, per-pixel separation.

One entry point, :func:`run`.  With ``fast`` set it estimates clusters
and material models on a box-downsampled copy; the full-resolution image
is then read once, by the chunked separation kernel, which labels each
pixel with its nearest center hue and splits it in the same pass.  The
separation is where the output quality lives.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from ._keyvalue import key_values, numbers, read_text
from ._parallel import run_rows
from .clustering import ClusterConfig, FitDiagnostics, adaptive_cluster, specular_free_field
from .errors import ConfigError
from .model import MAX_SAMPLE, IlluminationBasis, white_balance
from .recovery import SeparationResult, estimate_models, separate_image, working_image


FAST_MIN_EDGE = 8  # --fast keeps at least this many pixels on the copy's short side
TARGET_EDGE = 200  # --fast brings the copy's long side to at most this many pixels


@dataclass
class PipelineConfig:
    """Knobs for the full pipeline.

    ``illumination`` accepts "white" (input already balanced), "r,g,b"
    (use that chromaticity as the illumination direction), or
    "divide:r,g,b" (channel-wise white balance first, then treat the
    illumination as white).
    """

    illumination: str = "white"
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    fast: bool = False
    threads: int = 0  # 0 = every CPU this process may run on


@dataclass(frozen=True)
class PipelineDiagnostics:
    """One run: the seconds of each stage of :func:`run`, in order, and the
    final clusters' fit check, with its adaptive rounds in ``fit.rounds``."""

    stages: dict
    fit: FitDiagnostics
    n_clusters: int
    n_passthrough: int
    downsampled: bool
    labels: np.ndarray  # (H, W) per-pixel cluster labels

    @property
    def k_history(self) -> list[int]:
        return [r["k"] for r in self.fit.rounds]

    @property
    def clustering_seconds(self) -> float:
        return sum(self.stages[name] for name in ("downsample", "field", "cluster"))

    @property
    def total_seconds(self) -> float:  # every stage after input validation
        return sum(seconds for name, seconds in self.stages.items() if name != "validate")

    def to_lines(self) -> list[str]:
        def per_round(key):
            return ",".join(str(r[key]) for r in self.fit.rounds)

        return [
            f"iterations = {len(self.fit.rounds)}",
            f"converged = {str(self.fit.converged).lower()}",
            f"clusters = {self.n_clusters}",
            f"passthrough_clusters = {self.n_passthrough}",
            f"total_fit_error = {self.fit.total_error:.6g}",
            f"k_history = {per_round('k')}",
            f"lloyd_iterations = {per_round('lloyd_iterations')}",
            f"clustering_seconds = {self.clustering_seconds:.6f}",
            f"total_seconds = {self.total_seconds:.6f}",
            f"downsampled = {str(self.downsampled).lower()}",
            f"failing_clusters = {per_round('failing')}",
        ] + [f"stage_{name}_seconds = {seconds:.6f}" for name, seconds in self.stages.items()]


def parse_illumination(spec: str) -> tuple[IlluminationBasis, tuple[float, ...] | None]:
    """Resolve an illumination spec into (basis, divide-color-or-None)."""
    spec = spec.strip()
    if spec == "white":
        return IlluminationBasis.white(), None
    if spec.startswith("divide:"):
        rgb = numbers(spec[len("divide:"):], 3, "illumination", ConfigError)
        return IlluminationBasis.white(), rgb
    return IlluminationBasis.from_rgb(numbers(spec, 3, "illumination", ConfigError)), None


def _validate_input(img: np.ndarray, threads: int) -> np.ndarray:
    img = working_image(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) image, got shape {img.shape}")
    if img.size == 0:
        raise ValueError(f"input image is empty, got shape {img.shape}")
    # both bounds of each row chunk while it is in cache, on ``threads``
    # workers of the reused pool; NaN or inf in the image shows up in
    # them, and np.min/np.max pass a NaN on
    bounds = np.array(run_rows(lambda rows: (img[rows].min(), img[rows].max()),
                               img.shape[0], threads))
    lo, hi = np.min(bounds[:, 0]), np.max(bounds[:, 1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("input image contains non-finite values")
    if lo < 0:
        raise ValueError("linear-light input must be nonnegative")
    if float(hi) > MAX_SAMPLE:  # in float64: MAX_SAMPLE overflows float32
        raise ValueError(f"input sample {hi:.6g} overflows the pixel norm; "
                         f"samples must be at most {MAX_SAMPLE:.6g}")
    return img


def box_downsample(img: np.ndarray, factor: int, threads: int = 1) -> np.ndarray:
    """Box-average over factor x factor blocks, cropping any remainder.

    Output rows are filled in threaded chunks.  Within a chunk the slabs
    are summed one at a time, in row-major block order, into a
    channel-planar (rows, 3, W / factor) buffer, so each add runs along
    a whole output row.  That gives the same bits as
    ``mean(axis=(1, 3))`` over the blocked view without its strided
    reduction, for any thread count.
    """
    if factor <= 1:
        return img
    h, w = img.shape[:2]
    hc, wc = (h // factor) * factor, (w // factor) * factor
    block = img[:hc, :wc].reshape(hc // factor, factor, wc // factor, factor, 3)
    total = np.empty((hc // factor, wc // factor, 3))

    def fill(rows):
        # (rows, i, channel, column, j): each slab add runs along a row
        part = block[rows].transpose(0, 1, 4, 2, 3)
        acc = np.empty(part.shape[:1] + part.shape[2:4])
        np.copyto(acc, part[:, 0, :, :, 0])
        for i in range(factor):
            for j in range(factor):
                if i or j:
                    acc += part[:, i, :, :, j]
        np.divide(acc, factor * factor, out=total[rows].transpose(0, 2, 1))

    run_rows(fill, len(total), threads)
    return total


def run(img, cfg: PipelineConfig | None = None
        ) -> tuple[SeparationResult, PipelineDiagnostics]:
    """Separate an image into diffuse and specular parts.

    With ``cfg.fast`` set, the image is box-filtered by the smallest
    integer factor that brings its long side to at most TARGET_EDGE and
    keeps FAST_MIN_EDGE pixels on its short side (factor 1 is the full
    path); clusters and models come from that copy, and the separation
    labels each full-resolution pixel with its nearest center hue as it
    splits it, at full resolution in one pass.

    A float32 image stays float32, any other becomes float64 (see
    ``working_image``).  Returns the separation plus diagnostics.  The
    parts have the working image's dtype (the input after any requested
    white balance, which widens to float64); diffuse + specular equals
    it bit for bit in that dtype, and both parts are nonnegative.
    """
    stages: dict[str, float] = {}
    marks = [time.perf_counter()]

    def lap(stage: str) -> None:  # the seconds since the previous lap
        marks.append(time.perf_counter())
        stages[stage] = marks[-1] - marks[-2]

    cfg = cfg or PipelineConfig()
    _check_config(cfg)
    img = _validate_input(img, cfg.threads)
    basis, divide = parse_illumination(cfg.illumination)
    h, w = img.shape[:2]
    cap = max(1, min(h, w) // FAST_MIN_EDGE)
    factor = min(int(np.ceil(max(h, w) / TARGET_EDGE)), cap) if cfg.fast else 1
    lap("validate")
    if divide is not None:
        img = white_balance(img, divide)
    lap("white_balance")
    small = box_downsample(img, factor, cfg.threads)
    lap("downsample")
    field = specular_free_field(small, basis, threads=cfg.threads)
    lap("field")
    clusters, fit = adaptive_cluster(field, cfg.cluster)
    lap("cluster")
    models = estimate_models(field, clusters, basis)
    lap("models")
    labels = field.label_map(clusters.labels) if factor == 1 else None
    del small, field  # not read again; free them before the full-resolution pass
    lap("label_map")
    result = separate_image(img, clusters, models, basis, threads=cfg.threads, labels=labels)
    lap("separate")
    return result, PipelineDiagnostics(
        stages=stages, fit=fit, n_clusters=clusters.n_clusters,
        n_passthrough=sum(1 for m in models.values() if m is None),
        downsampled=factor > 1, labels=result.labels)


# --- the pipeline's knobs: one table row each ---

def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


@dataclass(frozen=True)
class Option:
    """One pipeline knob.

    ``key`` names it in config files; its flag is ``--`` plus the key with
    ``_`` turned into ``-``.  ``target`` is its place in PipelineConfig
    ("field" or "section.field").  ``parse`` turns text into a value and
    raises ValueError on malformed text; ``kind`` names what it accepts.
    With ``lo`` set, a value below ``lo`` or NaN is rejected.
    """

    key: str
    target: str
    parse: Callable[[str], object]
    kind: str
    help: str
    metavar: str | None = None
    lo: float | None = None

    @property
    def switch(self) -> bool:
        """A boolean knob is a bare flag: giving it turns the knob on."""
        return self.parse is _parse_bool

    def locate(self, cfg: PipelineConfig) -> tuple[object, str]:
        """(object holding the field, field name) inside ``cfg``."""
        section, _, name = self.target.rpartition(".")
        return (getattr(cfg, section) if section else cfg), name


OPTIONS = (
    Option("illum", "illumination", str, "illumination",
           "illumination: 'white', 'r,g,b', or 'divide:r,g,b'", "SPEC"),
    Option("initial_k", "cluster.initial_k", int, "integer",
           f"starting cluster count (default {ClusterConfig.initial_k})", "K", lo=1),
    Option("tau_dev", "cluster.tau_dev", float, "number",
           f"per-pixel unit-circle deviation threshold (default {ClusterConfig.tau_dev})",
           "T", lo=0),
    Option("fast", "fast", _parse_bool, "boolean",
           "estimate clusters/models on a downsampled copy"),
    Option("threads", "threads", int, "integer",
           "worker cap; 0 = every CPU this process may run on (default)", "N", lo=0),
)
_OPTION_BY_KEY = {opt.key: opt for opt in OPTIONS}


def _check_config(cfg: PipelineConfig) -> None:
    """Reject out-of-range knobs before any work starts."""
    for opt in OPTIONS:
        value = getattr(*opt.locate(cfg))
        if opt.lo is not None and not value >= opt.lo:
            raise ConfigError(f"{opt.key} must be >= {opt.lo:g}, got {value!r}")


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines (# comments allowed) into raw strings."""
    values: dict = {}
    for lineno, key, value in key_values(text, ConfigError):
        if key not in _OPTION_BY_KEY:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def config_from_values(values: dict, base: PipelineConfig | None = None) -> PipelineConfig:
    """Apply raw config strings, keyed by option key, on top of a base
    PipelineConfig.  The base is not modified."""
    cfg = base or PipelineConfig()
    cfg = replace(cfg, cluster=replace(cfg.cluster))
    for key, text in values.items():
        opt = _OPTION_BY_KEY.get(key)
        if opt is None:
            raise ConfigError(f"unknown key {key!r}")
        try:
            value = opt.parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad {opt.kind} for {key}: {text!r}") from exc
        setattr(*opt.locate(cfg), value)
    return cfg


def load_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    return config_from_values(parse_config_text(read_text(path, ConfigError, "config")), base)
