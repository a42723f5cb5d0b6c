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
from dataclasses import dataclass, field, replace

import numpy as np

from ._parallel import resolve_threads
from .clustering import ClusterConfig, adaptive_cluster, specular_free_field
from .errors import ConfigError
from .model import IlluminationBasis, white_balance
from .recovery import RecoveryConfig, SeparationResult, estimate_models, separate_image


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
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    fast: bool = False
    target_edge: int = 200
    threads: int = 0  # 0 = all available cores


@dataclass
class PipelineDiagnostics:
    iterations: int
    converged: bool
    n_clusters: int
    n_passthrough: int
    total_fit_error: float
    k_history: list
    clustering_seconds: float
    total_seconds: float
    downsampled: bool = False
    labels: np.ndarray | None = None  # final per-pixel cluster labels

    def to_lines(self) -> list[str]:
        return [
            f"iterations = {self.iterations}",
            f"converged = {str(self.converged).lower()}",
            f"clusters = {self.n_clusters}",
            f"passthrough_clusters = {self.n_passthrough}",
            f"total_fit_error = {self.total_fit_error:.6g}",
            f"k_history = {','.join(str(k) for k in self.k_history)}",
            f"clustering_seconds = {self.clustering_seconds:.6f}",
            f"total_seconds = {self.total_seconds:.6f}",
            f"downsampled = {str(self.downsampled).lower()}",
        ]


def _parse_rgb(text: str, what: str) -> np.ndarray:
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise ConfigError(f"{what} expects three numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"bad number in {what}: {text!r}") from exc


def parse_illumination(spec: str) -> tuple[IlluminationBasis, np.ndarray | None]:
    """Resolve an illumination spec into (basis, divide-color-or-None)."""
    spec = spec.strip()
    if spec == "white":
        return IlluminationBasis.white(), None
    if spec.startswith("divide:"):
        rgb = _parse_rgb(spec[len("divide:"):], "illumination")
        return IlluminationBasis.white(), rgb
    return IlluminationBasis.from_rgb(_parse_rgb(spec, "illumination")), None


def _validate_input(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) image, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("input image contains non-finite values")
    if img.min() < 0:
        raise ValueError("linear-light input must be nonnegative")
    return img


def box_downsample(img: np.ndarray, factor: int) -> np.ndarray:
    """Box-average over factor x factor blocks, cropping any remainder.

    The slabs are summed one at a time in row-major block order, which
    gives the same bits as ``mean(axis=(1, 3))`` over the blocked view
    without its strided reduction.
    """
    if factor <= 1:
        return img
    h, w = img.shape[:2]
    hc, wc = (h // factor) * factor, (w // factor) * factor
    block = img[:hc, :wc].reshape(hc // factor, factor, wc // factor, factor, 3)
    total = block[:, 0, :, 0, :].copy()
    for i in range(factor):
        for j in range(factor):
            if i or j:
                total += block[:, i, :, j, :]
    total /= factor * factor
    return total


def _check_config(cfg: PipelineConfig) -> None:
    """Reject out-of-range knobs before any work starts."""
    c = cfg.cluster
    for key, value, ok, need in (
        ("initial_k", c.initial_k, c.initial_k >= 1, ">= 1"),
        ("max_iterations", c.max_iterations, c.max_iterations >= 1, ">= 1"),
        ("target_edge", cfg.target_edge, cfg.target_edge >= 1, ">= 1"),
        ("bin_width", cfg.recovery.bin_width, 1e-4 <= cfg.recovery.bin_width <= 1,
         "in [1e-4, 1]"),
        ("tau_dev", c.tau_dev, c.tau_dev >= 0, ">= 0"),
        ("tau_frac", c.tau_frac, 0 <= c.tau_frac <= 1, "in [0, 1]"),
        ("peak_floor", cfg.recovery.peak_floor, cfg.recovery.peak_floor >= 0, ">= 0"),
        ("threads", cfg.threads, cfg.threads >= 0, ">= 0 (0 = all cores)"),
        ("seed", c.seed, c.seed >= 0, ">= 0"),
        ("min_cluster_size", c.min_cluster_size,
         c.min_cluster_size is None or c.min_cluster_size >= 1, ">= 1 or auto"),
    ):
        if not ok:
            raise ConfigError(f"{key} must be {need}, got {value!r}")


def run(img, cfg: PipelineConfig | None = None
        ) -> tuple[SeparationResult, PipelineDiagnostics]:
    """Separate an image into diffuse and specular parts.

    With ``cfg.fast`` set, the image is box-filtered by the smallest
    integer factor that brings its long side to at most
    ``cfg.target_edge``; clusters and material models come from that
    small copy, and the separation labels each full-resolution pixel with
    its nearest center hue as it splits it.  The separation always runs at
    full resolution, in one pass over the image.

    Returns the separation plus diagnostics.  diffuse + specular equals
    the working image (the input after any requested white balance)
    exactly, and both parts are nonnegative.
    """
    cfg = cfg or PipelineConfig()
    _check_config(cfg)
    img = _validate_input(img)
    threads = resolve_threads(cfg.threads)
    basis, divide = parse_illumination(cfg.illumination)
    factor = int(np.ceil(max(img.shape[:2]) / cfg.target_edge)) if cfg.fast else 1
    t0 = time.perf_counter()
    if divide is not None:
        img = white_balance(img, divide)

    t_cluster = time.perf_counter()
    field = specular_free_field(box_downsample(img, factor), basis, threads=threads)
    clusters, fit = adaptive_cluster(field, cfg.cluster)
    clustering_seconds = time.perf_counter() - t_cluster

    models = estimate_models(field, clusters, basis, cfg.recovery)
    del field  # not read again; free it before the full-resolution pass
    result = separate_image(img, clusters, models, basis, threads=threads)
    total_seconds = time.perf_counter() - t0

    diag = PipelineDiagnostics(
        iterations=fit.iterations,
        converged=fit.converged,
        n_clusters=clusters.n_clusters,
        n_passthrough=sum(1 for m in models.values() if m is None),
        total_fit_error=fit.total_error,
        k_history=list(fit.k_history),
        clustering_seconds=clustering_seconds,
        total_seconds=total_seconds,
        downsampled=factor > 1,
        labels=result.labels,
    )
    return result, diag


# --- key=value config files ---

_CONFIG_KEYS = (
    "illum", "initial_k", "tau_dev", "tau_frac", "min_cluster_size", "seed",
    "max_iterations", "bin_width", "peak_floor", "fast", "target_edge", "threads",
)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines (# comments allowed) into raw strings."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean for {key}: {value!r}")


def config_from_values(values: dict, base: PipelineConfig | None = None) -> PipelineConfig:
    """Apply raw config strings on top of a base PipelineConfig."""
    cfg = base or PipelineConfig()
    cluster = replace(cfg.cluster)
    recovery = replace(cfg.recovery)
    cfg = replace(cfg, cluster=cluster, recovery=recovery)

    def as_int(key, value):
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"bad integer for {key}: {value!r}") from exc

    def as_float(key, value):
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"bad number for {key}: {value!r}") from exc

    for key, value in values.items():
        if key == "illum":
            cfg.illumination = value
        elif key == "initial_k":
            cluster.initial_k = as_int(key, value)
        elif key == "tau_dev":
            cluster.tau_dev = as_float(key, value)
        elif key == "tau_frac":
            cluster.tau_frac = as_float(key, value)
        elif key == "min_cluster_size":
            cluster.min_cluster_size = None if value.lower() == "auto" else as_int(key, value)
        elif key == "seed":
            cluster.seed = as_int(key, value)
        elif key == "max_iterations":
            cluster.max_iterations = as_int(key, value)
        elif key == "bin_width":
            recovery.bin_width = as_float(key, value)
        elif key == "peak_floor":
            recovery.peak_floor = as_int(key, value)
        elif key == "fast":
            cfg.fast = _parse_bool(value, key)
        elif key == "target_edge":
            cfg.target_edge = as_int(key, value)
        elif key == "threads":
            cfg.threads = as_int(key, value)
    return cfg


def load_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_values(parse_config_text(text), base)
