"""Minimal image I/O: binary PPM (8/16 bit) and float PFM.

Loading always yields (H, W, 3) float64 in linear light: integer PPM
samples are divided by their maxval, PFM floats are taken verbatim.
Saving to an integer format rounds half up and reports how many samples
had to be clipped from above (linear-light values above 1.0).  PFM is
written as 32-bit little-endian floats, so a load/save cycle of a PFM
file is byte-exact.

Both formats share one header reader: a compiled token pattern skips
whitespace and ``#`` comments (each runs to the end of its line) and
yields width, height and the third value (PPM maxval, PFM scale), and
exactly one whitespace byte separates the header from the raster.

The raster is copied once each way: loading reads it through a
memoryview of the file bytes and converts it with one ``astype`` (row
flip included for PFM); saving converts it with one ``astype`` and
writes header and raster separately.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import (
    CorruptHeaderError,
    IoFailureError,
    TruncatedDataError,
    UnsupportedFormatError,
)


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc


def _write_parts(path, *parts) -> None:
    """Write a header and a raster (bytes or C-contiguous arrays) in turn,
    so neither is copied into one payload first."""
    try:
        with open(path, "wb") as fh:
            for part in parts:
                fh.write(part)
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


# whitespace and whole-line comments, then one token: the token cannot
# start with "#", and a comment always runs on to the end of its line
_TOKEN = re.compile(rb"(?:[ \t\r\n\f\v]|#[^\r\n]*)*([^ \t\r\n\f\v#][^ \t\r\n\f\v]*)?")


def _read_header(data: bytes, third: str, parse) -> tuple[int, int, object, int]:
    """Width, height, the ``parse``d third value (maxval or scale) and
    the raster offset of a P6/PF header.

    The offset lies one separator byte past the third token; it exceeds
    ``len(data)`` when the file ends right after that token.
    """
    values, pos = [], 2
    for what, conv in (("width", int), ("height", int), (third, parse)):
        match = _TOKEN.match(data, pos)
        tok, pos = match.group(1), match.end()
        if tok is None:
            raise CorruptHeaderError("header ended unexpectedly")
        try:
            values.append(conv(tok))
        except ValueError as exc:
            raise CorruptHeaderError(f"bad {what}: {tok!r}") from exc
    width, height, value = values
    if width <= 0 or height <= 0:
        raise CorruptHeaderError(f"bad dimensions {width}x{height}")
    return width, height, value, pos + 1


def _read_raster(data: bytes, offset: int, width: int, height: int, dtype) -> np.ndarray:
    """(height, width, 3) view of the raster at ``offset``, not a copy."""
    if offset > len(data):
        raise CorruptHeaderError("missing raster after header")
    need = width * height * 3 * np.dtype(dtype).itemsize
    raster = memoryview(data)[offset:offset + need]
    if len(raster) < need:
        raise TruncatedDataError(
            f"raster holds {len(raster)} bytes, header promises {need}"
        )
    return np.frombuffer(raster, dtype=dtype).reshape(height, width, 3)


def _load_ppm(data: bytes) -> np.ndarray:
    width, height, maxval, offset = _read_header(data, "maxval", int)
    if not 0 < maxval < 65536:
        raise CorruptHeaderError(f"bad maxval {maxval}")
    dtype = ">u2" if maxval > 255 else np.uint8  # network byte order for 16 bit
    img = _read_raster(data, offset, width, height, dtype).astype(np.float64)
    img /= maxval
    return img


def _load_pfm(data: bytes) -> np.ndarray:
    width, height, scale, offset = _read_header(data, "scale", float)
    if scale == 0:
        raise CorruptHeaderError("zero scale")
    dtype = "<f4" if scale < 0 else ">f4"  # scale sign encodes endianness
    samples = _read_raster(data, offset, width, height, dtype)
    # PFM rows run bottom to top: flip while widening, in one copy
    return samples[::-1].astype(np.float64, order="C")


def load(path) -> np.ndarray:
    """Read a PPM (P6) or PFM (PF) image as (H, W, 3) float64."""
    data = _read_bytes(path)
    magic = data[:2]
    if magic == b"P6":
        return _load_ppm(data)
    if magic == b"PF":
        return _load_pfm(data)
    if magic == b"Pf":
        raise UnsupportedFormatError("grayscale PFM is not supported")
    raise UnsupportedFormatError(f"unrecognized magic {magic!r}")


def _save_ppm(img: np.ndarray, path, maxval: int) -> int:
    quant = np.floor(img * maxval + 0.5)  # round half up
    clipped = int(np.count_nonzero(quant > maxval))
    quant = np.clip(quant, 0, maxval)
    dtype = ">u2" if maxval > 255 else np.uint8
    header = b"P6\n%d %d\n%d\n" % (img.shape[1], img.shape[0], maxval)
    _write_parts(path, header, quant.astype(dtype, order="C"))
    return clipped


def _save_pfm(img: np.ndarray, path) -> int:
    header = b"PF\n%d %d\n-1.0\n" % (img.shape[1], img.shape[0])
    _write_parts(path, header, img[::-1].astype("<f4", order="C"))
    return 0


def save(img, path, format: str | None = None) -> int:
    """Write an image; returns the count of clipped samples.

    ``format`` is "ppm8", "ppm16" or "pfm"; None infers from the
    extension (.pfm -> pfm, .ppm -> ppm16).  Only integer formats ever
    clip; values above 1.0 survive a PFM round trip untouched.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise UnsupportedFormatError(f"image shape {img.shape} is not (H, W, 3)")
    if format is None:
        lower = str(path).lower()
        if lower.endswith(".pfm"):
            format = "pfm"
        elif lower.endswith(".ppm"):
            format = "ppm16"
        else:
            raise UnsupportedFormatError(f"cannot infer format for {path}")
    if format == "pfm":
        return _save_pfm(img, path)
    if format == "ppm16":
        return _save_ppm(img, path, 65535)
    if format == "ppm8":
        return _save_ppm(img, path, 255)
    raise UnsupportedFormatError(f"unknown format {format!r}")


def save_labels(labels, path) -> None:
    """Cluster/material labels as an 8-bit PPM.

    Nonnegative labels map to evenly spread gray levels in [0, 254];
    flagged (negative) pixels become 255.
    """
    labels = np.asarray(labels)
    k = int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 1
    if k > 255:
        raise UnsupportedFormatError(f"{k} labels exceed an 8-bit label map")
    levels = (np.arange(k) * (254 // max(k - 1, 1))).astype(np.uint8) if k > 1 \
        else np.zeros(1, dtype=np.uint8)
    flat = np.where(labels >= 0, levels[np.clip(labels, 0, k - 1)], 255).astype(np.uint8)
    gray = np.repeat(flat[..., None], 3, axis=-1)
    header = b"P6\n%d %d\n255\n" % (labels.shape[1], labels.shape[0])
    _write_parts(path, header, gray)


def load_labels(path) -> np.ndarray:
    """Read a label map written by save_labels back to compact ids.

    Distinct gray levels become label ids in increasing-gray order;
    level 255 becomes -1 (flagged).
    """
    img = load(path)
    gray = np.round(img[..., 0] * 255).astype(np.int64)
    kept = gray != 255
    out = np.full(gray.shape, -1, dtype=np.int32)
    out[kept] = np.unique(gray[kept], return_inverse=True)[1]
    return out
