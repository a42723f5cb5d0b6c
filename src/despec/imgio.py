"""Minimal image I/O: binary PPM (8/16 bit) and float PFM.

Loading yields (H, W, 3) linear light: integer PPM samples are divided
by their maxval into float64 (k/maxval is not exact in float32), PFM
floats are taken verbatim as float32.
Saving to an integer format rounds half up and reports how many samples
had to be clipped from above (linear-light values above 1.0).  PFM is
written as 32-bit little-endian floats, so a load/save cycle of a PFM
file is byte-exact.

Both formats share one header reader: a compiled token pattern skips
whitespace and ``#`` comments (each runs to the end of its line) and
yields width, height and the third value (PPM maxval, PFM scale), and
exactly one whitespace byte separates the header from the raster.
Width, height and maxval are ASCII digits only; the PFM scale is a
finite, nonzero number.

Loading reads the raster through a memoryview of the file bytes and
converts it with one ``astype`` (row flip included for PFM).  Saving
never holds a converted copy of the whole raster: it converts and writes
BAND_ROWS rows at a time through one reused band buffer, bottom band
first for PFM, so its working memory does not grow with the height.
A save rewrites an existing file in place and cuts it to length after;
a PFM sample beyond the float32 range is an error, not an inf; and a
failed save removes the file it was writing.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import stat

import numpy as np

from .errors import (
    CorruptHeaderError,
    IoFailureError,
    TruncatedDataError,
    UnsupportedFormatError,
)

BAND_ROWS = 64  # image rows converted and written at a time by a save


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc


def _write_parts(path, header: bytes, bands) -> None:
    """Write ``header``, then each raster band of the iterable ``bands``
    (C-contiguous arrays), so the raster is never joined into one
    payload.

    An existing file is rewritten in place, not truncated at the open (a
    truncating rewrite frees and reallocates its blocks), and a regular
    file is then cut to the bytes written; other targets (``/dev/null``,
    a pipe) are only written.  If anything fails, a regular file that was
    opened is removed, so a failed save leaves no partial file."""
    regular = False
    try:
        # "wb" without O_TRUNC; the umask still applies to a new file
        with open(path, "wb", opener=lambda p, fl: os.open(p, fl & ~os.O_TRUNC, 0o666)) as fh:
            before = os.fstat(fh.fileno())
            regular = stat.S_ISREG(before.st_mode)
            size = fh.write(header)
            for band in bands:
                size += fh.write(band)
            if regular and before.st_size > size:
                fh.truncate(size)
    except BaseException as exc:
        if regular:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise IoFailureError(f"cannot write {path}: {exc}") from exc
        raise


def _bands(height: int, width: int, dtype, fill, bottom_up: bool = False):
    """The (height, width, 3) raster of ``dtype``, band by band: for each
    slice of at most BAND_ROWS image rows, top band first or bottom band
    first, ``fill(rows, out)`` converts those rows into ``out``, a view of
    one reused buffer, which is then yielded."""
    buf = np.empty((min(BAND_ROWS, height), width, 3), dtype=dtype)
    starts = range(0, height, BAND_ROWS)
    for start in reversed(starts) if bottom_up else starts:
        rows = slice(start, min(start + BAND_ROWS, height))
        out = buf[:rows.stop - start]
        fill(rows, out)
        yield out


# whitespace and whole-line comments, then one token: the token cannot
# start with "#", and a comment always runs on to the end of its line
_TOKEN = re.compile(rb"(?:[ \t\r\n\f\v]|#[^\r\n]*)*([^ \t\r\n\f\v#][^ \t\r\n\f\v]*)?")


def _digits(tok: bytes) -> int:
    """A PNM integer: ASCII digits only, no sign, underscore or space."""
    if not tok.isdigit():
        raise ValueError(tok)
    return int(tok)


def _finite(tok: bytes) -> float:
    value = float(tok)
    if not math.isfinite(value):
        raise ValueError(tok)
    return value


def _read_header(data: bytes, third: str, parse) -> tuple[int, int, object, int]:
    """Width, height, the ``parse``d third value (maxval or scale) and
    the raster offset of a P6/PF header.

    The offset lies one separator byte past the third token; it exceeds
    ``len(data)`` when the file ends right after that token.
    """
    values, pos = [], 2
    for what, conv in (("width", _digits), ("height", _digits), (third, parse)):
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
    width, height, maxval, offset = _read_header(data, "maxval", _digits)
    if not 0 < maxval < 65536:
        raise CorruptHeaderError(f"bad maxval {maxval}")
    dtype = ">u2" if maxval > 255 else np.uint8  # network byte order for 16 bit
    img = _read_raster(data, offset, width, height, dtype).astype(np.float64)
    img /= maxval
    return img


def _load_pfm(data: bytes) -> np.ndarray:
    width, height, scale, offset = _read_header(data, "scale", _finite)
    if scale == 0:
        raise CorruptHeaderError("zero scale")
    dtype = "<f4" if scale < 0 else ">f4"  # scale sign encodes endianness
    samples = _read_raster(data, offset, width, height, dtype)
    # PFM rows run bottom to top: flip while converting to native order, in one copy
    return samples[::-1].astype(np.float32, order="C")


def load(path) -> np.ndarray:
    """Read a PPM (P6) image as (H, W, 3) float64 or a PFM (PF) image as
    (H, W, 3) float32, C-contiguous and writable."""
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
    height, width = img.shape[:2]
    quant = np.empty((min(BAND_ROWS, height), width, 3))
    clipped = 0

    def fill(rows, out):
        nonlocal clipped
        q = quant[:len(out)]
        with np.errstate(over="ignore"):  # an inf clips to maxval and is counted
            np.multiply(img[rows], maxval, out=q, dtype=np.float64)  # widened first
        q += 0.5
        np.floor(q, out=q)  # round half up
        clipped += int(np.count_nonzero(q > maxval))
        np.clip(q, 0, maxval, out=q)
        np.copyto(out, q, casting="unsafe")

    dtype = ">u2" if maxval > 255 else np.uint8
    header = b"P6\n%d %d\n%d\n" % (width, height, maxval)
    _write_parts(path, header, _bands(height, width, dtype, fill))
    return clipped


def _save_pfm(img: np.ndarray, path) -> int:
    height, width = img.shape[:2]

    def fill(rows, out):
        np.copyto(out, img[rows][::-1])  # PFM rows run bottom to top

    header = b"PF\n%d %d\n-1.0\n" % (width, height)
    try:
        with np.errstate(over="raise"):  # each band's cast; no inf is written
            _write_parts(path, header, _bands(height, width, "<f4", fill, bottom_up=True))
    except FloatingPointError:
        raise UnsupportedFormatError(
            f"cannot write {path}: a sample exceeds the float32 range of PFM") from None
    return 0


_MAXVAL = {"pfm": None, "ppm16": 65535, "ppm8": 255}  # None: float samples


def save_format(path, format: str | None = None) -> str:
    """The format ``save`` writes ``path`` in: ``format`` ("ppm8",
    "ppm16" or "pfm") if given, else inferred from the extension (.pfm
    -> pfm, .ppm -> ppm16).  Raises UnsupportedFormatError for an
    unknown format or extension, so callers can check before any work."""
    if format is None:
        lower = str(path).lower()
        if lower.endswith(".pfm"):
            format = "pfm"
        elif lower.endswith(".ppm"):
            format = "ppm16"
        else:
            raise UnsupportedFormatError(f"cannot infer format for {path}")
    if format not in _MAXVAL:
        raise UnsupportedFormatError(f"unknown format {format!r}")
    return format


def save(img, path, format: str | None = None) -> int:
    """Write an image in ``save_format(path, format)``; returns the
    count of clipped samples.  Only integer formats ever clip; values
    above 1.0 survive a PFM round trip untouched.
    """
    img = np.asarray(img)  # each band converts as if from a float64 copy
    if img.ndim != 3 or img.shape[2] != 3:
        raise UnsupportedFormatError(f"image shape {img.shape} is not (H, W, 3)")
    maxval = _MAXVAL[save_format(path, format)]
    return _save_pfm(img, path) if maxval is None else _save_ppm(img, path, maxval)


def save_labels(labels, path) -> None:
    """Cluster/material labels as an 8-bit PPM.

    Nonnegative labels map to evenly spread gray levels in [0, 254];
    flagged (negative) pixels become 255.
    """
    labels = np.asarray(labels)
    k = int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 1
    if k > 255:
        raise UnsupportedFormatError(f"{k} labels exceed an 8-bit label map")
    step = 254 // max(k - 1, 1)  # label i is gray level i * step

    def fill(rows, out):
        lab = labels[rows]
        gray = out[..., 0]
        np.multiply(lab, step, out=gray, casting="unsafe")
        gray[lab < 0] = 255
        out[..., 1] = gray
        out[..., 2] = gray

    height, width = labels.shape
    header = b"P6\n%d %d\n255\n" % (width, height)
    _write_parts(path, header, _bands(height, width, np.uint8, fill))


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
