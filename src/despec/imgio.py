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

Loading parses the header from a prefix of the file (HEADER_BYTES,
doubled while the header runs on), then reads the raster with
``os.readv`` straight into the rows of the image array, bottom row first
for PFM, so the row flip costs nothing and a little-endian PFM is used
as read; a big-endian PFM or a PPM converts with one ``astype``.  A
regular file shorter than the raster its header promises is refused
before the array is allocated.  Saving never holds a converted copy of
the whole raster: a little-endian float32, C-contiguous image goes to a
PFM straight from its own rows, bottom row first, and any other image
converts and writes BAND_ROWS rows at a time through one reused band
buffer, bottom band first for PFM.  Reads and writes pass at most
IOV_MAX buffers per call and go on after short counts (a pipe's).
A save rewrites an existing file in place and cuts it to length after;
a PFM sample beyond the float32 range is an error, not an inf, as is a
NaN sample of a PPM and an image of no pixels, whose header no load
accepts; and a failed save removes the file it was writing.
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
HEADER_BYTES = 64  # first read of a header; doubled while the header runs on
IOV_MAX = os.sysconf("SC_IOV_MAX")  # buffers per readv/writev call


def _bytes(arr: np.ndarray) -> memoryview:
    """Flat byte view of the C-contiguous array ``arr``."""
    return memoryview(arr.reshape(-1).view(np.uint8))


def _row_batches(img: np.ndarray, bottom_up: bool = False):
    """Byte views of the rows of the C-contiguous (H, W, 3) array ``img``,
    top row first or bottom row first, in lists of at most IOV_MAX."""
    flat = _bytes(img)
    step = img.shape[1] * 3 * img.itemsize
    order = range(len(img))[::-1 if bottom_up else 1]
    for start in range(0, len(order), IOV_MAX):
        yield [flat[r * step:(r + 1) * step] for r in order[start:start + IOV_MAX]]


def _drop(bufs: list, n: int) -> list:
    """The byte buffers ``bufs`` less their first ``n`` bytes."""
    i = 0
    while i < len(bufs) and n >= len(bufs[i]):
        n -= len(bufs[i])
        i += 1
    bufs = bufs[i:]
    if n:
        bufs[0] = bufs[0][n:]
    return bufs


def _vectored(call, fd: int, bufs: list) -> int:
    """Bytes that ``call``, ``os.readv`` or ``os.writev``, moves between
    ``fd`` and the byte buffers ``bufs`` (at most IOV_MAX), in order, call
    after call, as a pipe may move part of them each time; fewer than all
    only where a read meets the end of the file."""
    moved = 0
    while bufs and (n := call(fd, bufs)):
        moved += n
        bufs = _drop(bufs, n)
    return moved


def _write_parts(path, header: bytes, bands) -> None:
    """Write ``header``, then each band of the iterable ``bands``, a list
    of at most IOV_MAX byte buffers (image rows, or one converted band),
    with ``os.writev``, so the raster is never joined into one payload.

    An existing file is rewritten in place, not truncated at the open (a
    truncating rewrite frees and reallocates its blocks), and a regular
    file is then cut to the bytes written; other targets (``/dev/null``,
    a pipe) are only written.  If anything fails, a regular file that was
    opened is removed, so a failed save leaves no partial file."""
    regular = False
    try:
        # "wb" without O_TRUNC; the umask still applies to a new file
        with open(path, "wb", buffering=0,
                  opener=lambda p, fl: os.open(p, fl & ~os.O_TRUNC, 0o666)) as fh:
            fd = fh.fileno()
            before = os.fstat(fd)
            regular = stat.S_ISREG(before.st_mode)
            size = _vectored(os.writev, fd, [header])
            for band in bands:
                size += _vectored(os.writev, fd, band)
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
    one reused buffer, whose bytes are then yielded as a one-buffer band."""
    buf = np.empty((min(BAND_ROWS, height), width, 3), dtype=dtype)
    starts = range(0, height, BAND_ROWS)
    for start in reversed(starts) if bottom_up else starts:
        rows = slice(start, min(start + BAND_ROWS, height))
        out = buf[:rows.stop - start]
        fill(rows, out)
        yield [_bytes(out)]


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


def _parse_header(data: bytes, final: bool, third: str, parse):
    """Width, height, the ``parse``d third value (maxval or scale) and
    the raster offset of the P6/PF header at the start of ``data``.

    The offset lies one separator byte past the third token; it exceeds
    ``len(data)`` when the file ends right after that token.  Unless
    ``data`` is ``final`` (the whole file), returns None where a token, a
    comment or that separator byte may run on past ``data``.
    """
    values, pos = [], 2
    for what, conv in (("width", _digits), ("height", _digits), (third, parse)):
        match = _TOKEN.match(data, pos)
        tok, pos = match.group(1), match.end()
        if pos == len(data) and not final:
            return None
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


def _read_more(fh, data: bytes, size: int) -> bytes:
    """``data`` followed by the file's next bytes, ``size`` bytes in all
    unless the file ends first."""
    while len(data) < size and (more := fh.read(size - len(data))):
        data += more
    return data


def _read_header(fh, data: bytes, third: str, parse):
    """``_parse_header`` of the file ``fh``, whose first bytes, read to
    HEADER_BYTES, are ``data``: the prefix doubles until the header is
    inside it.  Returns the header's four values and the prefix."""
    size = HEADER_BYTES
    while (header := _parse_header(data, len(data) < size, third, parse)) is None:
        size *= 2
        data = _read_more(fh, data, size)
    return *header, data


def _read_raster(fh, data: bytes, offset: int, width: int, height: int, dtype,
                 bottom_up: bool = False) -> np.ndarray:
    """The (height, width, 3) raster of ``dtype`` at ``offset``, whose
    first bytes may already be in ``data``, read straight into the rows
    of a new array (bottom row first for PFM).  A regular file's size is
    checked before the array is allocated; any other file is read to its
    end first, as its length shows only there."""
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        end = st.st_size
    else:
        data += fh.read()
        end = len(data)
    if offset > end:
        raise CorruptHeaderError("missing raster after header")
    need = width * height * 3 * np.dtype(dtype).itemsize
    if end - offset < need:
        raise TruncatedDataError(f"raster holds {end - offset} bytes, header promises {need}")
    img = np.empty((height, width, 3), dtype=dtype)
    lead = memoryview(data)[offset:offset + need]  # raster bytes read with the header
    done = len(lead)
    for rows in _row_batches(img, bottom_up):
        while lead and rows:
            n = min(len(rows[0]), len(lead))
            rows[0][:n] = lead[:n]
            lead, rows = lead[n:], _drop(rows, n)
        done += _vectored(os.readv, fh.fileno(), rows)
    if done < need:  # the file shrank after its size was read
        raise TruncatedDataError(f"raster holds {done} bytes, header promises {need}")
    return img


def _load_ppm(fh, data: bytes) -> np.ndarray:
    width, height, maxval, offset, data = _read_header(fh, data, "maxval", _digits)
    if not 0 < maxval < 65536:
        raise CorruptHeaderError(f"bad maxval {maxval}")
    dtype = ">u2" if maxval > 255 else np.uint8  # network byte order for 16 bit
    img = _read_raster(fh, data, offset, width, height, dtype).astype(np.float64)
    img /= maxval
    return img


def _load_pfm(fh, data: bytes) -> np.ndarray:
    width, height, scale, offset, data = _read_header(fh, data, "scale", _finite)
    if scale == 0:
        raise CorruptHeaderError("zero scale")
    dtype = "<f4" if scale < 0 else ">f4"  # scale sign encodes endianness
    # PFM rows run bottom to top; a native-order raster is the image itself
    samples = _read_raster(fh, data, offset, width, height, dtype, bottom_up=True)
    return samples.astype(np.float32, copy=False)


def load(path) -> np.ndarray:
    """Read a PPM (P6) image as (H, W, 3) float64 or a PFM (PF) image as
    (H, W, 3) float32, C-contiguous and writable."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = _read_more(fh, b"", HEADER_BYTES)
            magic = data[:2]
            if magic == b"P6":
                return _load_ppm(fh, data)
            if magic == b"PF":
                return _load_pfm(fh, data)
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    if magic == b"Pf":
        raise UnsupportedFormatError("grayscale PFM is not supported")
    raise UnsupportedFormatError(f"unrecognized magic {magic!r}")


def _size(shape, path) -> tuple[int, int]:
    """(height, width) of an image or label map to save to ``path``;
    UnsupportedFormatError, before any file is opened, if it has no
    pixels, as ``_parse_header`` refuses a zero dimension."""
    height, width = shape
    if not height or not width:
        raise UnsupportedFormatError(f"cannot write {path}: {width}x{height} has no pixels")
    return height, width


def _save_ppm(img: np.ndarray, path, maxval: int) -> int:
    height, width = _size(img.shape[:2], path)
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
        if np.isnan(q).any():  # no integer sample stands for it
            raise UnsupportedFormatError(f"cannot write {path}: a sample is NaN")
        np.copyto(out, q, casting="unsafe")

    dtype = ">u2" if maxval > 255 else np.uint8
    header = b"P6\n%d %d\n%d\n" % (width, height, maxval)
    _write_parts(path, header, _bands(height, width, dtype, fill))
    return clipped


def _save_pfm(img: np.ndarray, path) -> int:
    height, width = _size(img.shape[:2], path)
    header = b"PF\n%d %d\n-1.0\n" % (width, height)
    if img.dtype == np.dtype("<f4") and img.flags.c_contiguous:
        # already the file's bytes: its rows go out as they are, bottom first
        _write_parts(path, header, _row_batches(img, bottom_up=True))
        return 0

    def fill(rows, out):
        np.copyto(out, img[rows][::-1])  # PFM rows run bottom to top

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
    flagged (negative) pixels become 255.  UnsupportedFormatError, before
    any file is opened, unless ``labels`` is a 2-D integer array.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.dtype.kind not in "iu":
        raise UnsupportedFormatError(f"label map {labels.dtype} {labels.shape} is not 2-D integer")
    height, width = _size(labels.shape, path)
    k = max(int(labels.max()) + 1, 1)
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
