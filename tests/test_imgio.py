"""Binary PPM / float PFM reading and writing."""

import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import peak_bytes
from despec import errors
from despec.imgio import (
    BAND_ROWS,
    HEADER_BYTES,
    IOV_MAX,
    load,
    load_labels,
    save,
    save_format,
    save_labels,
)


def write(path, payload: bytes):
    path.write_bytes(payload)
    return path


class TestLoadPpm:
    def test_8bit_white_pixel(self, tmp_path):
        p = write(tmp_path / "a.ppm", b"P6\n1 1\n255\n\xff\xff\xff")
        img = load(p)
        assert img.shape == (1, 1, 3)
        assert img.dtype == np.float64
        assert np.all(img == 1.0)

    def test_8bit_values_scale_by_maxval(self, tmp_path):
        p = write(tmp_path / "a.ppm", b"P6\n2 1\n255\n" + bytes([0, 51, 102, 153, 204, 255]))
        img = load(p)
        assert np.allclose(img.reshape(-1), np.array([0, 51, 102, 153, 204, 255]) / 255.0)

    def test_16bit_big_endian(self, tmp_path):
        raster = (32768).to_bytes(2, "big") * 3
        p = write(tmp_path / "a.ppm", b"P6\n1 1\n65535\n" + raster)
        img = load(p)
        assert img[0, 0, 0] == pytest.approx(0.5 + 0.5 / 65535, abs=1e-15)

    def test_low_maxval_still_two_bytes_over_255(self, tmp_path):
        raster = (300).to_bytes(2, "big") * 3
        p = write(tmp_path / "a.ppm", b"P6\n1 1\n300\n" + raster)
        assert np.all(load(p) == 1.0)

    def test_header_comments_and_whitespace(self, tmp_path):
        payload = b"P6 # a comment\n 2   1 # dims\n\t255\n" + bytes(6)
        img = load(write(tmp_path / "a.ppm", payload))
        assert img.shape == (1, 2, 3)
        assert np.all(img == 0.0)

    def test_raster_may_start_with_whitespace_byte(self, tmp_path):
        """Only one separator byte is consumed after maxval; a first
        sample of 0x20 (a space) must survive."""
        p = write(tmp_path / "a.ppm", b"P6\n1 1\n255\n\x20\x20\x20")
        assert np.allclose(load(p), 32 / 255.0)

    def test_truncated_raster(self, tmp_path):
        p = write(tmp_path / "a.ppm", b"P6\n2 1\n255\n\x00\x00\x00")
        with pytest.raises(errors.TruncatedDataError):
            load(p)

    @pytest.mark.parametrize("header", [
        b"P6\n0 1\n255\n",       # zero width
        b"P6\n1 -1\n255\n",      # negative height
        b"P6\n1 1\n0\n",         # maxval too small
        b"P6\n1 1\n70000\n",     # maxval too large
        b"P6\nab 1\n255\n",      # non-integer
        b"P6\n1 1\n",            # header ends early
        b"P6 1_0 +1 255\n",      # underscore and sign: digits only
        b"P6 +2 1 255\n",
    ])
    def test_corrupt_headers(self, tmp_path, header):
        p = write(tmp_path / "a.ppm", header + bytes(6))
        with pytest.raises(errors.CorruptHeaderError):
            load(p)

    def test_unsupported_magics(self, tmp_path):
        for magic in (b"P5\n1 1\n255\n\x00", b"Pf\n1 1\n-1.0\n" + bytes(4), b"BM123"):
            p = write(tmp_path / "a.img", magic)
            with pytest.raises(errors.UnsupportedFormatError):
                load(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(errors.IoFailureError):
            load(tmp_path / "nope.ppm")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(errors.IoFailureError):
            load(tmp_path)  # a directory


class TestLoadPfm:
    def test_rows_run_bottom_to_top(self, tmp_path):
        top = np.array([0.25, 0.5, 0.75], dtype="<f4")
        bottom = np.array([0.1, 0.2, 0.3], dtype="<f4")
        payload = b"PF\n1 2\n-1.0\n" + bottom.tobytes() + top.tobytes()
        img = load(write(tmp_path / "a.pfm", payload))
        assert np.allclose(img[0], [0.25, 0.5, 0.75])
        assert np.allclose(img[1], [0.1, 0.2, 0.3])

    def test_positive_scale_is_big_endian(self, tmp_path):
        row = np.array([0.25, 0.5, 0.75], dtype=">f4")
        payload = b"PF\n1 1\n1.0\n" + row.tobytes()
        img = load(write(tmp_path / "a.pfm", payload))
        assert np.allclose(img[0, 0], [0.25, 0.5, 0.75])

    def test_zero_scale_rejected(self, tmp_path):
        p = write(tmp_path / "a.pfm", b"PF\n1 1\n0.0\n" + bytes(12))
        with pytest.raises(errors.CorruptHeaderError):
            load(p)

    @pytest.mark.parametrize("header", [b"PF\n1 1\nnan\n", b"PF 1 1 inf\n"])
    def test_non_finite_scale_rejected(self, tmp_path, header):
        p = write(tmp_path / "a.pfm", header + bytes(12))
        with pytest.raises(errors.CorruptHeaderError, match="bad scale"):
            load(p)

    def test_truncated(self, tmp_path):
        p = write(tmp_path / "a.pfm", b"PF\n2 2\n-1.0\n" + bytes(12))
        with pytest.raises(errors.TruncatedDataError):
            load(p)


class TestLoadLayout:
    @pytest.mark.parametrize("format", ["pfm", "ppm8", "ppm16"])
    def test_c_contiguous_writable_float64(self, tmp_path, format):
        """PFM loads as float32, PPM as float64 (k/maxval is not exact in
        float32); either way a C-contiguous, writable copy."""
        img = np.random.default_rng(1).random((5, 7, 3))
        p = tmp_path / "a.img"
        save(img, p, format)
        out = load(p)
        assert out.shape == (5, 7, 3)
        assert out.dtype == (np.float32 if format == "pfm" else np.float64)
        assert out.flags.c_contiguous and out.flags.writeable
        out[0, 0, 0] = 2.0  # not a view of the read-only file bytes


class TestSave:
    def test_ppm8_rounds_half_up(self, tmp_path):
        p = tmp_path / "a.ppm"
        clipped = save(np.full((1, 1, 3), 0.5), p, format="ppm8")
        assert clipped == 0
        assert p.read_bytes().endswith(bytes([128, 128, 128]))

    @pytest.mark.parametrize("format", ["ppm8", "ppm16"])
    def test_clipping_counted(self, tmp_path, format):
        img = np.full((1, 1, 3), 1.2)
        clipped = save(img, tmp_path / "a.ppm", format=format)
        assert clipped == 3
        assert np.all(load(tmp_path / "a.ppm") == 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("format", ["ppm8", "ppm16"])
    def test_samples_past_float64_over_maxval_clip_quietly(self, tmp_path, format):
        """A sample times maxval overflows to inf: it clips to maxval and
        is counted, with no RuntimeWarning."""
        img = np.full((2, 3, 3), 0.25)
        img[0, 1] = 1e308
        clipped = save(img, tmp_path / "a.ppm", format=format)
        assert clipped == 3
        assert np.all(load(tmp_path / "a.ppm")[0, 1] == 1.0)

    @pytest.mark.parametrize("format,maxval", [("ppm8", 255), ("ppm16", 65535)])
    def test_integer_round_trip_error_bound(self, tmp_path, format, maxval):
        rng = np.random.default_rng(2)
        img = rng.random((7, 9, 3))
        p = tmp_path / "a.ppm"
        assert save(img, p, format=format) == 0
        assert np.abs(load(p) - img).max() <= 0.5 / maxval + 1e-12

    def test_pfm_round_trip_is_exact_for_float32(self, tmp_path):
        img = np.random.default_rng(3).random((5, 4, 3)).astype(np.float32).astype(np.float64)
        p = tmp_path / "a.pfm"
        save(img, p)
        assert np.array_equal(load(p), img)

    def test_pfm_resave_is_byte_identical(self, tmp_path):
        img = np.random.default_rng(4).random((3, 6, 3)).astype(np.float32)
        a, b = tmp_path / "a.pfm", tmp_path / "b.pfm"
        save(img, a)
        save(load(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_pfm_keeps_hdr_values(self, tmp_path):
        img = np.full((2, 2, 3), 2.5)
        p = tmp_path / "a.pfm"
        assert save(img, p) == 0   # no clipping in float format
        assert np.all(load(p) == 2.5)

    def test_format_inference(self, tmp_path):
        img = np.full((1, 1, 3), 0.5)
        save(img, tmp_path / "a.pfm")
        assert (tmp_path / "a.pfm").read_bytes()[:2] == b"PF"
        save(img, tmp_path / "a.ppm")
        assert b"65535" in (tmp_path / "a.ppm").read_bytes()[:16]

    def test_unknown_extension_and_format(self, tmp_path):
        img = np.zeros((1, 1, 3))
        with pytest.raises(errors.UnsupportedFormatError):
            save(img, tmp_path / "a.jpg")
        with pytest.raises(errors.UnsupportedFormatError):
            save(img, tmp_path / "a.ppm", format="png")

    def test_save_format(self):
        """The format a save would use, resolved before any image exists."""
        assert save_format("a.PFM") == "pfm"
        assert save_format("a.ppm") == "ppm16"
        assert save_format("a.jpg", "ppm8") == "ppm8"
        for args in (("a.jpg",), ("a.ppm", "png")):
            with pytest.raises(errors.UnsupportedFormatError):
                save_format(*args)

    def test_bad_shape(self, tmp_path):
        with pytest.raises(errors.UnsupportedFormatError):
            save(np.zeros((4, 4)), tmp_path / "a.ppm")

    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3)])
    @pytest.mark.parametrize("format,dtype", [("pfm", np.float32), ("pfm", np.float64),
                                              ("ppm8", np.float64), ("ppm16", np.float64)])
    def test_an_image_of_no_pixels_is_refused(self, tmp_path, shape, format, dtype):
        """load refuses a zero dimension, so save writes no such file."""
        path = tmp_path / "a.img"
        with pytest.raises(errors.UnsupportedFormatError, match="has no pixels"):
            save(np.zeros(shape, dtype), path, format=format)
        assert not path.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("format", ["ppm8", "ppm16"])
    def test_a_nan_sample_is_refused_and_inf_clipped(self, tmp_path, format):
        """+inf clips to maxval and is counted; no integer sample stands
        for a NaN, so its save fails after the band before it was written,
        and the failed save removes the file."""
        img = np.full((BAND_ROWS + 3, 4, 3), 0.5)
        img[0, 1] = np.inf
        path = tmp_path / "a.ppm"
        assert save(img, path, format=format) == 3
        img[-1, 2, 1] = np.nan
        with pytest.raises(errors.UnsupportedFormatError, match="NaN"):
            save(img, path, format=format)
        assert not path.exists()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(errors.IoFailureError):
            save(np.zeros((1, 1, 3)), tmp_path / "missing" / "a.ppm")


class TestLabels:
    def test_round_trip_with_flags(self, tmp_path):
        labels = np.array([[0, 1], [2, -1]], dtype=np.int32)
        p = tmp_path / "labels.ppm"
        save_labels(labels, p)
        raw = load(p)
        grays = np.round(raw[..., 0] * 255).astype(int)
        assert sorted(np.unique(grays).tolist()) == [0, 127, 254, 255]
        assert np.array_equal(load_labels(p), labels)

    def test_all_flag_kinds_collapse_to_minus_one(self, tmp_path):
        labels = np.array([[0, -1], [-2, 0]], dtype=np.int32)
        p = tmp_path / "labels.ppm"
        save_labels(labels, p)
        assert np.array_equal(load_labels(p), [[0, -1], [-1, 0]])

    def test_single_label(self, tmp_path):
        p = tmp_path / "labels.ppm"
        save_labels(np.zeros((3, 5), dtype=np.int32), p)
        assert np.array_equal(load_labels(p), np.zeros((3, 5), dtype=np.int32))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_a_map_of_no_pixels_is_refused(self, tmp_path, shape):
        path = tmp_path / "labels.ppm"
        with pytest.raises(errors.UnsupportedFormatError, match="has no pixels"):
            save_labels(np.zeros(shape, dtype=np.int32), path)
        assert not path.exists()

    @pytest.mark.parametrize("labels", [
        np.zeros((2, 3, 1), dtype=np.int32),  # not 2-D
        np.zeros(3, dtype=np.int32),
        np.array([[0.0, np.nan]]),  # not integer
        np.array([[0.5, 1.5]]),
    ], ids=["3-d", "1-d", "nan", "fractional"])
    def test_a_map_not_2d_integer_is_refused(self, tmp_path, labels):
        path = tmp_path / "labels.ppm"
        with pytest.raises(errors.UnsupportedFormatError, match="is not 2-D integer"):
            save_labels(labels, path)
        assert not path.exists()

    def test_too_many_labels(self, tmp_path):
        labels = np.arange(256, dtype=np.int32).reshape(16, 16)
        with pytest.raises(errors.UnsupportedFormatError):
            save_labels(labels, tmp_path / "labels.ppm")


def whole_image_save(img, format):
    """(file bytes, clipped count) of a save that converts the whole
    raster at once: one astype, rows flipped for PFM."""
    h, w = img.shape[:2]
    if format == "pfm":
        return b"PF\n%d %d\n-1.0\n" % (w, h) + img[::-1].astype("<f4").tobytes(), 0
    maxval = 255 if format == "ppm8" else 65535
    quant = np.floor(img * maxval + 0.5)
    clipped = int(np.count_nonzero(quant > maxval))
    raster = np.clip(quant, 0, maxval).astype(">u2" if maxval > 255 else np.uint8)
    return b"P6\n%d %d\n%d\n" % (w, h, maxval) + raster.tobytes(), clipped


def whole_label_map(labels):
    """File bytes of save_labels' gray map, converted at once."""
    k = int(labels.max()) + 1
    levels = (np.arange(k) * (254 // max(k - 1, 1))).astype(np.uint8)
    gray = np.where(labels >= 0, levels[np.clip(labels, 0, k - 1)], 255).astype(np.uint8)
    header = b"P6\n%d %d\n255\n" % (labels.shape[1], labels.shape[0])
    return header + np.repeat(gray[..., None], 3, axis=-1).tobytes()


HEIGHTS = [1, BAND_ROWS - 1, BAND_ROWS, BAND_ROWS + 1, 2 * BAND_ROWS + 3]


class TestBandedSave:
    """Saves convert BAND_ROWS rows at a time; the bytes must not show it."""

    @pytest.mark.parametrize("height", HEIGHTS)
    @pytest.mark.parametrize("format", ["pfm", "ppm8", "ppm16"])
    def test_bytes_equal_whole_image_conversion(self, tmp_path, format, height):
        rng = np.random.default_rng(height)
        img = rng.uniform(-0.2, 1.3, (height, 5, 3))  # clips at both ends
        img[::2, 1] = (rng.integers(0, 255, (len(img[::2]), 3)) + 0.5) / 255  # exact halves
        p = tmp_path / "a.img"
        clipped = save(img, p, format=format)
        data, want_clipped = whole_image_save(img, format)
        assert p.read_bytes() == data
        assert clipped == want_clipped
        assert format == "pfm" or clipped > 0

    @pytest.mark.parametrize("format", ["pfm", "ppm8", "ppm16"])
    def test_float32_bytes_equal_float64_conversion(self, tmp_path, format):
        """Each band is widened to float64 as it is written, with the bits
        of converting the whole image first."""
        rng = np.random.default_rng(4)
        img = rng.uniform(-0.2, 1.3, (2 * BAND_ROWS + 3, 5, 3)).astype(np.float32)
        clipped = save(img, tmp_path / "a.img", format=format)
        assert clipped == save(img.astype(np.float64), tmp_path / "b.img", format=format)
        assert (tmp_path / "a.img").read_bytes() == (tmp_path / "b.img").read_bytes()

    @pytest.mark.parametrize("height", HEIGHTS)
    @pytest.mark.parametrize("top", [0, 5, 254])
    def test_label_map_bytes_equal_whole_conversion(self, tmp_path, top, height):
        labels = np.random.default_rng(height).integers(-2, top + 1, (height, 7)).astype(np.int32)
        labels[0, 0] = top
        p = tmp_path / "labels.ppm"
        save_labels(labels, p)
        assert p.read_bytes() == whole_label_map(labels)

    def test_pfm_save_holds_no_converted_copy(self, tmp_path):
        img = np.random.default_rng(9).random((1024, 1024, 3))
        raster = img.size * 4  # the float32 PFM raster, 12.6 MB
        assert peak_bytes(lambda: save(img, tmp_path / "a.pfm")) < raster / 8

    @pytest.mark.parametrize("format", ["ppm8", "ppm16"])
    def test_ppm_save_holds_no_quantized_copy(self, tmp_path, format):
        img = np.random.default_rng(9).random((1024, 1024, 3))
        # the whole-image conversion held a float64 quantized copy
        assert peak_bytes(lambda: save(img, tmp_path / "a.ppm", format=format)) < img.nbytes / 8

    @pytest.mark.parametrize("format", ["pfm", "ppm8", "ppm16"])
    def test_float32_save_holds_no_widened_copy(self, tmp_path, format):
        # 2048 rows, so that one float64 band is 1/16 of the float32 raster
        img = np.random.default_rng(9).random((2048, 512, 3), dtype=np.float32)
        peak = peak_bytes(lambda: save(img, tmp_path / "a.img", format=format))
        assert peak < img.nbytes / 8

    def test_label_save_holds_no_gray_copy(self, tmp_path):
        labels = np.random.default_rng(9).integers(-2, 6, (1024, 1024)).astype(np.int32)
        raster = labels.size * 3  # the 8-bit gray raster, 3.1 MB
        assert peak_bytes(lambda: save_labels(labels, tmp_path / "l.ppm")) < raster / 8


def save_as(kind, path, height=2 * BAND_ROWS + 3):
    """Save one fixed random image, or for kind "labels" one fixed label
    map, to ``path`` in format ``kind``."""
    rng = np.random.default_rng(12)
    if kind == "labels":
        save_labels(rng.integers(-2, 6, (height, 7)).astype(np.int32), path)
    elif kind == "pfm32":  # written straight from the image rows
        save(rng.uniform(-0.2, 1.3, (height, 7, 3)).astype(np.float32), path, format="pfm")
    else:
        save(rng.uniform(-0.2, 1.3, (height, 7, 3)), path, format=kind)


KINDS = ["pfm", "pfm32", "ppm8", "ppm16", "labels"]


class TestInPlaceSave:
    """A save over an existing file rewrites it in place, then cuts it to
    length; the bytes are those of a save to a new path."""

    @pytest.mark.parametrize("prior", ["longer", "shorter"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_overwrite_equals_fresh_save(self, tmp_path, kind, prior):
        fresh, target = tmp_path / "fresh.img", tmp_path / "target.img"
        save_as(kind, fresh)
        want = fresh.read_bytes()
        size = 2 * len(want) + 5 if prior == "longer" else len(want) // 3
        target.write_bytes(b"\xab" * size)
        inode = target.stat().st_ino
        save_as(kind, target)
        assert target.read_bytes() == want
        assert target.stat().st_ino == inode  # the same file, as O_TRUNC kept it

    @pytest.mark.skipif(not os.path.exists(os.devnull) or os.name != "posix",
                        reason="needs a POSIX null device")
    @pytest.mark.parametrize("kind", KINDS)
    def test_save_to_null_device(self, kind):
        save_as(kind, os.devnull)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("kind", KINDS)
    def test_save_to_fifo(self, tmp_path, kind):
        """A pipe is written, never truncated or sought."""
        fresh, fifo = tmp_path / "fresh.img", tmp_path / "pipe"
        save_as(kind, fresh)
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        save_as(kind, fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [fresh.read_bytes()]

    @pytest.mark.skipif(not hasattr(os, "symlink") or os.name != "posix",
                        reason="needs symlinks")
    @pytest.mark.parametrize("kind", KINDS)
    def test_save_through_symlink_writes_target(self, tmp_path, kind):
        fresh, target, link = tmp_path / "fresh.img", tmp_path / "target.img", tmp_path / "link"
        save_as(kind, fresh)
        target.write_bytes(b"\xab" * (3 * len(fresh.read_bytes())))
        link.symlink_to(target)
        save_as(kind, link)
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("prior", [None, "longer"])
    def test_pfm_sample_beyond_float32_leaves_no_file(self, tmp_path, prior, recwarn):
        """The top band is written last (PFM runs bottom up), so the
        bands below it are on disk when its overflow is found; the file
        is removed all the same."""
        img = np.full((2 * BAND_ROWS + 3, 5, 3), 0.5)
        img[0, 2, 1] = 1e39
        path = tmp_path / "a.pfm"
        if prior:
            path.write_bytes(b"\xab" * 10**6)
        with pytest.raises(errors.UnsupportedFormatError, match="a.pfm.*float32 range") as exc:
            save(img, path)
        assert exc.value.exit_code == 3
        assert not path.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_pfm_keeps_float32_extremes_and_inf(self, tmp_path):
        """Only a finite sample the float32 range cannot hold is refused."""
        top = float(np.finfo(np.float32).max)
        img = np.array([[[top, np.inf, 0.0], [-top, -np.inf, 1e-46]]])
        save(img, tmp_path / "a.pfm")
        assert np.array_equal(load(tmp_path / "a.pfm"), img.astype(np.float32))


def pfm_bytes(img, big_endian=False):
    """A PFM file of ``img``, rows bottom to top, in either byte order."""
    h, w = img.shape[:2]
    scale, dtype = (b"1.0", ">f4") if big_endian else (b"-1.0", "<f4")
    return b"PF\n%d %d\n%s\n" % (w, h, scale) + img[::-1].astype(dtype).tobytes()


def ppm_bytes(raw, maxval):
    """A P6 file of the integer samples ``raw``."""
    h, w = raw.shape[:2]
    dtype = ">u2" if maxval > 255 else np.uint8
    return b"P6\n%d %d\n%d\n" % (w, h, maxval) + raw.astype(dtype).tobytes()


class TestRowReads:
    """Loads read the raster straight into the image rows, after a header
    read from a prefix of HEADER_BYTES that grows while the header runs on."""

    @pytest.mark.parametrize("comment", [HEADER_BYTES - 12, HEADER_BYTES, 5 * HEADER_BYTES])
    @pytest.mark.parametrize("format", ["pfm", "ppm"])
    def test_comment_longer_than_the_first_read(self, tmp_path, format, comment):
        rng = np.random.default_rng(comment)
        if format == "pfm":
            plain = pfm_bytes(rng.random((9, 11, 3)).astype(np.float32))
        else:
            plain = ppm_bytes(rng.integers(0, 65536, (9, 11, 3)), 65535)
        magic, rest = plain.split(b"\n", 1)
        long = magic + b" #" + b"c" * comment + b"\n" + rest  # past the first read
        a, b = write(tmp_path / "plain", plain), write(tmp_path / "long", long)
        got, want = load(b), load(a)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("header", [b"PF\n100000 100000\n-1.0\n", b"P6 100000 100000 255\n"])
    def test_huge_header_in_a_small_file_allocates_nothing(self, tmp_path, header):
        p = write(tmp_path / "huge", header + bytes(1000))
        tracemalloc.start()
        try:
            with pytest.raises(errors.TruncatedDataError, match="header promises"):
                load(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_big_endian_pfm(self, tmp_path):
        img = np.random.default_rng(5).uniform(-3, 3, (40, 17, 3)).astype(np.float32)
        got = load(write(tmp_path / "be.pfm", pfm_bytes(img, big_endian=True)))
        assert got.dtype == np.float32 and got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got, img)

    @pytest.mark.parametrize("maxval", [255, 300, 65535])
    def test_ppm_samples_scale_by_maxval(self, tmp_path, maxval):
        raw = np.random.default_rng(maxval).integers(0, maxval + 1, (40, 17, 3))
        got = load(write(tmp_path / "a.ppm", ppm_bytes(raw, maxval)))
        assert got.dtype == np.float64
        assert np.array_equal(got, raw / maxval)

    def test_pfm_load_holds_one_raster(self, tmp_path):
        """The file bytes are not held beside the image (a second raster)."""
        img = np.random.default_rng(6).random((512, 512, 3), dtype=np.float32)
        p = write(tmp_path / "a.pfm", pfm_bytes(img))
        assert peak_bytes(lambda: load(p)) < 1.25 * img.nbytes

    @pytest.mark.parametrize("format", ["pfm", "ppm8", "ppm16"])
    def test_image_taller_than_iov_max_round_trips(self, tmp_path, format):
        height = max(3000, IOV_MAX + 7)
        img = np.random.default_rng(7).random((height, 1, 3)).astype(np.float32)
        a, b = tmp_path / "a.img", tmp_path / "b.img"
        save(img, a, format=format)
        assert a.read_bytes() == whole_image_save(img.astype(np.float64), format)[0]
        save(load(a), b, format=format)
        assert b.read_bytes() == a.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("format", ["pfm", "ppm16"])
    def test_load_from_fifo(self, tmp_path, format):
        """A pipe has no size to check up front; it is read to its end."""
        a, fifo = tmp_path / "a.img", tmp_path / "pipe"
        save(np.random.default_rng(8).random((70, 90, 3)), a, format=format)
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(a.read_bytes()), daemon=True)
        writer.start()
        got = load(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(got, load(a))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_truncated_fifo(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(b"PF\n2 2\n-1.0\n" + bytes(12)),
                                  daemon=True)
        writer.start()
        with pytest.raises(errors.TruncatedDataError, match="raster holds 12 bytes"):
            load(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()

    @pytest.mark.parametrize("kind", KINDS)
    def test_short_reads_and_writes(self, tmp_path, monkeypatch, kind):
        """readv and writev may move fewer bytes than asked, as on a pipe:
        the reader and the writer go on from where each call stopped."""
        fresh, short = tmp_path / "fresh.img", tmp_path / "short.img"
        save_as(kind, fresh, height=9)

        def readv(fd, bufs):
            data = os.read(fd, min(7, len(bufs[0])))
            bufs[0][:len(data)] = data
            return len(data)

        monkeypatch.setattr(os, "readv", readv)
        monkeypatch.setattr(os, "writev", lambda fd, bufs: os.write(fd, bytes(bufs[0][:5])))
        save_as(kind, short, height=9)
        assert short.read_bytes() == fresh.read_bytes()
        got = load(short)
        monkeypatch.undo()
        assert np.array_equal(got, load(fresh))

    def test_file_ending_while_read(self, tmp_path, monkeypatch):
        """A file that ends before the size it showed is truncated data:
        here every read after the header's meets the end."""
        img = np.random.default_rng(13).random((40, 17, 3)).astype(np.float32)
        data = pfm_bytes(img)
        p = write(tmp_path / "a.pfm", data)
        monkeypatch.setattr(os, "readv", lambda fd, bufs: 0)
        held = HEADER_BYTES - data.index(b"-1.0\n") - 5
        with pytest.raises(errors.TruncatedDataError, match=f"raster holds {held} bytes"):
            load(p)


class TestRowWrites:
    """A little-endian float32, C-contiguous image is written straight
    from its rows; every other image converts band by band."""

    @pytest.mark.parametrize("view", [
        lambda a: a[:, ::2], lambda a: a[::-1], lambda a: a[..., ::-1], lambda a: a.astype(">f4"),
    ])
    def test_float32_view_saves_as_its_contiguous_copy(self, tmp_path, view):
        img = view(np.random.default_rng(10).uniform(-2, 2, (2 * BAND_ROWS + 3, 12, 3))
                   .astype(np.float32))
        assert not (img.dtype == "<f4" and img.flags.c_contiguous)
        save(img, tmp_path / "view.pfm")
        save(np.ascontiguousarray(img, dtype=np.float32), tmp_path / "copy.pfm")
        assert (tmp_path / "view.pfm").read_bytes() == (tmp_path / "copy.pfm").read_bytes()

    def test_float32_save_allocates_no_band(self, tmp_path):
        img = np.random.default_rng(11).random((256, 2048, 3), dtype=np.float32)
        band = BAND_ROWS * img[0].nbytes  # the band buffer a converting save needs
        assert peak_bytes(lambda: save(img, tmp_path / "a.pfm")) < band / 8

    @pytest.mark.parametrize("format", ["pfm", "ppm8"])
    def test_tall_narrow_image_holds_no_view_per_row(self, tmp_path, format):
        """Row views are made IOV_MAX at a time, so a load or save of a
        one-pixel-wide image does not hold one per row of it."""
        img = np.random.default_rng(12).random((16 * IOV_MAX, 1, 3), dtype=np.float32)
        p = tmp_path / "a.img"
        peak = peak_bytes(lambda: save(img, p, format=format))
        peak = max(peak, peak_bytes(lambda: load(p)) - load(p).nbytes)
        assert peak < 8 * img.nbytes
