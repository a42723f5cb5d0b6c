"""Property tests for ``despec remove`` on small, odd and broken input
files: empty, one-pixel, NaN, infinite, HDR, all-black and all-gray
images, and PPM/PFM files with mangled headers.

Every case ends in its documented exit code (2 unusable data, 3 file
format, 5 processing) or in exit 0 with output that is exactly additive
and nonnegative.  None exits 1 or prints a traceback.
"""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from despec import imgio, pipeline, synth
from despec.cli import main

ANY_DOCUMENTED = {0, 2, 3, 5}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def remove(data: bytes, workdir) -> int:
    """Write ``data`` as the input file, run ``despec remove`` on it and
    check what every outcome must satisfy; return the exit code."""
    src, dif, spe = workdir / "in", workdir / "d.pfm", workdir / "s.pfm"
    src.write_bytes(data)
    dif.unlink(missing_ok=True)
    spe.unlink(missing_ok=True)
    runs = []

    def recording_run(img, cfg):
        result, diag = real_run(img, cfg)
        runs.append((img, result))
        return result, diag

    real_run = pipeline.run
    err = io.StringIO()
    with mock.patch.object(pipeline, "run", recording_run), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["remove", str(src), "-d", str(dif), "-s", str(spe), "--threads", "1"])
    err = err.getvalue()
    assert rc in ANY_DOCUMENTED, err
    assert "Traceback" not in err
    if rc == 0:
        (img, result), = runs
        assert np.array_equal(result.diffuse + result.specular, img)
        assert result.diffuse.min() >= 0 and result.specular.min() >= 0
        for path in (dif, spe):
            assert imgio.load(path).shape == img.shape
    else:
        assert err.startswith("despec: error: ") and len(err.splitlines()) == 1, err
        assert not dif.exists()
    return rc


def pfm_bytes(img) -> bytes:
    img = np.asarray(img, dtype=np.float32)
    header = b"PF\n%d %d\n-1.0\n" % (img.shape[1], img.shape[0])
    return header + img[::-1].astype("<f4").tobytes()


# --- images behind a valid PFM header ---

HDR_MAX = float(np.float32(1e38))
SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, -1e-3, -1e38])


@st.composite
def images(draw):
    kind = draw(st.sampled_from(["materials", "colors", "hdr", "black", "gray"]))
    edge = st.integers(6, 16) if kind == "materials" else st.integers(0, 16)
    shape = (draw(edge), draw(edge), 3)
    if kind == "materials":  # two colors side by side under a highlight ramp
        color = arrays(np.float32, 3, elements=st.floats(0.0625, 1.0, width=32))
        left, right = draw(color), draw(color)
        img = np.where(np.arange(shape[1])[:, None] < shape[1] // 2, left, right)
        img = img + np.linspace(0.0, 0.5, shape[0])[:, None, None]
        img = (img * draw(st.sampled_from([1.0, 1e-3, 1e30]))).astype(np.float32)
    elif kind == "colors":
        img = draw(arrays(np.float32, shape, elements=st.floats(0.0, 1.0, width=32)))
    elif kind == "hdr":
        img = draw(arrays(np.float32, shape, elements=st.floats(0.0, HDR_MAX, width=32)))
    elif kind == "black":
        img = np.zeros(shape, dtype=np.float32)
    else:
        img = np.full(shape, draw(st.floats(0.0, HDR_MAX, width=32)), dtype=np.float32)
    if img.size:
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            y, x = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
            img[y, x, draw(st.integers(0, 2))] = draw(SPECIAL)
    return img


@settings(max_examples=80)
@given(img=images())
def test_image_ends_in_its_exit_code(img, workdir):
    rc = remove(pfm_bytes(img), workdir)
    if img.size == 0:
        assert rc == 3  # a zero width or height is a corrupt header
    elif not np.all(np.isfinite(img)) or np.any(img < 0):
        assert rc == 2
    else:
        assert rc in (0, 5)  # 5: too few pixels carry a color


@pytest.mark.parametrize("value", [1.0, 1e38, 3.4e38])
def test_one_colored_patch_at_any_scale_is_separated(value, workdir):
    img = np.zeros((8, 8, 3), dtype=np.float32)
    img[..., 0] = value
    img[..., 1] = value / 2
    assert remove(pfm_bytes(img), workdir) == 0


@pytest.mark.parametrize("fmt", ["ppm8", "ppm16"])
def test_integer_ppm_input_is_separated_exactly(fmt, workdir):
    """k / maxval samples use every mantissa bit, so diffuse = input -
    specular rounds; the sum must still give the input back exactly."""
    gt = synth.render(synth.builtin_scene("four-materials", 16, 16))
    imgio.save(synth.add_noise(gt, 3.0, seed=1), workdir / "ppm", fmt)
    assert remove((workdir / "ppm").read_bytes(), workdir) == 0


# --- mangled headers ---

def base_file(fmt: str) -> tuple[list, bytes]:
    """Header tokens and raster of a valid 6x5 two-material file."""
    img = np.zeros((5, 6, 3))
    img[:, :3] = [0.8, 0.4, 0.2]
    img[:, 3:] = [0.2, 0.5, 0.7]
    if fmt == "pfm":
        raster = img[::-1].astype("<f4").tobytes()
        return [b"PF", b"6", b"5", b"-1.0"], raster
    maxval = 255 if fmt == "ppm8" else 65535
    dtype = np.uint8 if fmt == "ppm8" else ">u2"
    raster = np.round(img * maxval).astype(dtype).tobytes()
    return [b"P6", b"6", b"5", str(maxval).encode()], raster


def assemble(tokens, raster) -> bytes:
    return b"\n".join(tokens) + b"\n" + raster


FORMATS = st.sampled_from(["ppm8", "ppm16", "pfm"])
NOT_A_NUMBER = st.sampled_from([b"abc", b"1e3", b"4.5", b"nan", b"0x10", b"+-3", b"\xff\xfe"])
BAD_SIZE = st.one_of(NOT_A_NUMBER, st.integers(-10**20, 0).map(lambda i: b"%d" % i),
                     st.integers(10**6, 10**30).map(lambda i: b"%d" % i))
BAD_MAXVAL = st.one_of(NOT_A_NUMBER, st.integers(-10**20, 0).map(lambda i: b"%d" % i),
                       st.integers(65536, 10**30).map(lambda i: b"%d" % i))
BAD_SCALE = st.one_of(st.sampled_from([b"abc", b"1,0", b"0", b"-0", b"0.0", b"0e9"]))
BAD_MAGIC = st.sampled_from([b"P3", b"P5", b"Pf", b"PG", b"XX", b"P"])


@settings(max_examples=40)
@given(fmt=FORMATS, data=st.data())
def test_truncated_file_exits_3(fmt, data, workdir):
    whole = assemble(*base_file(fmt))
    cut = data.draw(st.integers(0, len(whole) - 1))
    assert remove(whole[:cut], workdir) == 3


@settings(max_examples=60)
@given(fmt=FORMATS, data=st.data())
def test_bad_header_token_exits_3(fmt, data, workdir):
    tokens, raster = base_file(fmt)
    slot = data.draw(st.integers(0, 3))
    if slot == 0:
        tokens[0] = data.draw(BAD_MAGIC)
    elif slot in (1, 2):
        tokens[slot] = data.draw(BAD_SIZE)
    else:
        tokens[3] = data.draw(BAD_SCALE if fmt == "pfm" else BAD_MAXVAL)
    assert remove(assemble(tokens, raster), workdir) == 3


@settings(max_examples=60)
@given(fmt=FORMATS, data=st.data())
def test_any_header_damage_ends_in_a_documented_exit(fmt, data, workdir):
    """Stray bytes or an arbitrary token may still leave a readable file
    (say, extra whitespace, or a smaller height); either way the outcome
    is documented."""
    tokens, raster = base_file(fmt)
    if data.draw(st.booleans()):
        header = assemble(tokens, b"")
        at = data.draw(st.integers(0, len(header)))
        stray = data.draw(st.binary(min_size=1, max_size=4))
        remove(header[:at] + stray + header[at:] + raster, workdir)
    else:
        tokens[data.draw(st.integers(0, 3))] = data.draw(st.binary(max_size=8))
        remove(assemble(tokens, raster), workdir)
