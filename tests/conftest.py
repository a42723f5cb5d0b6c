"""Shared test helpers.

Also hooks the acceptance checks' pass/fail lines into the terminal
summary so they are visible in a normal ``pytest -v`` run.
"""

import sys
import tracemalloc

import numpy as np
from hypothesis import settings

from despec import imgio
from despec.clustering import SpecularFreeField
from despec.recovery import SeparationResult

# The one profile of every property test: the same examples on each run,
# no example database left behind, and no per-example deadline, which a
# loaded host would trip.
settings.register_profile("despec", derandomize=True, database=None, deadline=None)
settings.load_profile("despec")


def peak_bytes(fn):
    """tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_field(hues):
    """SpecularFreeField over an (H, W) grid of hue angles with every
    pixel valid, each pixel's chromaticity being its unit direction."""
    hue = np.asarray(hues, dtype=np.float64)
    flags = np.zeros(hue.shape, dtype=np.int8)
    pixel = np.argsort(hue.reshape(-1)).astype(np.int32)
    return SpecularFreeField(hue=hue.reshape(-1)[pixel], amplitude=np.ones(hue.size),
                             pixel=pixel, flags=flags)


def assert_exact_split(result, img):
    """diffuse + specular == img, img - diffuse == specular and
    img - specular == diffuse, bit for bit; both parts nonnegative."""
    diffuse, specular = result.diffuse, result.specular
    assert np.array_equal(diffuse + specular, img)
    assert np.array_equal(img - diffuse, specular)
    assert np.array_equal(img - specular, diffuse)
    assert diffuse.min() >= 0 and specular.min() >= 0


def assert_exact_files(src, diffuse, specular):
    """The PFM files ``diffuse`` and ``specular`` split the PFM file
    ``src`` exactly: assert_exact_split on their float32 samples."""
    img = imgio.load(src)
    assert img.dtype == np.float32
    parts = SeparationResult(imgio.load(diffuse), imgio.load(specular), labels=None)
    assert_exact_split(parts, img)


def row_major(field, values):
    """Per-entry ``values`` of a field, reordered to row-major pixel order."""
    return np.asarray(values)[np.argsort(field.pixel)]


def parallel_coeff(v, basis):
    """Dot product of (..., 3) vectors with the illumination direction,
    summed channel by channel in order."""
    d = basis.direction
    v = np.asarray(v, dtype=np.float64)
    return v[..., 0] * d[0] + v[..., 1] * d[1] + v[..., 2] * d[2]


def block_image(materials, magnitudes, block=(16, 16)):
    """Image of horizontal material bands: materials[i] * magnitudes[i].

    Each band is ``block`` pixels tall/wide, stacked vertically.
    """
    h, w = block
    rows = [
        np.broadcast_to(np.asarray(m, dtype=np.float64) * s, (h, w, 3))
        for m, s in zip(materials, magnitudes)
    ]
    return np.concatenate(rows, axis=0).copy()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance checks")
        for line in lines:
            terminalreporter.write_line(line)
