"""Shared test helpers.

Also hooks the acceptance checks' pass/fail lines into the terminal
summary so they are visible in a normal ``pytest -v`` run.
"""

import sys

import numpy as np
from hypothesis import settings

from despec.clustering import SpecularFreeField

# The one profile of every property test: the same examples on each run,
# no example database left behind, and no per-example deadline, which a
# loaded host would trip.
settings.register_profile("despec", derandomize=True, database=None, deadline=None)
settings.load_profile("despec")


def make_field(hues):
    """SpecularFreeField over an (H, W) grid of hue angles with every
    pixel valid, each pixel's chromaticity being its unit direction."""
    hue = np.asarray(hues, dtype=np.float64)
    flags = np.zeros(hue.shape, dtype=np.uint8)
    pixel = np.argsort(hue.reshape(-1)).astype(np.int32)
    return SpecularFreeField(hue=hue.reshape(-1)[pixel], amplitude=np.ones(hue.size),
                             parallel=np.zeros(hue.size), pixel=pixel, flags=flags)


def row_major(field, values):
    """Per-entry ``values`` of a field, reordered to row-major pixel order."""
    return np.asarray(values)[np.argsort(field.pixel)]


def parallel_coeff(v, basis):
    """Dot product of (..., 3) vectors with the illumination direction,
    summed in the same order as the field's ``parallel``."""
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
