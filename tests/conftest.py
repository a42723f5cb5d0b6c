"""Shared test helpers.

Also hooks the acceptance checks' pass/fail lines into the terminal
summary so they are visible in a normal ``pytest -v`` run.
"""

import sys

import numpy as np

from despec.clustering import SpecularFreeField


def make_field(directions):
    """SpecularFreeField over an (H, W, 3) grid with every pixel valid,
    each pixel's chromaticity being its direction itself."""
    dirs = np.asarray(directions, dtype=np.float64)
    flags = np.zeros(dirs.shape[:2], dtype=np.uint8)
    return SpecularFreeField(directions=dirs, amplitude=np.ones(dirs.shape[:2]),
                             parallel=np.zeros(dirs.shape[:2]), flags=flags)


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
