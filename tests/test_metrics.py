"""Reconstruction quality and clustering-accuracy scoring."""

import math

import numpy as np
import pytest

from despec import errors
from despec.metrics import EvalReport, cluster_accuracy, psnr, write_report


class TestPsnr:
    def test_identical_is_infinite(self):
        img = np.random.default_rng(0).random((20, 30, 3))
        assert psnr(img, img) == math.inf

    def test_uniform_tenth_offset_is_twenty_db(self):
        truth = np.full((10, 10, 3), 0.5)
        assert psnr(truth + 0.1, truth) == pytest.approx(20.0, rel=1e-12)

    def test_uniform_hundredth_offset_is_forty_db(self):
        truth = np.full((10, 10, 3), 0.5)
        assert psnr(truth + 0.01, truth) == pytest.approx(40.0, rel=1e-12)

    def test_monotone_in_error_magnitude(self):
        truth = np.full((8, 8, 3), 0.4)
        values = [psnr(truth + e, truth) for e in (0.001, 0.01, 0.05, 0.2)]
        assert values == sorted(values, reverse=True)

    def test_tiny_error_counts_as_exact(self):
        truth = np.full((8, 8, 3), 0.4)
        assert psnr(truth + 1e-12, truth) == math.inf  # MSE 1e-24 under the floor

    def test_shape_mismatch(self):
        with pytest.raises(errors.DimensionMismatchError):
            psnr(np.zeros((4, 4, 3)), np.zeros((4, 5, 3)))


class TestClusterAccuracy:
    def quadrant_truth(self, n=40):
        truth = np.zeros((n, n), dtype=int)
        truth[: n // 2, n // 2:] = 1
        truth[n // 2:, : n // 2] = 2
        truth[n // 2:, n // 2:] = 3
        return truth

    def test_identical_maps(self):
        truth = self.quadrant_truth()
        assert cluster_accuracy(truth, truth) == 1.0

    def test_refinement_not_penalized(self):
        """Splitting one true material into several clusters is fine as
        long as no cluster mixes materials."""
        truth = np.zeros((20, 20), dtype=int)
        truth[10:] = 1
        pred = truth.copy()
        pred[:5] = 2   # top half split into clusters 0 and 2
        assert cluster_accuracy(pred, truth) == 1.0

    def test_merging_is_penalized(self):
        truth = self.quadrant_truth()
        pred = np.zeros_like(truth)  # everything in one cluster
        assert cluster_accuracy(pred, truth) == 0.25

    def test_permutation_invariant(self):
        truth = self.quadrant_truth()
        rng = np.random.default_rng(11)
        pred = truth.copy()
        pred[0, 0] = 2  # one wrong pixel so accuracy is not saturated
        perm = rng.permutation(4)
        assert cluster_accuracy(perm[pred], truth) == cluster_accuracy(pred, truth)

    def test_random_labels_score_near_chance(self):
        truth = self.quadrant_truth(100)
        pred = np.random.default_rng(0).integers(0, 4, truth.shape)
        assert cluster_accuracy(pred, truth) == pytest.approx(0.25, abs=0.02)

    def test_flagged_pixels_excluded(self):
        truth = np.zeros((10, 10), dtype=int)
        truth[5:] = 1
        pred = truth.copy()
        pred[0, :5] = -1   # five flagged pixels do not count at all
        assert cluster_accuracy(pred, truth) == 1.0
        pred[1, :] = 1     # ten genuinely wrong pixels out of 95 valid
        assert cluster_accuracy(pred, truth) == pytest.approx(85 / 95, rel=1e-12)

    def test_all_flagged(self):
        truth = np.zeros((4, 4), dtype=int)
        assert cluster_accuracy(np.full((4, 4), -1), truth) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(errors.DimensionMismatchError):
            cluster_accuracy(np.zeros((4, 4), dtype=int), np.zeros((5, 4), dtype=int))


class TestEvalReport:
    def test_full_report_lines(self):
        report = EvalReport(psnr_diffuse=37.25, psnr_specular=math.inf,
                            cluster_accuracy=0.9975)
        assert report.to_lines() == [
            "psnr_diffuse_db = 37.25",
            "psnr_specular_db = inf",
            "cluster_accuracy = 0.997500",
        ]

    def test_none_fields_omitted(self):
        report = EvalReport(psnr_diffuse=20.0)
        assert report.to_lines() == ["psnr_diffuse_db = 20"]

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report(EvalReport(psnr_diffuse=math.inf, cluster_accuracy=1.0), path)
        text = path.read_text()
        assert text == "psnr_diffuse_db = inf\ncluster_accuracy = 1.000000\n"
