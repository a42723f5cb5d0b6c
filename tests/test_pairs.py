"""tools/pairs.py: the quartiles and the per-metric summary of paired runs."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", PAIRS)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BETTER = {"image_s.p50": "lower", "mpix_per_s": "higher"}


def result(p50, mpix, failed=0, attempted=40):
    """One perfbench result line as pairs.bench returns it."""
    return {"failed": failed, "attempted": attempted,
            "metrics": {"image_s.p50": {"value": p50, "unit": "s"},
                        "mpix_per_s": {"value": mpix, "unit": "Mpix/s"}}}


def line(lines, name):
    (found,) = [text for text in lines if text.startswith(name)]
    return found


class TestQuartiles:
    def test_single_value(self):
        assert pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)

    def test_inclusive_method(self):
        assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert pairs.quartiles([1.0, 3.0]) == (1.5, 2.0, 2.5)


class TestSummarize:
    def test_single_pair(self):
        lines = pairs.summarize("w", [{"parent": result(0.2, 5.0), "change": result(0.1, 10.0)}],
                                BETTER)
        assert lines[0] == "== w: 1 of 1 pairs with both results"
        assert "parent 0.2 [0.2, 0.2]" in line(lines, "image_s.p50")
        assert "change 0.1 [0.1, 0.1]" in line(lines, "image_s.p50")
        assert "won 1/1" in line(lines, "image_s.p50")

    @pytest.mark.parametrize("name,parent,change,won", [
        ("image_s.p50", 0.2, 0.1, 1),  # lower is better
        ("image_s.p50", 0.1, 0.2, 0),
        ("mpix_per_s", 5.0, 10.0, 1),  # higher is better
        ("mpix_per_s", 10.0, 5.0, 0),
    ])
    def test_directions(self, name, parent, change, won):
        p50 = {"image_s.p50": (parent, change)}.get(name, (0.1, 0.1))
        mpix = {"mpix_per_s": (parent, change)}.get(name, (1.0, 1.0))
        lines = pairs.summarize("w", [{"parent": result(p50[0], mpix[0]),
                                       "change": result(p50[1], mpix[1])}], BETTER)
        assert f"won {won}/1" in line(lines, name)

    def test_tie_wins_for_neither(self):
        lines = pairs.summarize("w", [{"parent": result(0.1, 5.0), "change": result(0.1, 5.0)}],
                                BETTER)
        assert "won 0/1" in line(lines, "image_s.p50")
        assert "won 0/1" in line(lines, "mpix_per_s")

    def test_metric_without_direction(self):
        lines = pairs.summarize("w", [{"parent": result(0.2, 5.0), "change": result(0.1, 6.0)}],
                                {"mpix_per_s": "higher"})
        assert "won -/1" in line(lines, "image_s.p50")

    def test_pairs_with_an_error_side_are_skipped(self):
        runs = [{"parent": result(0.2, 5.0, failed=1), "change": result(0.1, 10.0)},
                {"parent": {"error": "exit 2: boom"}, "change": result(0.5, 1.0, failed=7)},
                {"parent": result(0.3, 4.0), "change": {"error": "no result within 300 s"}},
                {"parent": result(0.4, 3.0), "change": result(0.3, 4.0, failed=2, attempted=50)}]
        lines = pairs.summarize("w", runs, BETTER)
        assert lines[0] == "== w: 2 of 4 pairs with both results"
        assert "won 2/2" in line(lines, "image_s.p50")
        assert "parent 0.3 [0.25, 0.35]" in line(lines, "image_s.p50")
        assert line(lines, "parent failed") == "parent failed 1/80"
        assert line(lines, "change failed") == "change failed 2/90"

    def test_no_pair_with_both_results(self):
        lines = pairs.summarize("w", [{"parent": {"error": "x"}, "change": result(0.1, 1.0)}],
                                BETTER)
        assert lines == ["== w: 0 of 1 pairs with both results"]


class TestBounds:
    BOUNDS = {"image_s.p50": 0.24, "mpix_per_s": 0.24}

    @pytest.mark.parametrize("name,parent,change,shown,past", [
        ("image_s.p50", 0.10, 0.12, "+20.0% vs bound 24%", False),  # lower is better
        ("image_s.p50", 0.10, 0.126, "+26.0% vs bound 24%", True),
        ("image_s.p50", 0.10, 0.05, "-50.0% vs bound 24%", False),
        ("mpix_per_s", 10.0, 8.0, "-20.0% vs bound 24%", False),    # higher is better
        ("mpix_per_s", 10.0, 7.0, "-30.0% vs bound 24%", True),
        ("mpix_per_s", 10.0, 20.0, "+100.0% vs bound 24%", False),
    ])
    def test_change_against_its_bound(self, name, parent, change, shown, past):
        p50 = {"image_s.p50": (parent, change)}.get(name, (0.1, 0.1))
        mpix = {"mpix_per_s": (parent, change)}.get(name, (1.0, 1.0))
        lines = pairs.summarize("w", [{"parent": result(p50[0], mpix[0]),
                                       "change": result(p50[1], mpix[1])}], BETTER, self.BOUNDS)
        text = line(lines, name)
        assert text.endswith(shown + (" PAST BOUND" if past else ""))

    def test_a_metric_without_a_bound_shows_none(self):
        """A per_layer name has no bound, so its line shows none."""
        lines = pairs.summarize("w", [{"parent": result(0.1, 5.0), "change": result(0.3, 1.0)}],
                                BETTER, {"image_s.p50": 0.24})
        assert line(lines, "image_s.p50").endswith("+200.0% vs bound 24% PAST BOUND")
        assert "bound" not in line(lines, "mpix_per_s")
