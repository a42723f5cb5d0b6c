"""tools/digests.py: the record of one run and the comparison of two sides."""

import importlib.util
from pathlib import Path

import numpy as np

from despec import synth
from despec.clustering import ClusterConfig
from despec.pipeline import PipelineConfig

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
_spec = importlib.util.spec_from_file_location("digests", DIGESTS)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def tiny_record(**cfg):
    img = synth.add_noise(synth.render(synth.builtin_scene("four-materials", 48, 32)), 3.0)
    return digests.record(img, PipelineConfig(threads=1, **cfg))


def test_a_run_digests_equal_twice():
    first, second = tiny_record(), tiny_record()
    assert first == second
    assert digests.differing({"tiny": first}, {"tiny": second}) == []
    assert {"diffuse", "specular", "labels"} <= set(first)
    assert "k_history = 1,2,4" in first["lines"]
    assert not any("seconds" in line for line in first["lines"])


def test_a_changed_digest_differs():
    parent = {"tiny": tiny_record(), "fast": tiny_record(fast=True)}
    change = {name: dict(rec) for name, rec in parent.items()}
    change["tiny"]["labels"] = "0" * 64
    assert digests.differing(parent, change) == ["tiny"]
    change["tiny"] = parent["tiny"]
    change["fast"]["lines"] = change["fast"]["lines"] + ["warning NoConvergenceWarning: x"]
    assert digests.differing(parent, change) == ["fast"]


def test_a_run_one_side_lacks_differs():
    rec = tiny_record()
    assert digests.differing({"a": rec, "b": rec}, {"a": rec}) == ["b"]
    assert digests.differing({"a": rec}, {"a": rec, "c": rec}) == ["c"]


def test_the_fallback_runs_take_the_percentile_fallback(monkeypatch):
    calls = []
    percentile = np.percentile
    monkeypatch.setattr(np, "percentile", lambda *a, **kw: calls.append(a) or percentile(*a, **kw))
    for k in (1, 8):
        calls.clear()
        rec = digests.record(digests.fallback_image(),
                             PipelineConfig(threads=1, cluster=ClusterConfig(initial_k=k)))
        assert len(calls) == 1  # the one cluster's model
        assert "passthrough_clusters = 0" in rec["lines"]
