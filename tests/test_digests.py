"""tools/digests.py: the record of one run and the comparison of two sides."""

import importlib.util
from pathlib import Path

import numpy as np

from despec import clustering, pipeline, synth
from despec.clustering import FLAG_VALID, LABEL_ACHROMATIC, LABEL_BLACK, ClusterConfig
from despec.model import IlluminationBasis
from despec.pipeline import PipelineConfig

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
_spec = importlib.util.spec_from_file_location("digests", DIGESTS)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def tiny_image():
    return synth.add_noise(synth.render(synth.builtin_scene("four-materials", 48, 32)), 3.0)


def tiny_record(**cfg):
    return digests.record(tiny_image(), PipelineConfig(threads=1, **cfg))


def test_a_run_digests_equal_twice():
    first, second = tiny_record(), tiny_record()
    assert first == second
    assert digests.differing({"tiny": first}, {"tiny": second}) == []
    assert {"input", "diffuse", "specular", "labels"} <= set(first)
    assert first["input"] == digests._sha256(tiny_image())
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


def test_the_wheel_runs_take_the_float64_labeling_fallback(monkeypatch):
    """The wheel puts pixels of every kind through the separation
    kernel's float64 fallback: black, gray, and valid ones whose hue
    bucket is unsafe.  split_block takes (n, 3) pixels only there; the
    field passes it (rows, width, 3) chunks."""
    gathered = []
    split_block = clustering.split_block
    monkeypatch.setattr(clustering, "split_block", lambda block, basis: (
        gathered.append(block) if block.ndim == 2 else None) or split_block(block, basis))
    wheel = [run for run in digests.scene_runs() if run[0].startswith("wheel ")]
    assert [(cfg.fast, cfg.threads) for _, _, cfg in wheel] == [(True, 1), (True, 2)]
    img = wheel[0][1]
    assert img.dtype == np.float32 and min(img.shape[:2]) >= 16
    for name, img, cfg in wheel:
        gathered.clear()
        rec = digests.record(img, cfg)
        assert "downsampled = true" in rec["lines"], name
        pixels = np.concatenate(gathered)
        assert pixels.dtype == np.float32 and 0 < len(pixels) < img.shape[0] * img.shape[1] / 2
        flags = set(split_block(pixels, IlluminationBasis.white())[2].tolist())
        assert flags == {FLAG_VALID, LABEL_BLACK, LABEL_ACHROMATIC}, name


def test_the_tint_runs_take_from_rgb_and_white_balance(monkeypatch):
    """The non-white runs put the illumination's basis and its white
    balance under the byte-identity check; every other run is white."""
    calls = []
    from_rgb = IlluminationBasis.from_rgb.__func__
    balance = pipeline.white_balance
    monkeypatch.setattr(IlluminationBasis, "from_rgb", classmethod(
        lambda cls, rgb: calls.append("from_rgb") or from_rgb(cls, rgb)))
    monkeypatch.setattr(pipeline, "white_balance",
                        lambda img, illum: calls.append("white_balance") or balance(img, illum))
    tint = [run for run in digests.scene_runs() if " tint " in run[0]]
    assert [(cfg.illumination, cfg.fast) for _, _, cfg in tint] == [
        ("1,0.8,0.6", False), ("1,0.8,0.6", True),
        ("divide:1,0.8,0.6", False), ("divide:1,0.8,0.6", True)]
    for name, img, cfg in tint:
        calls.clear()
        digests.record(img, cfg)
        assert calls == ["white_balance" if "divide:" in name else "from_rgb"], name


def test_single_3_passes_one_cluster_through():
    """The one run whose model is a pass-through keeps it."""
    runs = {name: (img, cfg) for name, img, cfg in digests.scene_runs()
            if name.startswith("single-3 ")}
    rec = digests.record(*runs["single-3 sigma=3 full initial_k=8"])
    assert "passthrough_clusters = 1" in rec["lines"]
