"""perfbench/core.py still runs on this despec: each workload, shrunk to
96x64, renders its inputs, runs its operation and passes its checks; and
perfbench/tracer.py still finds what ``run.py --trace 1`` reports."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


core = _load("core")
tracer = _load("tracer")

# targets that no longer exist in the package, which the tracer reports
# absent and skips
STALE_TARGETS = {"pipeline.assign_to_centers", "clustering.chromaticity_field"}


@pytest.mark.parametrize("name", sorted(core.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    workload = dataclasses.replace(core.WORKLOADS[name], width=96, height=64)
    truth, paths = core.make_inputs(workload, 1, str(tmp_path))
    assert len(paths) == core.IMAGES_PER_RUN
    out = tmp_path / "out"
    out.mkdir()
    for path in paths:
        outcome = core.operation(path, str(out), core.config(workload, workload.threads))
        checked = core.check(outcome, truth)
        assert checked.problems == [], (path, checked)
        assert outcome.warnings == [], (path, outcome.warnings)


@pytest.mark.parametrize("name", sorted(core.WORKLOADS))
def test_tracer_takes_its_counts(name, tmp_path):
    """The tracer drops a count whose function changed shape without a
    word; these three feed the benchmark's per-layer records."""
    workload = dataclasses.replace(core.WORKLOADS[name], width=96, height=64)
    _, paths = core.make_inputs(workload, 1, str(tmp_path))
    traced = tracer.Tracer()
    with traced.installed(0):
        core.operation(paths[0], str(tmp_path), core.config(workload, workload.threads))
    counts = traced.op_metrics(0)
    for count in ("recovery.models", "recovery.passthrough", "recovery.separate_image.bytes"):
        assert count in counts, count
    assert counts["recovery.separate_image.calls"] == 1
    assert set(traced.absent) <= STALE_TARGETS
