"""perfbench/core.py still runs on this despec: each workload, shrunk to
96x64, renders its inputs, runs its operation and passes its checks."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parents[1] / "perfbench" / "core.py"
_spec = importlib.util.spec_from_file_location("perfbench_core", CORE)
core = sys.modules["perfbench_core"] = importlib.util.module_from_spec(_spec)  # for its dataclasses
_spec.loader.exec_module(core)


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
