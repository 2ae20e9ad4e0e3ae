"""Smoke test of the benchmark harness: one checked operation of each
workload with the golden seed, so the goldens in perfbench/golden.json gate
every change to the package."""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", ["reference", "train", "surrogate"])
def test_one_operation_passes_its_golden_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    state = workload.setup(seed, str(tmp_path))
    result = workload.op(state, 0)
    assert workload.check(state, result, seed) == []
