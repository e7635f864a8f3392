"""The library calls the benchmark makes, run once in-process.

``perfbench/workloads.py`` is loaded from its file (nothing under
``perfbench/`` is written) and op 0 of the in-process workloads runs
untraced, so removing or renaming a call the benchmark makes fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("name", ["long_path", "ensemble"])
def test_benchmark_op_runs(name, tmp_path):
    workloads, spans = _load("workloads"), _load("spans")
    workload = workloads.WORKLOADS[name]
    state = workload.setup(7, tmp_path)
    assert workload.op(state, 0, spans.NullTracer()) > 0
