"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload with a tiny op count, untraced and traced, and checks
that the result line carries exactly the metric names and units that
BENCHMARK.json declares, each also printed on a ``#`` line, with no failed
op. Then runs each workload in-process with one output deliberately
corrupted and checks that the corrupted ops are counted as failed.
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import workloads

SEED = 1


def fail(msg: str) -> None:
    sys.exit(f"smoke: FAIL {msg}")


def declared() -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
        "workloads": [w["name"] for w in bench["workloads"]],
    }


def check_names_and_units(name: str, trace: int, expected: dict) -> None:
    ops = workloads.WORKLOADS[name].ops_per_cycle * (1 + trace)
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
         "--seed", str(SEED), "--ops", str(ops), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    if done.returncode != 0:
        fail(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] != ops + 1:
        fail(f"{name} trace={trace}: {lines[-1]}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected[trace]:
        fail(f"{name} trace={trace}: metrics {got} != declared {expected[trace]}")
    printed = {tuple(line[2:].split()[::2]) for line in lines[:-1]}
    for metric, unit in got.items():
        if (metric, unit) not in printed:
            fail(f"{name} trace={trace}: no '# {metric} <value> {unit}' line")
    if trace == 0 and not any(line.startswith("# fail_frac") for line in lines):
        fail(f"{name}: fail_frac not printed")
    print(f"smoke: {name} trace={trace}: {len(got)} metrics, {ops} ops ok")


def _corrupt_signature(lib):
    signature = lib.signature

    def corrupted(*args, **kwargs):
        sig = signature(*args, **kwargs)
        sig.levels[1][0] += 1.0
        return sig

    lib.signature = corrupted


def _corrupt_batch(lib):
    sample_batch = lib.sample_batch

    def corrupted(*args, **kwargs):
        values = sample_batch(*args, **kwargs)
        values[0, -1, 0] = np.nan
        return values

    lib.sample_batch = corrupted


def _corrupt_cli(st):
    run_cli = st.run

    def corrupted(argv, env, stderr_file):
        result = run_cli(argv, env, stderr_file)
        out = st.out / "signature.json"
        if out.is_file():
            obj = json.loads(out.read_text())
            obj["levels"][1][0] += 1.0
            out.write_text(json.dumps(obj))
        return result

    st.run = corrupted


# workload -> (corrupt the set-up state, timed ops, expected failed ops)
CORRUPTIONS = {
    "long_path": (lambda st: _corrupt_signature(st.lib), 1, 2),
    "ensemble": (lambda st: _corrupt_batch(st.lib), 1, 2),
    # warm-up runs estimate, then sim, lift, sig: only sig writes signature.json
    "cli": (_corrupt_cli, 3, 1),
}


def check_corruption_counted(name: str) -> None:
    corrupt, ops, expected = CORRUPTIONS[name]
    workload = workloads.WORKLOADS[name]
    workdir = run.OUT / f"smoke-{name}"
    try:
        state = workload.setup(SEED, workdir)
        corrupt(state)
        result = run.measure(workload, state, 0.0, ops, trace=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(result["failures"])
    if failed != expected or not all("CheckFailed" in f for f in result["failures"]):
        fail(f"{name}: corrupted output gave {failed}/{result['attempted']} failed "
             f"(want {expected}): {result['failures']}")
    print(f"smoke: {name}: corrupted output counted, fail_frac "
          f"{failed}/{result['attempted']}")


def main() -> int:
    expected = declared()
    if sorted(expected["workloads"]) != sorted(workloads.WORKLOADS):
        fail(f"workloads {expected['workloads']} != {sorted(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_names_and_units(name, trace, expected)
        check_corruption_counted(name)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
