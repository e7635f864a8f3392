"""The benchmark's three workloads: set-up, one operation, and its checks.

Each workload has a ``setup(seed, workdir)`` that imports roughmix and builds
the inputs, and an ``op(state, i, tracer)`` that runs operation ``i`` and
returns the grid points x paths it sampled, read or wrote. An op raises
``CheckFailed`` when an output breaks a deterministic identity or validity
check; the checks use no statistical bands, so a change to the sampler's
random stream cannot make them fail.

- ``long_path``: one 4097-point d=2 path per op, pushed through every layer,
  so the per-segment and per-interval Python loops dominate.
- ``ensemble``: many short paths and seeds (batch sampling and the
  diagnostic harnesses), with no ``signature()`` call.
- ``cli``: one ``roughmix`` subprocess per op, cycling through six commands
  on inputs written with numpy alone, so they are byte-identical across
  commits of roughmix.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckFailed(Exception):
    """An output broke one of the benchmark's correctness checks."""


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i``, derived from the workload seed."""
    return (seed * 1_000_003 + i) & 0x7FFFFFFF


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _close(a, b, rtol: float = 1e-9) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(b).max()))
    return a.shape == b.shape and float(np.abs(a - b).max()) <= rtol * scale


def _all_finite(*arrays) -> bool:
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


def _check_fit(fit, n_components: int) -> None:
    """Validity of a FitReport: finite, in range, consistent shapes."""
    k = fit.hursts_hat.size
    check(1 <= k <= n_components and fit.coeffs_sq_hat.shape == (k,),
          "fit: wrong number of components")
    check(_all_finite(fit.hursts_hat, fit.coeffs_sq_hat, fit.residual),
          "fit: non-finite estimate")
    check(((fit.hursts_hat > 0) & (fit.hursts_hat < 1)).all()
          and (fit.coeffs_sq_hat >= 0).all(), "fit: estimate out of range")
    for se in (fit.stderr_hursts, fit.stderr_coeffs_sq):
        check(se is None or (se.shape == (k,) and _all_finite(se)),
              "fit: invalid standard error")


def _merged(fit) -> int:
    return sum("merged" in flag for flag in fit.flags)


def _library():
    """Import roughmix from the checkout and collect the calls the ops make."""
    import importlib

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import roughmix

    if Path(roughmix.__file__).resolve().parent != SRC / "roughmix":
        raise RuntimeError(f"roughmix imported from {roughmix.__file__}, not {SRC}")
    mod = {m: importlib.import_module(f"roughmix.{m}")
           for m in ("gmfbm", "tensor", "lift", "signature", "rde", "estimate")}
    return SimpleNamespace(
        GmfbmSpec=mod["gmfbm"].GmfbmSpec,
        TimeGrid=mod["gmfbm"].TimeGrid,
        sample=mod["gmfbm"].sample,
        sample_batch=mod["gmfbm"].sample_batch,
        log=mod["tensor"].log,
        is_group_like=mod["tensor"].is_group_like,
        lift_piecewise_linear=mod["lift"].lift_piecewise_linear,
        p_variation=mod["lift"].p_variation,
        PartitionSchedule=mod["lift"].PartitionSchedule,
        cauchy_diagnostic=mod["lift"].cauchy_diagnostic,
        signature=mod["signature"].signature,
        cross_term_scaling=mod["signature"].cross_term_scaling,
        linear_field=mod["rde"].linear_field,
        solve=mod["rde"].solve,
        linear_exact=mod["rde"].linear_exact,
        convergence_rate=mod["rde"].convergence_rate,
        fit_mixture=mod["estimate"].fit_mixture,
    )


# --------------------------------------------------------------------------- #
# long_path

LP_N = 4096
LP_STRIDE = 16
LP_MATS = [[[1.0]], [[0.5]]]
LP_P = 2.5
LP_POINTS = LP_N + 1


def setup_long_path(seed: int, workdir: Path) -> SimpleNamespace:
    lib = _library()
    schedule = lib.PartitionSchedule()
    # dyadic blocks visited per level; p >= 2 evaluates levels 1 and 2
    blocks = 2 * sum(min(2 ** q, LP_N) for q in range(schedule.max_depth + 1))
    return SimpleNamespace(
        lib=lib,
        seed=seed,
        spec=lib.GmfbmSpec(hursts=(0.5, 0.75), coeffs=(1.0, 2.0), dim=2),
        grid=lib.TimeGrid.uniform(LP_N),
        field=lib.linear_field(LP_MATS),
        pv_blocks=blocks,
    )


def op_long_path(st, i: int, tr) -> int:
    lib = st.lib
    with tr.span("gmfbm.sample", points=LP_POINTS) as sp:
        path = lib.sample(st.spec, st.grid, op_seed(st.seed, i), method="circulant")
    sp.count("fallbacks", int(path.used_fallback))
    values = path.values
    check(values.shape == (LP_POINTS, 2) and _all_finite(values)
          and not values[0].any(), "sample: invalid path")

    with tr.span("lift.lift_piecewise_linear"):
        rp = lib.lift_piecewise_linear(path)
    x1, x2 = rp.total()
    check(_close(x1, values[-1] - values[0]), "lift: level 1 != total increment")

    with tr.span("signature.signature", segments=LP_N):
        sig = lib.signature(path, level=4)
    check(_all_finite(*sig.levels), "signature: non-finite")
    check(_close(sig.levels[1], x1) and _close(sig.levels[2], x2.ravel()),
          "signature: levels 1-2 differ from the lift total")

    with tr.span("tensor.log"):
        logsig = lib.log(sig)
    check(_all_finite(*logsig.levels) and logsig.levels[0][0] == 0.0
          and _close(logsig.levels[1], x1), "log-signature: invalid")
    with tr.span("tensor.is_group_like"):
        _, violation = lib.is_group_like(sig)
    check(violation <= 1e-10 * sig.norm_level(4),
          "signature: shuffle identity violated")

    # dY = Y dM^1 + 0.5 Y dM^2 with commuting generators: Y_T = exp(M^1 + 0.5 M^2)
    exact = math.exp(x1[0] + 0.5 * x1[1])
    with tr.span("rde.solve", intervals=LP_N):
        sol = lib.solve(rp, st.field, [1.0])
    check(_rel(sol.final[0], exact) <= 5e-3, "solve: final state off exp(M)")
    with tr.span("lift.lift_piecewise_linear"):
        sub = lib.lift_piecewise_linear(
            values[::LP_STRIDE], lib.TimeGrid(st.grid.points[::LP_STRIDE])
        )
    with tr.span("rde.linear_exact", intervals=LP_N // LP_STRIDE):
        lin = lib.linear_exact(sub, LP_MATS, [1.0])
    check(_rel(lin.final[0], exact) <= 1e-3, "linear_exact: final state off exp(M)")

    with tr.span("lift.p_variation", blocks=st.pv_blocks):
        pvar = lib.p_variation(rp, LP_P)
    # the trivial partition is in every family, so the norm bounds |X^1_{0,T}|
    check(math.isfinite(pvar) and pvar >= np.linalg.norm(x1) * (1 - 1e-12),
          "p_variation: below the total increment")

    with tr.span("estimate.fit_mixture") as sp:
        fit = lib.fit_mixture(path, n_components=2)
    sp.count("merged", _merged(fit))
    _check_fit(fit, 2)
    return LP_POINTS


# --------------------------------------------------------------------------- #
# ensemble

EN_PATHS, EN_STEPS = 5000, 64
EN_SCALES = (0.125, 0.25, 0.5, 1.0)
EN_SCALING_PATHS, EN_SCALING_STEPS = 1000, 256
EN_MESHES = range(6, 10)
EN_REF_FACTOR = 4
EN_FIT_N = 2 ** 14
EN_LAGS = [2 ** k for k in range(9)]
EN_CAUCHY_M = 9
EN_POINTS = (
    EN_PATHS * (EN_STEPS + 1)
    + (2 ** (EN_CAUCHY_M + 1) + 1)
    + 2 * (2 ** (EN_MESHES[-1] + 2) + 1)
    + len(EN_SCALES) * EN_SCALING_PATHS * (EN_SCALING_STEPS + 1)
    + (EN_FIT_N + 1)
)


def setup_ensemble(seed: int, workdir: Path) -> SimpleNamespace:
    lib = _library()
    return SimpleNamespace(
        lib=lib,
        seed=seed,
        batch_spec=lib.GmfbmSpec(hursts=(0.5, 0.75), coeffs=(1.0, 2.0), dim=2),
        batch_grid=lib.TimeGrid.uniform(EN_STEPS),
        cauchy_spec=lib.GmfbmSpec(hursts=(0.6,), coeffs=(1.0,)),
        rate_spec=lib.GmfbmSpec(hursts=(0.5,), coeffs=(1.0,)),
        rate_field=lib.linear_field([[[1.0]]]),
        fit_spec=lib.GmfbmSpec(hursts=(0.5, 0.75), coeffs=(1.0, 2.0), horizon=64.0),
        fit_grid=lib.TimeGrid.uniform(EN_FIT_N, 64.0),
    )


def op_ensemble(st, i: int, tr) -> int:
    lib = st.lib
    s = op_seed(st.seed, i)
    with tr.span("gmfbm.sample_batch", points=EN_PATHS * (EN_STEPS + 1)):
        batch = lib.sample_batch(st.batch_spec, st.batch_grid, s, EN_PATHS,
                                 method="circulant")
    check(batch.shape == (EN_PATHS, EN_STEPS + 1, 2) and _all_finite(batch)
          and not batch[:, 0].any(), "sample_batch: invalid paths")

    with tr.span("lift.cauchy_diagnostic"):
        cauchy = lib.cauchy_diagnostic(st.cauchy_spec, EN_CAUCHY_M, 2.1, [s])
    dists = [d for _, _, d in cauchy["rows"]]
    check(len(dists) == EN_CAUCHY_M and _all_finite(dists) and min(dists) >= 0,
          "cauchy_diagnostic: invalid distances")

    with tr.span("rde.convergence_rate"):
        rate = lib.convergence_rate(st.rate_spec, st.rate_field, [1.0], EN_MESHES,
                                    [s, s + 1], ref_factor=EN_REF_FACTOR)
    errs = [e for _, _, e in rate["rows"]]
    check(len(errs) == 2 * len(EN_MESHES) and _all_finite(errs, rate["slopes"])
          and min(errs) >= 0, "convergence_rate: invalid errors")

    with tr.span("signature.cross_term_scaling"):
        scaling = lib.cross_term_scaling(0.5, 0.75, EN_SCALES, EN_SCALING_PATHS, s,
                                         n_steps=EN_SCALING_STEPS)
    check(_all_finite(scaling["moments"], scaling["slope"])
          and min(scaling["moments"]) > 0, "cross_term_scaling: invalid moments")

    with tr.span("gmfbm.sample", points=EN_FIT_N + 1) as sp:
        path = lib.sample(st.fit_spec, st.fit_grid, s, method="circulant")
    sp.count("fallbacks", int(path.used_fallback))
    check(_all_finite(path.values) and not path.values[0].any(),
          "sample: invalid path")
    with tr.span("estimate.fit_mixture") as sp:
        fit = lib.fit_mixture(path, lags=EN_LAGS, n_components=2,
                              n_bootstrap=50, bootstrap_seed=s)
    sp.count("merged", _merged(fit))
    _check_fit(fit, 2)
    return EN_POINTS


# --------------------------------------------------------------------------- #
# cli

CLI_PATH2_N, CLI_PATH1_N, CLI_SIM_N = 8192, 16384, 2048
CLI_TIMEOUT_S = 150.0
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


def _write_path_csv(file: Path, values: np.ndarray) -> None:
    n, d = values.shape
    times = np.linspace(0.0, 1.0, n)
    header = "t," + ",".join(f"x{k + 1}" for k in range(d))
    np.savetxt(file, np.column_stack([times, values]), fmt="%.17g",
               delimiter=",", header=header, comments="")


def _mixed_walk(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Brownian steps plus a smoother, positively correlated component."""
    dt = 1.0 / n
    rough = rng.standard_normal((n, d)) * dt ** 0.5
    kernel = np.full(16, 1.0 / 16)
    noise = rng.standard_normal((n + kernel.size - 1, d))
    smooth = np.column_stack(
        [np.convolve(noise[:, k], kernel, mode="valid") for k in range(d)]
    ) * dt ** 0.75
    values = np.zeros((n + 1, d))
    np.cumsum(rough + 2.0 * smooth, axis=0, out=values[1:])
    return values


def _strict_json(file: Path):
    def reject(token):
        raise CheckFailed(f"{file.name}: non-finite token {token}")

    return json.loads(file.read_text(), parse_constant=reject)


def _csv_rows(file: Path, header: str, rows: int) -> np.ndarray:
    lines = file.read_text().splitlines()
    check(lines[:1] == [header], f"{file.name}: bad header")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    check(data.shape[0] == rows and _all_finite(data),
          f"{file.name}: wrong row count or non-finite value")
    return data


def _check_tensor(file: Path, total, log: bool) -> None:
    obj = _strict_json(file)
    check(obj["dim"] == 2 and obj["level"] == 4
          and [len(lv) for lv in obj["levels"]] == [1, 2, 4, 8, 16],
          "signature.json: wrong shape")
    check(obj["levels"][0] == [0.0 if log else 1.0], "signature.json: level 0")
    check(_close(obj["levels"][1], total), "signature.json: level 1 != increment")


def _check_level2(file: Path, total) -> None:
    obj = _strict_json(file)
    inc1 = np.asarray(obj["inc1"], dtype=float)
    check(len(obj["grid"]) == CLI_PATH2_N + 1 and inc1.shape == (CLI_PATH2_N, 2)
          and np.asarray(obj["inc2"]).shape == (CLI_PATH2_N, 4),
          "level2.json: wrong shape")
    check(_close(inc1.sum(axis=0), total), "level2.json: increments != total")


def _check_fit_json(file: Path) -> None:
    obj = _strict_json(file)
    h = np.asarray(obj["hursts_hat"], dtype=float)
    c = np.asarray(obj["coeffs_sq_hat"], dtype=float)
    check(1 <= h.size <= 2 and c.shape == h.shape and _all_finite(h, c),
          "fit.json: invalid estimate")
    check(((h > 0) & (h < 1)).all() and (c >= 0).all(), "fit.json: out of range")


@dataclass(frozen=True)
class CliCommand:
    name: str
    args: tuple[str, ...]
    inputs: tuple[str, ...]
    points: int
    check: Callable[[SimpleNamespace, Path], None]


CLI_COMMANDS = (
    CliCommand(
        "sim", ("sim", "--spec", "{spec}", "--n", str(CLI_SIM_N), "--seed", "{seed}"),
        ("spec",), CLI_SIM_N + 1,
        lambda st, out: _csv_rows(out / "path.csv", "t,x1", CLI_SIM_N + 1),
    ),
    CliCommand(
        "lift", ("lift", "--input", "{path2}"), ("path2",), CLI_PATH2_N + 1,
        lambda st, out: _check_level2(out / "level2.json", st.total2),
    ),
    CliCommand(
        "sig", ("sig", "--input", "{path2}", "--level", "4"), ("path2",),
        CLI_PATH2_N + 1,
        lambda st, out: _check_tensor(out / "signature.json", st.total2, log=False),
    ),
    CliCommand(
        "sig_log", ("sig", "--input", "{path2}", "--level", "4", "--log"),
        ("path2",), CLI_PATH2_N + 1,
        lambda st, out: _check_tensor(out / "signature.json", st.total2, log=True),
    ),
    CliCommand(
        "solve", ("solve", "--driver", "{path2}", "--field", "bilinear",
                  "--y0", "1.0,0.5"), ("path2",), CLI_PATH2_N + 1,
        lambda st, out: _csv_rows(out / "solution.csv", "t,y1,y2", CLI_PATH2_N + 1),
    ),
    CliCommand(
        "estimate", ("estimate", "--input", "{path1}", "--components", "2",
                     "--bootstrap", "50"), ("path1",), CLI_PATH1_N + 1,
        lambda st, out: _check_fit_json(out / "fit.json"),
    ),
)


def checkout_env() -> dict:
    """Environment in which a child ``python`` imports roughmix from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def run_cli(argv: list[str], env: dict, stderr_file: Path) -> tuple[int, float]:
    """Run one CLI process to completion; return (exit code, its peak RSS in MiB)."""
    with open(stderr_file, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, env=env)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def setup_cli(seed: int, workdir: Path) -> SimpleNamespace:
    _library()  # the checkout's package must import before any op runs
    rng = np.random.default_rng(seed)
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    path2 = _mixed_walk(rng, CLI_PATH2_N, 2)
    path1 = _mixed_walk(rng, CLI_PATH1_N, 1)
    files = {"path2": inputs / "path2.csv", "path1": inputs / "path1.csv",
             "spec": inputs / "spec.json"}
    _write_path_csv(files["path2"], path2)
    _write_path_csv(files["path1"], path1)
    hursts = [round(float(rng.uniform(0.3, 0.5)), 6),
              round(float(rng.uniform(0.6, 0.9)), 6)]
    files["spec"].write_text(json.dumps(
        {"hursts": hursts, "coeffs": [1.0, 2.0], "dim": 1, "horizon": 1.0}) + "\n")
    return SimpleNamespace(
        seed=seed, files=files, env=checkout_env(), out=workdir / "op",
        total2=path2[-1] - path2[0], run=run_cli, peak_rss_mib=0.0, probes=None,
        sizes={k: f.stat().st_size for k, f in files.items()},
    )


def op_cli(st, i: int, tr) -> int:
    cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
    subs = {k: str(f) for k, f in st.files.items()}
    subs["seed"] = str(op_seed(st.seed, i))
    probes_file = st.out.with_suffix(".probes")
    argv = [sys.executable, str(CLI_CHILD), str(probes_file)]
    argv += [a.format(**subs) for a in cmd.args] + ["-o", str(st.out)]
    shutil.rmtree(st.out, ignore_errors=True)
    probes_file.unlink(missing_ok=True)
    st.probes = None
    stderr_file = st.out.with_suffix(".stderr")
    with tr.span(f"cli.{cmd.name}") as sp:
        code, rss = st.run(argv, st.env, stderr_file)
    st.peak_rss_mib = max(st.peak_rss_mib, rss)
    if code != 0:
        tail = stderr_file.read_text(errors="replace").strip().splitlines()[-1:]
        raise CheckFailed(f"{cmd.name}: exit code {code} {tail}")
    st.probes = tuple(map(float, probes_file.read_text().split()))
    written = sum(f.stat().st_size for f in st.out.iterdir())
    sp.count("bytes_read", sum(st.sizes[k] for k in cmd.inputs))
    sp.count("bytes_written", written)
    check((st.out / "manifest.json").is_file(), f"{cmd.name}: no manifest.json")
    _strict_json(st.out / "manifest.json")
    cmd.check(st, st.out)
    return cmd.points


# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], SimpleNamespace]
    op: Callable[[SimpleNamespace, int, object], int]
    # ops in one cycle; a run times whole cycles so every command is weighed alike
    ops_per_cycle: int = 1
    # the work runs in child processes, so peak RSS and speed probes are theirs
    in_children: bool = False


WORKLOADS = {
    "long_path": Workload(setup_long_path, op_long_path),
    "ensemble": Workload(setup_ensemble, op_ensemble),
    "cli": Workload(setup_cli, op_cli, ops_per_cycle=len(CLI_COMMANDS),
                    in_children=True),
}


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of ``python -c "import roughmix.cli"`` in a fresh process."""
    env = checkout_env()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import roughmix.cli"], env=env,
                       check=True, timeout=CLI_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
