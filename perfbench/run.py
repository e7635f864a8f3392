"""Benchmark of roughmix: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload {long_path,ensemble,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; roughmix is imported from its ``src/``.
The next op starts when the previous one returns; ``cli`` ops run one
``roughmix`` subprocess at a time. After the set-up and one untimed warm-up
op, ops run for ``--seconds``, ending at the op boundary nearest to it (for
``cli``, the nearest boundary of a whole six-command cycle); each op is
checked for correctness (see workloads.py).

Every time behind an end-to-end metric is rescaled to a reference host
speed by a probe timed before and after it, in the process that does the
work (see speed.py): this one, a fresh one for each extra set-up, or for
``cli`` the op's own. ``setup_s`` is the median of ``SETUP_RUNS`` rescaled
set-ups. The unscaled figures are printed on ``#`` lines and kept in the
record.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics from spans the benchmark records around its calls into
roughmix; it traces every other op (every other cycle for ``cli``) so the
untraced ops of the same run give the tracing overhead.

Lines starting with ``#`` give the environment, the op count and every
metric with its unit, ``fail_frac`` included; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record, with the spans of a traced run, goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

import time

from speed import probe  # standard library only

_BEFORE = probe()  # host speed just before the set-up
_START = time.perf_counter()  # workload start: before numpy or roughmix is imported

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import workloads
from speed import PROBE_REF_S, rescale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_RUNS = 5  # set-ups per run (this process and four fresh ones); median reported


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("long_path", "ensemble", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many timed ops instead of --seconds")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# environment


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            name = os.path.basename(line.split()[-1]).lower()
            if name.startswith("lib") and "blas" in name and ".so" in name:
                libs.add(line.split()[-1])
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # loads scipy's LAPACK/BLAS

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------- #
# measurement


def _fresh_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time, unscaled and rescaled, of a fresh process running the same set-up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup = json.loads(done.stdout.strip().splitlines()[-1])
    return setup["setup_s"], setup["scaled_setup_s"]


def _run_op(workload, state, i: int, tracer):
    """Run op i; return (points, failure message or None)."""
    try:
        with tracer.op(i):
            return workload.op(state, i, tracer), None
    except Exception as err:  # a failed op is counted and the run goes on
        return 0, f"op {i}: {type(err).__name__}: {err}"


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(workload, state, seconds: float, ops: int, trace: bool) -> dict:
    null = spans.NullTracer()
    tracer = spans.Tracer() if trace else null
    _, warm_failure = _run_op(workload, state, -1, null)
    failures = [warm_failure] if warm_failure else []

    per_cycle = workload.ops_per_cycle

    def more(i: int) -> bool:
        if ops:
            return i < ops
        if i % per_cycle:
            return True
        # stop at the cycle boundary nearest to the time limit
        elapsed = time.perf_counter() - begin
        return elapsed + 0.5 * elapsed / max(i // per_cycle, 1) < seconds

    times, scaled, traced, untraced = [], [], [], []
    points = 0
    i = 0
    begin = time.perf_counter()
    probes = [] if workload.in_children else [probe()]
    while more(i):
        on = trace and (i // per_cycle) % 2 == 1
        t0 = time.perf_counter()
        pts, failure = _run_op(workload, state, i, tracer if on else null)
        dt = time.perf_counter() - t0
        times.append(dt)
        if workload.in_children:
            # the op's process timed its probes inside the op's wall time;
            # an op that failed before timing them is left unscaled
            before, after = state.probes or (PROBE_REF_S, PROBE_REF_S)
            probes.append(before)
            scaled.append(rescale(dt - before - after, before, after))
        else:
            probes.append(probe())
            scaled.append(rescale(dt, probes[-2], probes[-1]))
        (traced if on else untraced).append(dt)
        points += pts
        if failure:
            failures.append(failure)
        i += 1
    timed_s = time.perf_counter() - begin
    return {
        "times": times,
        "scaled": scaled,
        "probes": probes,
        "traced": traced,
        "untraced": untraced,
        "timed_s": timed_s,
        "points": points,
        "failures": failures,
        "attempted": len(times) + 1,  # the warm-up op counts as attempted
        "spans": tracer.spans if trace else [],
    }


# --------------------------------------------------------------------------- #
# metrics


def op_timings(times: list, points: int) -> dict:
    return {
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (_quantile(times, 0.9), "s"),
        "points_per_s": (points / sum(times), "points/s"),
    }


def end_to_end(run: dict, setup_s: float, peak_rss_mib: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        **op_timings(run["scaled"], run["points"]),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


CLI_COMMANDS = tuple(cmd.name for cmd in workloads.CLI_COMMANDS)
TIMED_CALLS = (
    "gmfbm.sample_batch", "gmfbm.sample", "signature.signature",
    "signature.cross_term_scaling", "tensor.log", "tensor.is_group_like",
    "lift.p_variation", "lift.cauchy_diagnostic", "lift.lift_piecewise_linear",
    "rde.solve", "rde.linear_exact", "rde.convergence_rate", "estimate.fit_mixture",
)
COUNTED_CALLS = ("gmfbm.sample_batch", "gmfbm.sample", "signature.signature",
                 "estimate.fit_mixture")
# (call, count attached to its span): reported as <call>.<count>
SPAN_COUNTS = (("gmfbm.sample", "fallbacks"), ("lift.p_variation", "blocks"),
               ("estimate.fit_mixture", "merged"))
# (call, work count attached to its span): reported as <call>.<count>_per_s
SPAN_RATES = (("gmfbm.sample_batch", "points"), ("gmfbm.sample", "points"),
              ("signature.signature", "segments"), ("lift.p_variation", "blocks"),
              ("rde.solve", "intervals"), ("rde.linear_exact", "intervals"))


def per_layer(run: dict, import_s: float) -> dict:
    s = spans.summarize(run["spans"])
    calls = s["per_call"]
    m = {}
    for name in TIMED_CALLS:
        m[f"{name}.busy_s"] = (calls[name]["busy_s"], "s")
    for name in COUNTED_CALLS:
        m[f"{name}.calls"] = (calls[name]["calls"], "count")
    for name, key in SPAN_COUNTS:
        m[f"{name}.{key}"] = (calls[name]["counts"].get(key, 0), "count")
    # sample_batch returns no flag; its circulant fallback shows as a RuntimeWarning
    m["gmfbm.sample_batch.fallbacks"] = (calls["gmfbm.sample_batch"]["warnings"],
                                         "count")
    for name, key in SPAN_RATES:
        busy = calls[name]["busy_s"]
        work = calls[name]["counts"].get(key, 0)
        m[f"{name}.{key}_per_s"] = (work / busy if busy else 0.0, f"{key}/s")
    for cmd in CLI_COMMANDS:
        durations = calls[f"cli.{cmd}"]["durations"]
        m[f"cli.{cmd}.p50_s"] = (statistics.median(durations) if durations else 0.0, "s")
    m["cli.import_s"] = (import_s, "s")
    for key in ("bytes_read", "bytes_written"):
        m[f"cli.{key}"] = (
            sum(calls[f"cli.{c}"]["counts"].get(key, 0) for c in CLI_COMMANDS), "bytes")
    # shares are of the traced ops' wall time as timed outside their op spans
    wall = sum(run["traced"])
    for layer in spans.LAYERS:
        m[f"{layer}.errors"] = (s["layer_errors"][layer], "count")
    for layer in spans.LAYERS:
        m[f"{layer}.share"] = (s["layer_busy"][layer] / wall if wall else 0.0, "ratio")
    m["glue.busy_s"] = (s["glue_s"], "s")
    m["glue.share"] = (s["glue_s"] / wall if wall else 0.0, "ratio")
    overhead = 0.0
    if run["traced"] and run["untraced"]:
        overhead = (statistics.median(run["traced"])
                    / statistics.median(run["untraced"]) - 1.0)
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


# --------------------------------------------------------------------------- #


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "roughmix" / "__init__.py").is_file():
        print(f"perfbench: no roughmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        state = workload.setup(args.seed, workdir)
        own_setup = time.perf_counter() - _START
        own = (own_setup, rescale(own_setup, _BEFORE, probe()))
        if args.setup_only:
            print(json.dumps({"setup_s": own[0], "scaled_setup_s": own[1]}))
            return 0
        setups = [own]
        if not args.trace:
            setups += [_fresh_setup(args.workload, args.seed)
                       for _ in range(SETUP_RUNS - 1)]
        setups, scaled_setups = map(list, zip(*setups))
        run = measure(workload, state, args.seconds, args.ops, bool(args.trace))
        if args.trace:
            metrics = per_layer(run, workloads.import_seconds())
        else:
            if workload.in_children:
                rss = state.peak_rss_mib
            else:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(run, statistics.median(scaled_setups), rss)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    n_failed = len(run["failures"])
    result = {
        "correct": n_failed == 0,
        "attempted": run["attempted"],
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setups_s": setups,
        "scaled_setups_s": scaled_setups,
        "op_times_s": run["times"],
        "scaled_op_times_s": run["scaled"], "probes_s": run["probes"],
        "timed_s": run["timed_s"],
        "failures": run["failures"], "result": result, "spans": run["spans"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")

    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} seed {args.seed}: {len(run['times'])} timed ops "
          f"+ 1 warm-up in {run['timed_s']:.1f} s, closed loop, 1 client"
          + (", every other op traced" if args.trace else ""))
    for failure in run["failures"][:5]:
        print(f"# FAILED {failure}")
    if not args.trace:
        print(f"# {'fail_frac':<38} {n_failed}/{run['attempted']} = "
              f"{n_failed / run['attempted']:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<38} {value:.6g} {unit}")
    if not args.trace:
        unscaled = {"setup_s": (statistics.median(setups), "s"),
                    **op_timings(run["times"], run["points"])}
        for name, (value, unit) in unscaled.items():
            print(f"# unscaled {name:<29} {value:.6g} {unit}")
        print(f"# probe p50 {statistics.median(run['probes']) * 1e3:.3f} ms, "
              f"reference {PROBE_REF_S * 1e3:g} ms")
    if args.trace:
        accounted = sum(v for k, (v, _) in metrics.items() if k.endswith(".share"))
        print(f"# layer shares + glue = {accounted:.4f} of traced op wall time")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
