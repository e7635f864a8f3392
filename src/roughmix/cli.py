"""Command-line front end.

Subcommands: sim, lift, sig, solve, estimate, bench-cauchy, bench-sharpness,
bench-rate, bench-scaling. Every run writes its outputs plus a
``manifest.json`` recording the full configuration, seed, package version,
and content hashes of input files, so stochastic outputs are reproducible
from their manifests. Exit codes: 0 success, 2 configuration error,
3 numerical error (a non-finite result included); a run that exits 2 or 3
writes no file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, NumericsError
from .gmfbm import GmfbmSpec, SamplePath, TimeGrid, dumps, format_csv, sample

# Each subcommand imports the other modules it calls, so a run, which is a
# fresh process, loads only what it uses.


def _emit(args: argparse.Namespace, inputs: list[Path], texts: dict[str, str],
          **extra) -> None:
    """Write each named output text and a ``manifest.json`` to ``args.output``.

    The manifest text is serialised before the directory is made, as the
    output texts were by the caller, so a run that raises leaves no file.
    """
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = dumps({
        "version": __version__,
        "config": cfg,
        "inputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs},
        "outputs": list(texts),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **extra,
    }, indent=2)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in {**texts, "manifest.json": manifest + "\n"}.items():
        (out / name).write_text(text)


def _load_spec(path: str) -> GmfbmSpec:
    return GmfbmSpec.from_json(Path(path).read_text())


# --------------------------------------------------------------------------- #
# subcommands


def cmd_sim(args) -> None:
    spec = _load_spec(args.spec)
    grid = TimeGrid.uniform(args.n, spec.horizon)
    path = sample(spec, grid, args.seed)
    _emit(args, [Path(args.spec)], {"path.csv": path.to_csv()},
          sampling={"method": path.method, "used_fallback": path.used_fallback})


def cmd_lift(args) -> None:
    from .lift import lift_piecewise_linear

    path = SamplePath.from_csv(Path(args.input).read_text())
    rp = lift_piecewise_linear(path)
    _emit(args, [Path(args.input)], {"level2.json": rp.to_json() + "\n"})


def cmd_sig(args) -> None:
    from .signature import log_signature, signature

    path = SamplePath.from_csv(Path(args.input).read_text())
    tensor = (log_signature if args.log else signature)(path, args.level)
    _emit(args, [Path(args.input)], {"signature.json": tensor.to_json() + "\n"})


def _build_field(name: str, dim: int, e: int):
    from .rde import linear_field, sigmoid_field

    # the generator matrices below are e x e, so e is checked before they are built
    if e < 1:
        raise ConfigurationError(f"state dimension --e must be >= 1, got {e}")
    if name == "linear":
        return linear_field([np.eye(e) for _ in range(dim)])
    if name == "bilinear":
        mats = []
        for a in range(dim):
            m = np.zeros((e, e))
            m[a % e, (a + 1) % e] = 1.0
            m[(a + 1) % e, a % e] = 0.5
            mats.append(m)
        return linear_field(mats)
    if name == "sigmoid":
        return sigmoid_field(1.0, dim)
    raise ConfigurationError(f"unknown vector field {name!r}")


def cmd_solve(args) -> None:
    from .lift import Level2RoughPath, lift_piecewise_linear
    from .rde import solve

    if args.lift is not None:
        source = Path(args.lift)
        rp = Level2RoughPath.from_json(source.read_text())
    else:
        source = Path(args.driver)
        rp = lift_piecewise_linear(SamplePath.from_csv(source.read_text()))
    y0 = np.array([float(v) for v in args.y0.split(",")])
    field = _build_field(args.field, rp.dim, y0.size)
    sol = solve(rp, field, y0)
    _emit(args, [source], {"solution.csv": sol.to_csv()})


def cmd_estimate(args) -> None:
    from .estimate import fit_mixture

    path = SamplePath.from_csv(Path(args.input).read_text())
    lags = None if args.lags == "auto" else [int(v) for v in args.lags.split(",")]
    report = fit_mixture(path, lags=lags, n_components=args.components,
                         n_bootstrap=args.bootstrap)
    _emit(args, [Path(args.input)],
          {"fit.json": dumps(report.to_json_dict(), indent=2) + "\n"})


def cmd_bench_cauchy(args) -> None:
    from .lift import cauchy_diagnostic

    spec = _load_spec(args.spec)
    res = cauchy_diagnostic(spec, args.m_max, args.p, range(args.seeds))
    _emit(args, [Path(args.spec)], {
        "cauchy.csv": format_csv("m,seed,d_p", res["rows"]),
        "cauchy_summary.csv": format_csv(
            "m,stat,value", [(m, "median", v) for m, v in res["medians"].items()]),
    })


def cmd_bench_sharpness(args) -> None:
    from .lift import sharpness_probe

    res = sharpness_probe(args.hurst, args.m_max, range(args.seeds))
    _emit(args, [], {"sharpness.csv": format_csv(
        "m,stat,value",
        [(m, "levy_area_variance", v) for m, v in res["variances"].items()])})


def cmd_bench_rate(args) -> None:
    from .rde import convergence_rate

    spec = _load_spec(args.spec)
    field = _build_field(args.field, spec.dim, args.e)
    y0 = np.ones(args.e)
    res = convergence_rate(spec, field, y0,
                          range(args.mesh_min, args.mesh_max + 1),
                          range(args.seeds))
    _emit(args, [Path(args.spec)], {
        "rate.csv": format_csv(
            "mesh,err,seed", [(mesh, err, s) for mesh, s, err in res["rows"]]),
        "rate_summary.csv": format_csv(
            "stat,value",
            [("median_slope", res["median_slope"]), ("predicted", res["predicted"])]),
    })


def cmd_bench_scaling(args) -> None:
    from .signature import cross_term_scaling

    scales = [float(v) for v in args.scales.split(",")]
    res = cross_term_scaling(args.hi, args.hj, scales, args.n_paths, args.seed)
    _emit(args, [], {
        "scaling.csv": format_csv(
            "t,moment,stderr", zip(res["t_scales"], res["moments"], res["stderrs"])),
        "scaling_summary.csv": format_csv(
            "stat,value",
            [("slope", res["slope"]), ("expected_slope", res["expected_slope"])]),
    })


# --------------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughmix",
        description="Mixed fBm simulation, rough path lifts, signatures, "
        "RDE solving, and parameter estimation.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="sample a GMFBM path")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("lift", help="level-2 lift of a path CSV")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("sig", help="truncated signature of a path CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--level", type=int, default=4)
    p.add_argument("--log", action="store_true", help="emit the log-signature")
    p.set_defaults(func=cmd_sig)

    p = sub.add_parser("solve", help="solve an RDE along a driver")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--driver", help="path CSV, lifted piecewise-linearly")
    src.add_argument("--lift", help="precomputed level-2 JSON")
    p.add_argument("--field", default="linear",
                   choices=["linear", "bilinear", "sigmoid"])
    p.add_argument("--y0", default="1.0")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("estimate", help="fit Hurst/mixing parameters")
    p.add_argument("--input", required=True)
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--lags", default="auto")
    p.add_argument("--bootstrap", type=int, default=0)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench-cauchy", help="dyadic-lift convergence diagnostic")
    p.add_argument("--spec", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=cmd_bench_cauchy)

    p = sub.add_parser("bench-sharpness", help="Levy-area divergence probe")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--seeds", type=int, default=50)
    p.set_defaults(func=cmd_bench_sharpness)

    p = sub.add_parser("bench-rate", help="Davie scheme convergence rate")
    p.add_argument("--spec", required=True)
    p.add_argument("--field", default="linear")
    p.add_argument("--e", type=int, default=1, help="state dimension")
    p.add_argument("--mesh-min", type=int, default=6)
    p.add_argument("--mesh-max", type=int, default=10)
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=cmd_bench_rate)

    p = sub.add_parser("bench-scaling", help="cross-term variance scaling")
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--hj", type=float, required=True)
    p.add_argument("--scales", default="0.125,0.25,0.5,1.0")
    p.add_argument("--n-paths", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_bench_scaling)

    for p in sub.choices.values():
        p.add_argument("-o", "--output", default="out")
        p.allow_abbrev = False  # a flag is spelled in full, so no prefix of one parses
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # overflow and division by zero are reported by the exit code,
        # through the finite checks of the writers, not by a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            args.func(args)
    except SystemExit as err:
        return int(err.code or 0)
    except (ConfigurationError, ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericsError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
