import contextlib
import importlib
import io
import json
import os
import pkgutil
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughmix
from roughmix import cli
from roughmix.cli import main
from roughmix.gmfbm import GmfbmSpec, SamplePath, TimeGrid, sample
from roughmix.lift import lift_piecewise_linear
from roughmix.signature import signature

SPEC = {"hursts": [0.5, 0.75], "coeffs": [1.0, 2.0], "dim": 1, "horizon": 1.0}


@pytest.fixture
def spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(SPEC))
    return p


def run(*argv):
    return main([str(a) for a in argv])


def test_sim_writes_path_and_manifest(tmp_path, spec_file):
    out = tmp_path / "out"
    assert run("sim", "--spec", spec_file, "--n", 64, "--seed", 7, "-o", out) == 0
    path = SamplePath.from_csv((out / "path.csv").read_text())
    assert path.values.shape == (65, 1)
    assert np.all(path.values[0] == 0.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert str(spec_file) in manifest["inputs"]
    assert "path.csv" in manifest["outputs"]
    assert manifest["sampling"] == {"method": "circulant", "used_fallback": False}


def test_sim_matches_library_call(tmp_path, spec_file):
    out = tmp_path / "out"
    run("sim", "--spec", spec_file, "--n", 64, "--seed", 3, "-o", out)
    lib = sample(GmfbmSpec.from_json(json.dumps(SPEC)), TimeGrid.uniform(64), 3)
    got = SamplePath.from_csv((out / "path.csv").read_text())
    assert np.array_equal(got.values, lib.values)


def test_repeat_runs_identical_outputs(tmp_path, spec_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run("sim", "--spec", spec_file, "--n", 32, "--seed", 5, "-o", out)
    assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("timestamp"), mb.pop("timestamp")
    ma["config"].pop("output"), mb["config"].pop("output")
    assert ma == mb


def test_pipeline_matches_in_process(tmp_path, spec_file):
    out = tmp_path / "out"
    run("sim", "--spec", spec_file, "--n", 32, "--seed", 9, "-o", out)
    run("lift", "--input", out / "path.csv", "-o", tmp_path / "lift")
    run("sig", "--input", out / "path.csv", "--level", 3, "-o", tmp_path / "sig")

    path = SamplePath.from_csv((out / "path.csv").read_text())
    rp = lift_piecewise_linear(path)
    lifted = json.loads((tmp_path / "lift" / "level2.json").read_text())
    assert np.array_equal(np.asarray(lifted["inc1"]), rp.inc1)

    sig_obj = json.loads((tmp_path / "sig" / "signature.json").read_text())
    want = signature(path, 3)
    for n in range(4):
        assert np.array_equal(np.asarray(sig_obj["levels"][n]), want.levels[n])
    # level-1 of the signature equals last row minus first row of the CSV
    assert np.allclose(sig_obj["levels"][1], path.values[-1] - path.values[0])


def test_solve_subcommand(tmp_path, spec_file):
    out = tmp_path / "out"
    run("sim", "--spec", spec_file, "--n", 32, "--seed", 2, "-o", out)
    assert run("solve", "--driver", out / "path.csv", "--field", "linear",
               "--y0", "1.0", "-o", tmp_path / "sol") == 0
    text = (tmp_path / "sol" / "solution.csv").read_text()
    assert text.splitlines()[0] == "t,y1"
    assert len(text.splitlines()) == 34


def test_estimate_subcommand(tmp_path, spec_file):
    out = tmp_path / "out"
    run("sim", "--spec", spec_file, "--n", 4096, "--seed", 4, "-o", out)
    assert run("estimate", "--input", out / "path.csv", "--components", 1,
               "-o", tmp_path / "est") == 0
    fit = json.loads((tmp_path / "est" / "fit.json").read_text())
    assert 0.0 < fit["hursts_hat"][0] < 1.0


def test_unknown_flag_exits_2(tmp_path, spec_file):
    assert run("sim", "--spec", spec_file, "--seed", 1, "--bogus", "x") == 2


@pytest.mark.parametrize("argv", [
    ["estimate", "--input", "path.csv", "--boot", 5],
    ["sig", "--input", "path.csv", "--lev", 2],
], ids=["estimate-boot", "sig-lev"])
def test_abbreviated_flag_exits_2_without_output(tmp_path, capsys, argv):
    # a flag is spelled in full: no unique prefix of one parses
    path = sample(GmfbmSpec(**SPEC), TimeGrid.uniform(64), seed=0)
    (tmp_path / "path.csv").write_text(path.to_csv())
    out = tmp_path / "o"
    argv = [tmp_path / a if a == "path.csv" else a for a in argv]
    assert run(*argv, "-o", out) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    assert run("frobnicate") == 2


def test_missing_input_exits_2(tmp_path):
    assert run("sim", "--spec", tmp_path / "nope.json", "--seed", 1,
               "-o", tmp_path / "o") == 2


def test_estimate_three_components_exits_2(tmp_path, spec_file):
    out = tmp_path / "out"
    run("sim", "--spec", spec_file, "--n", 1024, "--seed", 4, "-o", out)
    assert run("estimate", "--input", out / "path.csv", "--components", 3,
               "--lags", "1,2,4,8,16,32", "-o", tmp_path / "est") == 2
    assert not (tmp_path / "est").exists()


def test_estimate_overflow_exits_3_without_output(tmp_path, capsys):
    values = 1e160 * np.random.default_rng(0).standard_normal(200)
    csv = tmp_path / "huge.csv"
    csv.write_text("t,x1\n" + "".join(
        f"{t:.17g},{v:.17g}\n" for t, v in zip(np.linspace(0.0, 1.0, 200), values)))
    out = tmp_path / "o"
    assert run("estimate", "--input", csv, "-o", out) == 3
    assert capsys.readouterr().err.startswith("numerical error:")
    assert not (out / "fit.json").exists()


def test_estimate_single_row_exits_2(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("t,x1\n0,0\n")
    assert run("estimate", "--input", one, "-o", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_spec_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"hursts": [2.0], "coeffs": [1.0]}')
    assert run("sim", "--spec", bad, "--seed", 1, "-o", tmp_path / "o") == 2


@pytest.mark.parametrize("spec_text,n", [
    ('{"coeffs": [1.0]}', 64),  # no hursts
    ('{"hursts": [0.5], "coeffs": [NaN]}', 64),
    (json.dumps(SPEC), 0),
    ('{"hursts": [0.5], "coeffs": [1.0], "dim": Infinity}', 64),
    ('{"hursts": [0.5], "coeffs": [1.0], "dim": 1e400}', 64),
    ('{"hursts": [0.5], "coeffs": [1.0], "dim": 2.7}', 64),
    ('{"hursts": [0.5], "coeffs": [1.0], "dim": true}', 64),
    ('{"hursts": [0.5], "coeffs": [true]}', 64),
    ('{"hursts": [0.5], "coeffs": ["2"]}', 64),
    ('{"hursts": ["0.5"], "coeffs": [1.0]}', 64),
    ('{"hursts": [0.5], "coeffs": [1.0], "horizon": true}', 64),
    ('{"hursts": [0.5], "coeffs": [1.0], "horizon": "2"}', 64),
], ids=["no-hursts", "nan-coeff", "zero-intervals", "inf-dim", "overflow-dim",
        "fractional-dim", "bool-dim", "bool-coeff", "string-coeff", "string-hurst",
        "bool-horizon", "string-horizon"])
def test_bad_spec_or_grid_exits_2_without_output(tmp_path, capsys, spec_text, n):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    out = tmp_path / "o"
    assert run("sim", "--spec", spec, "--n", n, "--seed", 1, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "path.csv").exists()


def test_failed_allocation_exits_2_without_output(tmp_path, spec_file, capsys,
                                                  monkeypatch):
    def sample(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "sample", sample)
    out = tmp_path / "o"
    assert run("sim", "--spec", spec_file, "--n", 64, "--seed", 1, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_indefinite_embedding_exits_3_without_output(tmp_path, spec_file, capsys,
                                                     indefinite_embedding):
    out = tmp_path / "o"
    assert run("sim", "--spec", spec_file, "--n", 64, "--seed", 1, "-o", out) == 3
    assert capsys.readouterr().err.startswith("numerical error:")
    assert not out.exists()


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == roughmix.__version__


def test_sig_rejects_non_finite_csv(tmp_path):
    csv = tmp_path / "nan.csv"
    csv.write_text("t,x1\n0,0\n0.5,nan\n1,1\n")
    out = tmp_path / "o"
    assert run("sig", "--input", csv, "-o", out) == 2
    assert not (out / "signature.json").exists()


@pytest.mark.parametrize("edit", [
    lambda obj: obj["inc1"][0].__setitem__(0, float("nan")),
    lambda obj: obj.pop("inc2"),
    lambda obj: obj["inc2"].pop(),
    lambda obj: obj.__setitem__("inc1", {"x1": 1.0}),
], ids=["nan-inc1", "no-inc2", "short-inc2", "object-inc1"])
def test_solve_rejects_malformed_lift_with_exit_2(tmp_path, capsys, edit):
    driver = tmp_path / "driver.csv"
    driver.write_text("t,x1\n0,0\n0.5,1\n1,0.5\n")
    run("lift", "--input", driver, "-o", tmp_path / "lift")
    obj = json.loads((tmp_path / "lift" / "level2.json").read_text())
    edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "o"
    assert run("solve", "--lift", bad, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "solution.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("log", [[], ["--log"]], ids=["sig", "log-sig"])
def test_sig_overflow_exits_3_without_output(tmp_path, capsys, log):
    csv = tmp_path / "huge.csv"
    csv.write_text("t,x1\n0,0\n0.5,1e100\n1,2e100\n")
    out = tmp_path / "o"
    assert run("sig", "--input", csv, "--level", 4, *log, "-o", out) == 3
    assert capsys.readouterr().err.startswith("numerical error:")
    assert not (out / "signature.json").exists()


# modules that a fresh ``python -m roughmix.cli`` run of each subcommand must
# not load: a subcommand imports only the modules it calls, no run loads
# scipy, and a draw of one chunk starts no thread pool
NOT_LOADED = {
    "sim": {"roughmix.lift", "roughmix.tensor", "roughmix.signature",
            "roughmix.rde", "roughmix.estimate", "concurrent.futures.thread"},
    "lift": {"roughmix.tensor", "roughmix.signature", "roughmix.rde",
             "roughmix.estimate"},
    "sig": {"roughmix.lift", "roughmix.rde", "roughmix.estimate"},
    "solve": {"roughmix.tensor", "roughmix.signature", "roughmix.estimate"},
    "estimate": {"numpy.ma", "roughmix.lift", "roughmix.tensor",
                 "roughmix.signature", "roughmix.rde"},
    "bench-cauchy": {"numpy.ma", "roughmix.tensor", "roughmix.signature",
                     "roughmix.rde", "roughmix.estimate"},
    "bench-rate": {"numpy.ma", "roughmix.tensor", "roughmix.signature",
                   "roughmix.estimate"},
    "bench-scaling": {"numpy.ma", "roughmix.lift", "roughmix.rde", "roughmix.estimate"},
}


def test_each_subcommand_loads_only_what_it_runs(tmp_path, spec_file):
    path = sample(GmfbmSpec(**SPEC), TimeGrid.uniform(256), seed=0)
    (tmp_path / "path.csv").write_text(path.to_csv())
    argvs = {
        "sim": ["--spec", spec_file, "--n", 64, "--seed", 1],
        "lift": ["--input", tmp_path / "path.csv"],
        "sig": ["--input", tmp_path / "path.csv", "--log"],
        "solve": ["--driver", tmp_path / "path.csv", "--field", "bilinear", "--y0", "1,0"],
        "estimate": ["--input", tmp_path / "path.csv", "--components", 2,
                     "--lags", "1,2,4,8", "--bootstrap", 5],
        "bench-cauchy": ["--spec", spec_file, "--p", 2.5, "--m-max", 4, "--seeds", 3],
        "bench-rate": ["--spec", spec_file, "--mesh-min", 4, "--mesh-max", 6,
                       "--seeds", 3],
        "bench-scaling": ["--hi", 0.5, "--hj", 0.75, "--n-paths", 200, "--seed", 1],
    }
    src = str(Path(roughmix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for command, args in argvs.items():
        out = tmp_path / command
        # -X importtime writes one stderr line per module the run imports
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "roughmix.cli", command,
             *map(str, args), "-o", str(out)],
            env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert (out / "manifest.json").is_file()
        loaded = {line.rsplit("|", 1)[1].strip()
                  for line in res.stderr.splitlines()
                  if line.startswith("import time:")}
        assert {"roughmix.errors", "roughmix.gmfbm"} <= loaded, command
        assert not loaded & NOT_LOADED[command], command
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}, command


def test_package_names_resolve_on_first_access():
    src = str(Path(roughmix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # the package's ``signature`` stays the function after its submodule
    # of that name is loaded first
    submodule_first = (
        "import sys\n"
        "from roughmix.signature import cross_term_scaling\n"
        "from roughmix import signature\n"
        "assert signature is sys.modules['roughmix.signature'].signature\n")
    bare = (
        "import sys, roughmix\n"
        "assert not [m for m in sys.modules if m.startswith('roughmix.')]\n"
        "assert set(roughmix.__all__) <= set(dir(roughmix))\n"
        "for name in ('gmfbm', 'tensor', 'lift', 'rde', 'estimate', 'errors'):\n"
        "    assert getattr(roughmix, name) is sys.modules['roughmix.' + name]\n"
        "for name in roughmix.__all__[1:]:\n"
        "    obj = getattr(roughmix, name)\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "assert roughmix.signature is sys.modules['roughmix.signature'].signature\n")
    for code in (submodule_first, bare):
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


def test_exported_names_exist():
    # each submodule defines every name of its __all__, and the package's
    # home module of each public name defines it
    for info in pkgutil.iter_modules(roughmix.__path__):
        module = importlib.import_module(f"roughmix.{info.name}")
        assert not set(getattr(module, "__all__", ())) - set(vars(module)), info.name
    for name, home in roughmix._HOME.items():
        assert name in vars(importlib.import_module(f"roughmix.{home}")), name


def test_readme_quick_start_runs():
    # the README's python block, as written, with numerical warnings as errors
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(roughmix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_readme_cli_lines_parse():
    # every roughmix line of the README's sh blocks, parsed but not run, so
    # that a documented subcommand or flag cannot drift from the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in readme.split("```sh\n")[1:]
             for line in block.split("```", 1)[0].splitlines()
             if line.startswith("roughmix ")]
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
    assert {line.split()[1] for line in lines} == {
        "sim", "lift", "sig", "solve", "estimate",
        "bench-cauchy", "bench-sharpness", "bench-rate", "bench-scaling"}


def test_numerical_blowup_exits_3(tmp_path):
    # a driver with an astronomically large jump overflows the linear solver
    t = np.array([0.0, 0.5, 1.0])
    big = np.array([0.0, 1e200, 2e200])
    csv = "t,x1\n" + "\n".join(f"{a},{b}" for a, b in zip(t, big))
    driver = tmp_path / "driver.csv"
    driver.write_text(csv + "\n")
    assert run("solve", "--driver", driver, "--field", "linear", "--y0", "1.0",
               "-o", tmp_path / "o") == 3


@pytest.mark.filterwarnings("error")
def test_blowup_message_reports_finite_max_entry(tmp_path, capsys):
    driver = tmp_path / "driver.csv"
    driver.write_text("t,x1\n0,0\n0.5,1\n1,0.5\n")
    assert run("solve", "--driver", driver, "--y0", "1e308,1e308",
               "-o", tmp_path / "o") == 3
    assert "last finite state max-norm 1e+308" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_lift_overflow_exits_3_without_output(tmp_path, capsys):
    csv = tmp_path / "huge.csv"
    csv.write_text("t,x1\n0,0\n0.5,1e200\n1,2e200\n")
    out = tmp_path / "o"
    assert run("lift", "--input", csv, "-o", out) == 3
    assert capsys.readouterr().err.startswith("numerical error:")
    assert not (out / "level2.json").exists()


def test_bench_cauchy_nan_p_exits_2_without_output(tmp_path, spec_file, capsys):
    out = tmp_path / "o"
    assert run("bench-cauchy", "--spec", spec_file, "--p", "nan", "--m-max", 2,
               "--seeds", 1, "-o", out) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_t_only_csv_solve_exits_2(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("t\n0\n0.5\n1\n")
    out = tmp_path / "o"
    assert run("solve", "--driver", csv, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_bench_scaling_subcommand(tmp_path):
    out = tmp_path / "o"
    assert run("bench-scaling", "--hi", 0.5, "--hj", 0.75, "--n-paths", 200,
               "--seed", 1, "-o", out) == 0
    lines = (out / "scaling_summary.csv").read_text().splitlines()
    stats = dict(line.split(",") for line in lines[1:])
    assert float(stats["expected_slope"]) == 2.5


def test_bench_scaling_repeat_runs_identical_outputs(tmp_path):
    # 200 paths of 256 steps take two chunks per scale, on the sampling pool
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("bench-scaling", "--hi", 0.6, "--hj", 0.75, "--n-paths", 200,
                   "--seed", 9, "-o", out) == 0
    for name in ("scaling.csv", "scaling_summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("timestamp"), mb.pop("timestamp")
    ma["config"].pop("output"), mb["config"].pop("output")
    assert ma == mb


SCALING = ["bench-scaling", "--hi", 0.5, "--hj", 0.75, "--seed", 1]
RATE = ["bench-rate", "--spec", None, "--mesh-min", 2, "--mesh-max", 4, "--seeds", 1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    [*SCALING, "--n-paths", 1],
    [*SCALING, "--n-paths", 0],
    [*SCALING, "--n-paths", 20, "--scales", "1,1,1"],
    ["bench-rate", "--spec", None, "--mesh-min", 5, "--mesh-max", 7, "--seeds", 0],
    ["bench-sharpness", "--hurst", 0.2, "--m-max", 3, "--seeds", 1],
    ["bench-sharpness", "--hurst", 0.2, "--m-max", 3, "--seeds", 0],
    ["bench-cauchy", "--spec", None, "--p", 2.1, "--m-max", 3, "--seeds", 0],
    ["bench-cauchy", "--spec", None, "--p", 2.1, "--m-max", 0, "--seeds", 2],
    ["bench-sharpness", "--hurst", 0.2, "--m-max", 0, "--seeds", 2],
    [*RATE, "--e", 0],
    [*RATE, "--e", -1],
    [*RATE, "--e", 0, "--field", "bilinear"],
    [*RATE, "--e", 0, "--field", "sigmoid"],
    ["bench-rate", "--spec", None, "--mesh-min", -2, "--mesh-max", 1],
    ["bench-rate", "--spec", None, "--mesh-min", 5, "--mesh-max", 6],
    [*RATE, "--field", "quadratic"],
    ["sim", "--spec", None, "--seed", -1],
    ["sim", "--spec", None, "--seed", 2 ** 64],
    [*SCALING[:-1], -1, "--n-paths", 4],
    [*SCALING[:-1], 2 ** 64 - 1, "--n-paths", 4],
    ["estimate", "--input", "path.csv", "--bootstrap", -1],
], ids=["scaling-1-path", "scaling-0-paths", "scaling-one-scale", "rate-0-seeds",
        "sharpness-1-seed", "sharpness-0-seeds", "cauchy-0-seeds",
        "cauchy-0-levels", "sharpness-0-levels", "rate-e-0", "rate-e-negative",
        "rate-bilinear-e-0", "rate-sigmoid-e-0", "rate-negative-mesh",
        "rate-2-mesh-levels", "rate-unknown-field",
        "sim-negative-seed", "sim-seed-2^64", "scaling-negative-seed",
        "scaling-seed-2^64-1", "estimate-negative-bootstrap"])
def test_degenerate_bench_inputs_exit_2_without_output(tmp_path, spec_file, capfd,
                                                       argv):
    out = tmp_path / "o"
    path = sample(GmfbmSpec(**SPEC), TimeGrid.uniform(512), seed=0)
    (tmp_path / "path.csv").write_text(path.to_csv())
    files = {None: spec_file, "path.csv": tmp_path / "path.csv"}
    argv = [files.get(a, a) for a in argv]
    assert run(*argv, "-o", out) == 2
    # capfd, not capsys: LAPACK writes its complaints to the stdout descriptor
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert not out.exists()


def test_bench_scaling_underflow_exits_3_with_one_error_line(tmp_path, capsys):
    # the moments at t = 1e-300 underflow to 0, and their log to -inf: the
    # writer refuses it, with no numpy warning before its message
    out = tmp_path / "o"
    assert run(*SCALING, "--n-paths", 20, "--scales", "0.25,0.5,1e-300",
               "-o", out) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:")
    assert not out.exists()


def test_estimate_bootstrap_with_a_repeated_lag(tmp_path):
    path = sample(GmfbmSpec(**SPEC), TimeGrid.uniform(1024), seed=4)
    (tmp_path / "path.csv").write_text(path.to_csv())
    out = tmp_path / "est"
    assert run("estimate", "--input", tmp_path / "path.csv", "--components", 2,
               "--lags", "1,1,1,2,4,8", "--bootstrap", 50, "-o", out) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert len(fit["stderr_hursts"]) == len(fit["hursts_hat"])


def _lifted(tmp_path):
    driver = tmp_path / "driver.csv"
    driver.write_text("t,x1,x2\n0,0,0\n0.5,1,-0.5\n1,0.5,0.25\n")
    run("lift", "--input", driver, "-o", tmp_path / "lift")
    return driver, tmp_path / "lift" / "level2.json"


def test_solve_from_lift_alone_hashes_only_the_lift(tmp_path):
    driver, level2 = _lifted(tmp_path)
    args = ["--field", "bilinear", "--y0", "1.0,0.5"]
    assert run("solve", "--lift", level2, *args, "-o", tmp_path / "a") == 0
    assert run("solve", "--driver", driver, *args, "-o", tmp_path / "b") == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert list(manifest["inputs"]) == [str(level2)]
    assert ((tmp_path / "a" / "solution.csv").read_bytes()
            == (tmp_path / "b" / "solution.csv").read_bytes())


def test_solve_rejects_driver_with_lift(tmp_path):
    driver, level2 = _lifted(tmp_path)
    out = tmp_path / "o"
    assert run("solve", "--driver", driver, "--lift", level2, "-o", out) == 2
    assert not out.exists()


# --------------------------------------------------------------------------- #
# malformed inputs: every run exits 0, 2 or 3, without a traceback, and a run
# that fails writes no file

FINITE = ["0", "0.5", "-2", "1e200"]
BAD = ["1e400", "nan", "inf", "x", ""]
CSV_COMMANDS = [["lift"], ["sig", "--level", "3"], ["solve"],
                ["solve", "--field", "sigmoid"], ["estimate"]]


def _csv(header, rows):
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _timed_csv(rows, bad):
    """Rows after a valid time column; ``bad`` replaces the last entry."""
    if bad is not None and rows[-1]:
        rows = [*rows[:-1], [*rows[-1][:-1], bad]]
    header = "t" + "".join(f",x{i + 1}" for i in range(len(rows[0])))
    return _csv(header, [[str(0.5 * k), *row] for k, row in enumerate(rows)])


garbled_csvs = st.one_of(
    st.text(max_size=20),
    st.builds(_csv, st.sampled_from(["t", "t,x1", "t,x1,x2"]),
              st.lists(st.lists(st.sampled_from(FINITE + BAD), max_size=3),
                       max_size=4)),
)
timed_csvs = st.integers(0, 2).flatmap(lambda d: st.builds(
    _timed_csv,
    st.lists(st.lists(st.sampled_from(FINITE), min_size=d, max_size=d),
             min_size=2, max_size=5),
    st.one_of(st.none(), st.sampled_from(BAD))))
numbers = st.sampled_from([0.0, 0.5, -1.0, 1e308, float("nan"), float("inf")])
json_values = st.one_of(
    numbers, st.sampled_from([None, "x", True]),
    st.lists(numbers, max_size=3), st.lists(st.lists(numbers, max_size=4), max_size=3),
)
level2_jsons = st.one_of(
    st.text(max_size=20),
    st.builds(json.dumps, json_values),
    st.builds(json.dumps, st.dictionaries(st.sampled_from(["grid", "inc1", "inc2"]),
                                          json_values)),
    # well-formed shapes over one interval, with any entries
    st.builds(lambda g, x1, x2: json.dumps({"grid": [0.0, g], "inc1": [[x1]],
                                            "inc2": [[x2]]}),
              numbers, numbers, numbers),
)
spec_items = st.sampled_from([0.3, 0.7, 0.0, 1.0, 1e308, float("nan"), "x", None,
                              True, "0.5"])
spec_jsons = st.one_of(
    st.text(max_size=20),
    st.builds(json.dumps, st.fixed_dictionaries({}, optional={
        "hursts": st.one_of(spec_items, st.lists(spec_items, max_size=2)),
        "coeffs": st.one_of(spec_items, st.lists(spec_items, max_size=2)),
        "dim": st.sampled_from([1, 2, 0, 1.5, float("inf"), "x", None]),
        "horizon": spec_items,
    })),
    st.builds(lambda h, a: json.dumps({"hursts": [h], "coeffs": [a]}),
              spec_items, spec_items),
)


def _csv_case(tmp: Path, command, text):
    (tmp / "in.csv").write_text(text)
    return [*command, "--driver" if command[0] == "solve" else "--input", tmp / "in.csv"]


def _level2_case(tmp: Path, text):
    (tmp / "lift.json").write_text(text)
    return ["solve", "--lift", tmp / "lift.json"]


def _spec_case(tmp: Path, text):
    (tmp / "spec.json").write_text(text)
    return ["sim", "--spec", tmp / "spec.json", "--n", 8, "--seed", 1]


ODD_NUMBERS = ["0", "-1", "nan", "inf", "1e-300"]
# each subcommand's numeric options with one cheap valid value: the valid sizes
# (points, levels, seeds, paths) keep every draw small, and on the calling thread
NUMERIC_OPTIONS = {
    "sim": {"--n": "8", "--seed": "1"},
    "sig": {"--level": "2"},
    "solve": {"--y0": "1.0"},
    "estimate": {"--components": "1", "--bootstrap": "2"},
    "bench-cauchy": {"--p": "2.1", "--m-max": "2", "--seeds": "2"},
    "bench-sharpness": {"--hurst": "0.2", "--m-max": "2", "--seeds": "2"},
    "bench-rate": {"--e": "1", "--mesh-min": "1", "--mesh-max": "3", "--seeds": "1"},
    "bench-scaling": {"--hi": "0.5", "--hj": "0.75", "--scales": "1",
                      "--n-paths": "4", "--seed": "1"},
}


def _numeric_case(tmp: Path, command, values):
    argv = [command]
    if command in ("sig", "solve", "estimate"):
        path = sample(GmfbmSpec(**SPEC), TimeGrid.uniform(256), seed=0)
        (tmp / "in.csv").write_text(path.to_csv())
        argv += ["--driver" if command == "solve" else "--input", tmp / "in.csv"]
    elif command in ("sim", "bench-cauchy", "bench-rate"):
        (tmp / "spec.json").write_text(json.dumps(SPEC))
        argv += ["--spec", tmp / "spec.json"]
    for option, value in values.items():
        # bench-scaling needs three distinct scales: the drawn value is the third
        argv += [option, f"0.25,0.5,{value}" if option == "--scales" else value]
    return argv


numeric_cases = st.sampled_from(sorted(NUMERIC_OPTIONS)).flatmap(
    lambda command: st.tuples(
        st.just(_numeric_case), st.just(command),
        st.fixed_dictionaries({option: st.sampled_from([*ODD_NUMBERS, valid])
                               for option, valid in NUMERIC_OPTIONS[command].items()})))


@pytest.mark.filterwarnings("error::UserWarning")
@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(st.just(_csv_case), st.sampled_from(CSV_COMMANDS), garbled_csvs),
    st.tuples(st.just(_csv_case), st.sampled_from(CSV_COMMANDS), timed_csvs),
    st.tuples(st.just(_level2_case), level2_jsons),
    st.tuples(st.just(_spec_case), spec_jsons),
    numeric_cases,
))
def test_malformed_inputs_keep_exit_contract(case):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        argv = case[0](Path(tmp), *case[1:])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(*argv, "-o", out)
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert code == 0 or not out.exists()
