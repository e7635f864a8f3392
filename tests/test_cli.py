import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughmix
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
], ids=["no-hursts", "nan-coeff", "zero-intervals"])
def test_bad_spec_or_grid_exits_2_without_output(tmp_path, capsys, spec_text, n):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    out = tmp_path / "o"
    assert run("sim", "--spec", spec, "--n", n, "--seed", 1, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "path.csv").exists()


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
], ids=["nan-inc1", "no-inc2", "short-inc2"])
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


def test_cli_import_loads_no_scipy():
    # neither importing the CLI nor fitting a mixture loads scipy; importing
    # it loads no thread pool, and a single-chunk sample starts no thread
    src = str(Path(roughmix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, threading, roughmix.cli\n"
            "assert 'concurrent.futures.thread' not in sys.modules\n"
            "from roughmix.estimate import fit_mixture\n"
            "from roughmix.gmfbm import GmfbmSpec, TimeGrid, sample\n"
            "threads = threading.active_count()\n"
            "spec = GmfbmSpec(hursts=(0.5, 0.75), coeffs=(1.0, 2.0))\n"
            "path = sample(spec, TimeGrid.uniform(1024), 0)\n"
            "assert threading.active_count() == threads\n"
            "fit_mixture(path, n_components=2, n_bootstrap=5)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


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


SCALING = ["bench-scaling", "--hi", 0.5, "--hj", 0.75, "--seed", 1]


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
], ids=["scaling-1-path", "scaling-0-paths", "scaling-one-scale", "rate-0-seeds",
        "sharpness-1-seed", "sharpness-0-seeds", "cauchy-0-seeds",
        "cauchy-0-levels", "sharpness-0-levels"])
def test_degenerate_bench_inputs_exit_2_without_output(tmp_path, spec_file, capfd,
                                                       argv):
    out = tmp_path / "o"
    argv = [spec_file if a is None else a for a in argv]
    assert run(*argv, "-o", out) == 2
    # capfd, not capsys: LAPACK writes its complaints to the stdout descriptor
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert not out.exists()


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
spec_items = st.sampled_from([0.3, 0.7, 0.0, 1.0, 1e308, float("nan"), "x", None])
spec_jsons = st.one_of(
    st.text(max_size=20),
    st.builds(json.dumps, st.fixed_dictionaries({}, optional={
        "hursts": st.one_of(spec_items, st.lists(spec_items, max_size=2)),
        "coeffs": st.one_of(spec_items, st.lists(spec_items, max_size=2)),
        "dim": st.sampled_from([1, 2, 0, 1.5, "x", None]),
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


@pytest.mark.filterwarnings("error::UserWarning")
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(st.just(_csv_case), st.sampled_from(CSV_COMMANDS), garbled_csvs),
    st.tuples(st.just(_csv_case), st.sampled_from(CSV_COMMANDS), timed_csvs),
    st.tuples(st.just(_level2_case), level2_jsons),
    st.tuples(st.just(_spec_case), spec_jsons),
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
