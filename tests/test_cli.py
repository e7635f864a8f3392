import json

import numpy as np
import pytest

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
    run("sim", "--spec", spec_file, "--n", 4096, "--seed", 4, "--method",
        "circulant", "-o", out)
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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_numerical_blowup_exits_3(tmp_path):
    # a driver with an astronomically large jump overflows the linear solver
    t = np.array([0.0, 0.5, 1.0])
    big = np.array([0.0, 1e200, 2e200])
    csv = "t,x1\n" + "\n".join(f"{a},{b}" for a, b in zip(t, big))
    driver = tmp_path / "driver.csv"
    driver.write_text(csv + "\n")
    assert run("solve", "--driver", driver, "--field", "linear", "--y0", "1.0",
               "-o", tmp_path / "o") == 3


def test_bench_scaling_subcommand(tmp_path):
    out = tmp_path / "o"
    assert run("bench-scaling", "--hi", 0.5, "--hj", 0.75, "--n-paths", 200,
               "--seed", 1, "-o", out) == 0
    lines = (out / "scaling_summary.csv").read_text().splitlines()
    stats = dict(line.split(",") for line in lines[1:])
    assert float(stats["expected_slope"]) == 2.5
