import json
import os
import subprocess
import sys

import numpy as np
import pytest

from modalbridge.cli import main

MODEL = {"H": 0.3, "rho": 0.5, "x0": 0.0, "y0": 0.0, "T": 0.5,
         "h1": "0.2", "h2": "-0.1"}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "modalbridge.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


# -- kernel ---------------------------------------------------------------------

def test_kernel_csv_brownian(tmp_path):
    cfg = write_config(tmp_path, {"kernel": {"H": 0.5, "t_values": [1.0],
                                             "s_fractions": [0.25, 0.5, 0.75]}})
    code = main(["kernel", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    data = np.loadtxt(tmp_path / "out" / "kernel.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 2], 1.0)
    np.testing.assert_allclose(data[:, 3], 1.0)


def test_kernel_csv_form_difference(tmp_path):
    cfg = write_config(tmp_path, {"kernel": {"H": 0.75}})
    code = main(["kernel", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    data = np.loadtxt(tmp_path / "out" / "kernel.csv", delimiter=",", skiprows=1)
    assert np.max(data[:, 4]) <= 1e-8


def test_kernel_invalid_H_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"kernel": {"H": 1.5}})
    proc = run_cli(["kernel", "--config", cfg])
    assert proc.returncode == 2
    assert "H" in proc.stderr


# -- modal path ---------------------------------------------------------------------

def test_modal_path_csv(tmp_path):
    cfg = write_config(tmp_path, {"model": MODEL,
                                  "modal_path": {"n": 64, "endpoint": [1.0, 1.0]}})
    code = main(["modal-path", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    data = np.loadtxt(tmp_path / "out" / "modal_path.csv", delimiter=",", skiprows=1)
    assert data.shape == (65, 7)
    assert abs(data[-1, 1] - 1.0) < 1e-10
    assert abs(data[-1, 2] - 1.0) < 1e-10


def test_figure_grid_emits_everything(tmp_path):
    out = str(tmp_path / "fig")
    code = main(["modal-path", "--figure-grid", "--out", out])
    assert code == 0
    names = sorted(os.listdir(out))
    csvs = [n for n in names if n.endswith(".csv")]
    svgs = [n for n in names if n.endswith(".svg")]
    assert len(csvs) == 16
    assert len(svgs) == 4
    # H=0.49 near straightness on one sample file
    data = np.loadtxt(os.path.join(out, "modal_path_rho0_H0.49.csv"),
                      delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1] - data[:, 0])) <= 0.05


# -- density -----------------------------------------------------------------------

def test_density_zero_drift(tmp_path):
    model = dict(MODEL, h1="0", h2="0")
    cfg = write_config(tmp_path, {"model": model,
                                  "density": {"n": 128, "endpoints": [[0.1, 0.2]]}})
    code = main(["density", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "density.json").read_text())
    row = payload["density"][0]
    assert row["p_hat_leading"] == pytest.approx(row["phi"])
    assert row["drift_class"] == "TimeOnly"
    assert row["alpha"] == "exact"


def test_density_general_H_above_three_quarters_exits_4(tmp_path):
    model = {"H": 0.8, "rho": 0.3, "x0": 0.0, "y0": 0.0, "T": 1.0,
             "h1": "sin(x)", "h2": "y", "holder_gamma": 0.4}
    cfg = write_config(tmp_path, {"model": model,
                                  "density": {"endpoints": [[0.1, 0.1]]}})
    proc = run_cli(["density", "--config", cfg])
    assert proc.returncode == 4


def test_density_H_above_transform_cap_exits_4(tmp_path):
    # the inverse kernel transform is capped at H = 0.95
    model = {"H": 0.97, "rho": 0.3, "x0": 0.0, "y0": 0.0, "T": 1.0,
             "h1": "sin(t)", "h2": "1"}
    cfg = write_config(tmp_path, {"model": model,
                                  "density": {"endpoints": [[0.1, 0.1]]}})
    proc = run_cli(["density", "--config", cfg])
    assert proc.returncode == 4


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"model": MODEL, "bogus": {},
                                  "density": {"endpoints": [[0.0, 0.0]]}})
    proc = run_cli(["density", "--config", cfg])
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


def test_malformed_drift_exits_2(tmp_path):
    model = dict(MODEL, h1="x + * y")
    cfg = write_config(tmp_path, {"model": model,
                                  "density": {"endpoints": [[0.0, 0.0]]}})
    proc = run_cli(["density", "--config", cfg])
    assert proc.returncode == 2


_KDE = {"type": "kde", "bandwidth_x": 0.05, "bandwidth_y": 0.05}


@pytest.mark.parametrize("command,block", [
    ("density", {"density": {"endpoints": [[0.1]]}}),
    ("density", {"density": {"endpoints": 5}}),
    ("simulate", {"simulate": {"n_paths": 100, "n_steps": 8, "point": [0.1],
                               "estimator": _KDE}}),
    ("bridge-mc", {"bridge_mc": {"n_paths": 100, "n_steps": 8, "endpoint": [0.1]}}),
    ("bridge-mc", {"bridge_mc": {"n_paths": 100, "n_steps": 8,
                                 "endpoint": [0.1, 0.2, 0.3]}}),
    ("modal-path", {"modal_path": {"endpoint": 0.1}}),
])
def test_point_that_is_not_a_pair_exits_2(tmp_path, command, block):
    cfg = write_config(tmp_path, {"model": MODEL, **block})
    proc = run_cli([command, "--config", cfg])
    assert proc.returncode == 2
    assert "[x, y]" in proc.stderr and "Traceback" not in proc.stderr


# -- simulate / bridge-mc ------------------------------------------------------------

def simulate_config(tmp_path, n_paths=2000, chunk=512):
    return write_config(tmp_path, {
        "model": MODEL,
        "simulate": {"n_paths": n_paths, "n_steps": 16, "point": [0.1, -0.05],
                     "estimator": {"type": "kde", "bandwidth_x": 0.05,
                                   "bandwidth_y": 0.05},
                     "chunk_size": chunk},
    })


def test_simulate_json_deterministic_bytes(tmp_path):
    cfg = simulate_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", out2]) == 0
    b1 = open(os.path.join(out1, "simulate.json"), "rb").read()
    b2 = open(os.path.join(out2, "simulate.json"), "rb").read()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["seed"] == 7
    assert payload["n_paths"] == 2000


def test_simulate_worker_count_invariance(tmp_path):
    cfg = simulate_config(tmp_path)
    env_out = []
    for threads in ("1", "4"):
        out = str(tmp_path / f"w{threads}")
        env = dict(os.environ, MODALBRIDGE_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-m", "modalbridge.cli", "simulate",
                               "--config", cfg, "--seed", "3", "--out", out],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        env_out.append(open(os.path.join(out, "simulate.json"), "rb").read())
    assert env_out[0] == env_out[1]


def test_bridge_mc_json(tmp_path):
    cfg = write_config(tmp_path, {
        "model": MODEL,
        "bridge_mc": {"n_paths": 1000, "n_steps": 16, "endpoint": [0.2, -0.1]},
    })
    out = str(tmp_path / "out")
    assert main(["bridge-mc", "--config", cfg, "--seed", "5", "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "bridge_mc.json").read_text())
    assert set(payload) == {"estimate", "std_err", "discretization_bias_estimate",
                            "n_paths", "seed"}
    assert payload["estimate"] > 0


# the far-tail endpoint of a strong constant drift: exp overflows and the
# Gaussian prefactor underflows
OVERFLOW_MODEL = {"H": 0.3, "rho": 0.4, "x0": 0.0, "y0": 0.0, "T": 1.0,
                  "h1": "60", "h2": "0"}


def test_bridge_mc_overflow_exits_3_without_nan(tmp_path):
    cfg = write_config(tmp_path, {
        "model": OVERFLOW_MODEL,
        "bridge_mc": {"n_paths": 2000, "n_steps": 32, "endpoint": [60.0, 0.0]},
    })
    proc = run_cli(["bridge-mc", "--config", cfg])
    assert proc.returncode == 3
    assert "NaN" not in proc.stdout
    assert "Traceback" not in proc.stderr


def test_density_overflow_exits_3_without_traceback(tmp_path):
    cfg = write_config(tmp_path, {"model": OVERFLOW_MODEL,
                                  "density": {"endpoints": [[60.0, 0.0]]}})
    proc = run_cli(["density", "--config", cfg])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "numerical error" in proc.stderr


def test_density_nonfinite_drift_exits_3(tmp_path):
    model = {"H": 0.3, "rho": 0.3, "x0": 0.0, "y0": 0.0, "T": 0.25,
             "h1": "exp(x)", "h2": "0"}
    cfg = write_config(tmp_path, {"model": model,
                                  "density": {"n": 64, "endpoints": [[800.0, 0.0]]}})
    proc = run_cli(["density", "--config", cfg])
    assert proc.returncode == 3
    assert "numerical error" in proc.stderr and "exp(x)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_csv_float_format_17_digits(tmp_path):
    cfg = write_config(tmp_path, {"model": MODEL,
                                  "modal_path": {"n": 8, "endpoint": [1.0, 1.0]}})
    assert main(["modal-path", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "modal_path.csv").read_text().splitlines()
    assert lines[0] == "t,x_path,y_path,m11,m12,m21,m22"
    # a third of the way through T=0.5 on 8 steps: t = 0.1875 exactly
    assert lines[4].split(",")[0] == "0.1875"


# -- validate -------------------------------------------------------------------------

def test_validate_quick_passes(tmp_path):
    out = str(tmp_path / "v")
    code = main(["validate", "--quick", "--out", out])
    assert code == 0
    payload = json.loads((tmp_path / "v" / "validation.json").read_text())
    assert payload["all_passed"] is True
    assert len(payload["criteria"]) == 11


def test_validate_fault_injection_fails(tmp_path, monkeypatch):
    # a closed form 1% off makes criterion 1, and so the suite, fail
    from modalbridge import validate

    exact = validate.kernel_total_integral
    monkeypatch.setattr(validate, "kernel_total_integral",
                        lambda t, hurst: 1.01 * exact(t, hurst))
    out = tmp_path / "v"
    assert main(["validate", "--quick", "--out", str(out)]) == 1
    payload = json.loads((out / "validation.json").read_text())
    assert payload["all_passed"] is False
    assert [c["criterion"] for c in payload["criteria"] if not c["passed"]] == [1]


@pytest.mark.parametrize("args", [
    ["density", "--seed", "1"],             # only simulate and bridge-mc read a seed
    ["simulate", "--format", "csv"],        # only modal-path reads a format
    ["modal-path", "--format", "json"],     # which writes CSV or SVG, never JSON
    ["validate", "--config", "cfg.json"],   # the suite reads no config
])
def test_flag_the_command_does_not_read_exits_2(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
