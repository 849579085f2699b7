import json
import math
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


def test_figure_grid_with_config_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "fig"
    code = main(["modal-path", "--figure-grid", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)])
    assert code == 2
    assert "--figure-grid reads no config" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("key,value", [
    ("h1", 1.5), ("h2", 0), ("h1", None), ("h2", ["x"]),
    ("holder_gamma", -1), ("holder_gamma", 1.5), ("holder_gamma", 1e30), ("holder_gamma", 0.5),
])
def test_model_drift_or_holder_gamma_out_of_contract_exits_2(tmp_path, capsys, key, value):
    # drifts are JSON strings; a given holder_gamma lies in (0, 1/2) whether
    # or not the model needs one (this one is TimeOnly at H < 1/2)
    cfg = write_config(tmp_path, {"model": dict(MODEL, **{key: value}),
                                  "density": {"endpoints": [[0.1, 0.2]]}})
    assert main(["density", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error: invalid model: {key} must" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["s", 1.5, [], None, 1])
def test_emit_terminals_must_be_a_boolean(tmp_path, capsys, value):
    cfg = write_config(tmp_path, {"model": MODEL, "simulate": dict(
        _SIMULATE, emit_terminals=value)})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: emit_terminals must be true or false" in err
    assert not out.exists()


def test_emit_terminals_without_out_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # terminals.csv has nowhere to go: a config error before any path is drawn
    monkeypatch.setattr("modalbridge.cli.simulate_forward",
                        lambda *args, **kwargs: pytest.fail("paths drawn"))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"model": MODEL, "simulate": dict(
        _SIMULATE, n_paths=512, emit_terminals=True)})
    assert main(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "config error: emit_terminals needs --out" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"model": MODEL, "bogus": {},
                                  "density": {"endpoints": [[0.0, 0.0]]}})
    proc = run_cli(["density", "--config", cfg])
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


@pytest.mark.parametrize("command,block,h1,message", [
    ("density", {"density": {"endpoints": [[0.1, 0.0]]}}, "+".join(["x"] * 3000),
     "expression tree deeper than 64"),
    ("density", {"density": {"endpoints": [[0.1, 0.0]]}}, "(" * 500 + "x" + ")" * 500,
     "expression tree deeper than 64"),
    ("density", {"density": {"n": 10 ** 12, "endpoints": [[0.1, 0.0]]}}, "0.2",
     "config error: not enough memory"),
    ("modal-path", {"modal_path": {"n": 10 ** 12, "endpoint": [0.1, 0.0]}}, "0.2",
     "config error: not enough memory"),
])
def test_deep_drift_or_grid_beyond_memory_exits_2_and_writes_nothing(
        tmp_path, capsys, command, block, h1, message):
    # 10**12 steps need 16 TB: the allocation fails at once, never granted
    cfg = write_config(tmp_path, {"model": dict(MODEL, h1=h1), **block})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("command,block", [
    ("kernel", {"kernel": {"H": 0.3, "t_values": 5}}),
    ("density", {"model": dict(MODEL, H=None), "density": {"endpoints": [[0.1, 0.2]]}}),
    ("density", {"model": MODEL, "density": {"n": None, "endpoints": [[0.1, 0.2]]}}),
    ("bridge-mc", {"model": MODEL, "bridge_mc": {"n_paths": None, "n_steps": 8,
                                                 "endpoint": [0.1, 0.2]}}),
    ("simulate", {"model": MODEL, "simulate": {"n_paths": 100, "n_steps": 8,
                                               "point": [0.1, 0.2],
                                               "estimator": dict(type="bin", width_x=None,
                                                                 width_y=0.1)}}),
    ("bridge-mc", {"model": MODEL, "bridge_mc": 5}),
    ("simulate", {"model": MODEL, "simulate": {"n_paths": 100, "n_steps": 8,
                                               "point": [0.1, 0.2], "estimator": 3}}),
])
def test_config_value_of_the_wrong_json_type_exits_2(tmp_path, command, block):
    cfg = write_config(tmp_path, block)
    proc = run_cli([command, "--config", cfg])
    assert proc.returncode == 2
    assert "config error:" in proc.stderr and "Traceback" not in proc.stderr


_BRIDGE = {"n_paths": 100, "n_steps": 8, "endpoint": [0.1, 0.2]}
_SIMULATE = {"n_paths": 100, "n_steps": 8, "point": [0.1, 0.2], "estimator": _KDE}


@pytest.mark.parametrize("command,block,flags", [
    ("bridge-mc", {"bridge_mc": dict(_BRIDGE, n_paths=100.7)}, []),
    ("bridge-mc", {"bridge_mc": dict(_BRIDGE, n_steps=8.9)}, []),
    ("bridge-mc", {"bridge_mc": dict(_BRIDGE, seed=True)}, []),
    ("bridge-mc", {"bridge_mc": dict(_BRIDGE, seed=-1)}, []),
    ("bridge-mc", {"bridge_mc": dict(_BRIDGE, seed=2 ** 64)}, []),
    ("bridge-mc", {"bridge_mc": _BRIDGE}, ["--seed", "-1"]),
    ("simulate", {"simulate": dict(_SIMULATE, n_paths="100")}, []),
    ("simulate", {"simulate": dict(_SIMULATE, seed=-1)}, []),
    ("simulate", {"simulate": _SIMULATE}, ["--seed", "-1"]),
    ("density", {"density": {"n": 64.5, "endpoints": [[0.1, 0.2]]}}, []),
])
def test_integer_or_seed_out_of_its_domain_exits_2(tmp_path, capsys, command, block, flags):
    # an integer is never truncated, and a seed lies in [0, 2**64)
    cfg = write_config(tmp_path, {"model": MODEL, **block})
    assert main([command, "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command,block", [
    ("simulate", {"simulate": dict(_SIMULATE, estimator=dict(_KDE, bandwidth_x=True))}),
    ("simulate", {"simulate": dict(_SIMULATE, estimator=dict(_KDE, bandwidth_y="0.05"))}),
    ("simulate", {"simulate": dict(_SIMULATE, point=[0.3, True])}),
    ("bridge-mc", {"bridge_mc": dict(_BRIDGE, endpoint=["0.3", 0.2])}),
    ("density", {"density": {"endpoints": [[0.1, False]]}}),
    ("kernel", {"kernel": {"H": "0.3"}}),
    ("kernel", {"kernel": {"H": 0.3, "t_values": [1.0, True]}}),
    ("density", {"model": dict(MODEL, T=True), "density": {"endpoints": [[0.1, 0.2]]}}),
    ("density", {"model": dict(MODEL, rho="0.5"), "density": {"endpoints": [[0.1, 0.2]]}}),
])
def test_real_given_as_a_boolean_or_string_exits_2(tmp_path, capsys, command, block):
    # a real value is a JSON number: true is not 1.0 and "0.05" is not 0.05
    cfg = write_config(tmp_path, {"model": MODEL, **block})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "must be a number" in err or "[x, y]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,block,key", [
    ("density", {"model": dict(MODEL, H=math.nan),
                 "density": {"endpoints": [[0.1, 0.2]]}}, "H"),
    ("density", {"model": dict(MODEL, T=math.inf),
                 "density": {"endpoints": [[0.1, 0.2]]}}, "T"),
    ("density", {"density": {"endpoints": [[0.1, -math.inf]]}}, "endpoints"),
    ("simulate", {"simulate": dict(_SIMULATE, estimator=dict(_KDE, bandwidth_x=math.nan))},
     "bandwidth_x"),
    ("bridge-mc", {"bridge_mc": dict(_BRIDGE, endpoint=[math.inf, 0.2])}, "endpoint"),
])
def test_nan_or_infinity_names_its_key_and_exits_2(tmp_path, capsys, command, block, key):
    cfg = write_config(tmp_path, {"model": MODEL, **block})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must be finite" in err and "Traceback" not in err


def test_overflowing_real_literal_names_its_key_and_exits_2(tmp_path, capsys):
    # 1e999 parses to inf, the same as Infinity
    path = tmp_path / "cfg.json"
    text = json.dumps({"model": MODEL, "density": {"endpoints": [[0.1, 0.2]]}})
    path.write_text(text.replace('"T": 0.5', '"T": 1e999'), encoding="utf-8")
    assert main(["density", "--config", str(path)]) == 2
    assert "config error: T must be finite, got inf" in capsys.readouterr().err


# -- simulate / bridge-mc ------------------------------------------------------------

@pytest.mark.parametrize("command,block", [
    ("simulate", {"simulate": {"n_paths": 100, "n_steps": 8, "point": [0.1, 0.2],
                               "estimator": _KDE, "chunk_size": 50}}),
    ("bridge-mc", {"bridge_mc": {"n_paths": 100, "n_steps": 8, "endpoint": [0.1, 0.2],
                                 "chunk_size": 50}}),
])
def test_chunk_size_is_an_unknown_key(tmp_path, command, block):
    # the paths have one partition, the fixed row blocks: no key sets another
    cfg = write_config(tmp_path, {"model": MODEL, **block})
    proc = run_cli([command, "--config", cfg])
    assert proc.returncode == 2
    assert "unknown keys" in proc.stderr and "chunk_size" in proc.stderr

def simulate_config(tmp_path, n_paths=2000):
    return write_config(tmp_path, {
        "model": MODEL,
        "simulate": {"n_paths": n_paths, "n_steps": 16, "point": [0.1, -0.05],
                     "estimator": {"type": "kde", "bandwidth_x": 0.05,
                                   "bandwidth_y": 0.05}},
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
    cfg = simulate_config(tmp_path, n_paths=5000)  # blocks of 2048 and 2952 paths
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


def test_bridge_mc_overflow_exits_3_without_numpy_warnings(tmp_path):
    # weights under exp(3000 x) overflow in every block: a clean numerical
    # error, with no numpy RuntimeWarning printed from the pool's threads
    model = dict(MODEL, T=0.25, rho=0.3, h1="exp(3000*x)", h2="0")
    cfg = write_config(tmp_path, {"model": model, "bridge_mc": {
        "n_paths": 512, "n_steps": 16, "endpoint": [0.5, 0.0]}})
    out = tmp_path / "out"
    proc = run_cli(["bridge-mc", "--config", cfg, "--seed", "1", "--out", str(out)])
    assert proc.returncode == 3
    assert "numerical error" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == "" and not out.exists()


def test_bridge_mc_with_a_horizon_too_small_for_its_grid_exits_2(tmp_path):
    # T = 5e-324 is positive, but its grid step T/n underflows to 0
    cfg = write_config(tmp_path, {"model": dict(MODEL, T=5e-324), "bridge_mc": _BRIDGE})
    proc = run_cli(["bridge-mc", "--config", cfg])
    assert proc.returncode == 2
    assert "config error: grid step T/n" in proc.stderr and "Traceback" not in proc.stderr


def test_simulate_overflow_exits_3_and_writes_nothing(tmp_path, capsys):
    # forward paths under 50 x^2 + 1 overflow to inf: a numerical error, not
    # an estimate that counts the exploded paths as far-away samples
    model = {"H": 0.3, "rho": 0.3, "x0": 0.0, "y0": 0.0, "T": 1.0,
             "h1": "50*x*x + 1", "h2": "0"}
    cfg = write_config(tmp_path, {"model": model, "simulate": dict(
        _SIMULATE, n_paths=200, n_steps=32, emit_terminals=True)})
    out = tmp_path / "out"
    # T = 1 also lies beyond the drift's sampled contraction horizon, a warning
    with pytest.warns(RuntimeWarning, match="contraction horizon"):
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical error: forward paths overflow" in err and "Traceback" not in err
    assert not (out / "simulate.json").exists() and not (out / "terminals.csv").exists()


@pytest.mark.parametrize("out", [False, True])
def test_non_finite_result_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, out):
    # JSON has no NaN: a result holding one is a numerical error naming the field,
    # and neither the output directory nor its file is made
    from modalbridge import cli
    from modalbridge.mc import BridgeDensityEstimate

    monkeypatch.setattr(cli, "bridge_mc_density", lambda *args: BridgeDensityEstimate(
        value=0.3, std_err=0.01, n_effective=100, discretization_bias=math.nan))
    cfg = write_config(tmp_path, {"model": MODEL, "bridge_mc": _BRIDGE})
    out_dir = tmp_path / "out"
    assert main(["bridge-mc", "--config", cfg, *(["--out", str(out_dir)] if out else [])]) == 3
    captured = capsys.readouterr()
    assert "numerical error: output field discretization_bias_estimate is not finite" \
        in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out_dir.exists()


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


def test_density_overflow_names_the_leading_field(tmp_path, capsys):
    # the full variant is finite (0.173), but the leading one is e^2122: JSON
    # cannot hold it, so the run exits 3 naming it
    cfg = write_config(tmp_path, {"model": OVERFLOW_MODEL,
                                  "density": {"endpoints": [[60.0, 0.0]]}})
    assert main(["density", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "numerical error: output field density[0].p_hat_leading is not finite" \
        in captured.err
    assert captured.out == ""


def test_density_far_endpoint_underflows_with_finite_logs(tmp_path, capsys):
    model = dict(OVERFLOW_MODEL, h1="1", rho=0.3)
    cfg = write_config(tmp_path, {"model": model, "density": {"endpoints": [[1e150, 0.0]]}})
    assert main(["density", "--config", cfg]) == 0
    row = json.loads(capsys.readouterr().out)["density"][0]
    assert row["phi"] == 0.0 and row["p_hat_leading"] == 0.0 and row["p_hat_full"] == 0.0
    assert row["log_p_hat_leading"] == pytest.approx(-5.47e299, rel=1e-3)
    assert math.isfinite(row["log_p_hat_full"])


def test_density_log_of_minus_infinity_exits_3_naming_the_field(tmp_path, capsys):
    # u^2 overflows at (1e200, 0): the log density is -inf, which JSON cannot hold
    model = dict(OVERFLOW_MODEL, h1="1")
    cfg = write_config(tmp_path, {"model": model, "density": {"endpoints": [[1e200, 0.0]]}})
    assert main(["density", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "numerical error: output field density[0].log_p_hat_full is not finite" \
        in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_csv_float_format_17_digits(tmp_path):
    cfg = write_config(tmp_path, {"model": MODEL,
                                  "modal_path": {"n": 8, "endpoint": [1.0, 1.0]}})
    assert main(["modal-path", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "modal_path.csv").read_text().splitlines()
    assert lines[0] == "t,x_path,y_path,m11,m12,m21,m22"
    # a third of the way through T=0.5 on 8 steps: t = 0.1875 exactly
    assert lines[4].split(",")[0] == "0.1875"


# -- validate -------------------------------------------------------------------------

def test_validate_quick_passes(capsys):
    # without --out the report is the whole of stdout
    code = main(["validate", "--quick"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
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
