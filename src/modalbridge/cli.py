"""Command-line surface.

Subcommands::

    modalbridge kernel      --config cfg.json --out DIR     kernel values as CSV
    modalbridge modal-path  --config cfg.json --out DIR     modal path as CSV (+SVG)
                            [--format csv|svg]
    modalbridge modal-path  --figure-grid --out DIR         the 16-curve preset
    modalbridge density     --config cfg.json [--out DIR]   approximation as JSON
    modalbridge simulate    --config cfg.json [--out DIR]   forward MC as JSON (+CSV)
                            [--seed N]
    modalbridge bridge-mc   --config cfg.json [--out DIR]   bridge MC as JSON
                            [--seed N]
    modalbridge validate    [--quick] [--out DIR]           acceptance suite

Each subcommand accepts only the flags it reads; any other flag is a usage
error.  Exit codes: 0 ok, 1 validation failure, 2 config or usage error
(a config too large for memory among them, with nothing written),
3 numerical error, 4 unsupported parameter.  CSV output is deterministic
byte-for-byte for a given (config, seed): floats are printed with 17
significant digits, LF line endings, UTF-8, header row always present.  The
Monte Carlo estimators cut the paths into fixed blocks, 2048 rows for
simulate and 256 for bridge-mc, each on its own SFC64 stream spawned from
the seed's SeedSequence, and run them on as many worker threads as there
are usable cores, or on MODALBRIDGE_THREADS of them; neither the worker
count nor the BLAS thread setting changes results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .density import approx_densities
from .fraccalc import UnsupportedHurstError
from .driftspec import DriftDomainError, ModelSpec, json_number, model_from_dict, parse_drift
from .kernel import (Hurst, NumericalConditioningError, TimeGrid, kernel_alt,
                     kernel_hyp)
from .bridge import modal_path
from .mc import (BinEstimator, KdeEstimator, SimConfig, bridge_mc_density,
                 estimate_density_at, simulate_forward)

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3
EXIT_UNSUPPORTED = 4

FIGURE_GRID_N = 16384
FIGURE_RHOS = (0.0, 0.7, -0.7, -0.9)
FIGURE_HS = (0.01, 0.25, 0.49, 0.75)


class ConfigError(ValueError):
    pass


_ZERO_EXPR = parse_drift("0")

_TOP_LEVEL_KEYS = ("model", "kernel", "modal_path", "density", "simulate", "bridge_mc")


def _write_csv(path: str, header, columns) -> None:
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, data, fmt="%.17g", delimiter=",", newline="\n")


def _write_json(payload: dict, out_dir, name: str) -> None:
    """Write payload as JSON to out_dir/name, making the directory, or to stdout.

    JSON has no NaN or infinity: a non-finite number in payload is a
    NumericalConditioningError naming its field, raised before anything is
    made or written.
    """
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalConditioningError(
            f"output field {_non_finite_field(payload)} is not finite") from exc
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _non_finite_field(value, path=""):
    """The path, such as density[0].phi, of the first non-finite real in value, or None."""
    if isinstance(value, dict):
        parts = ((f"{path}.{key}" if path else key, v) for key, v in sorted(value.items()))
    elif isinstance(value, list):
        parts = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return path if _non_finite(value) else None
    return next(filter(None, (_non_finite_field(v, p) for p, v in parts)), None)


def _non_finite(value) -> bool:
    """True for a NaN or infinite real, or a list holding one at any depth."""
    if isinstance(value, list):
        return any(map(_non_finite, value))
    return isinstance(value, float) and not math.isfinite(value)


def _finite_object(pairs) -> dict:
    """A JSON object, or a ConfigError naming the key of a non-finite real.

    json reads NaN, Infinity and an overflowing literal such as 1e999 as
    floats; this hook sees each one with its key, in every object.
    """
    for key, value in pairs:
        if _non_finite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    return dict(pairs)


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_finite_object)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _check_keys(block: dict, allowed, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(block: dict, keys, where: str) -> None:
    missing = set(keys) - set(block)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _model_from_config(cfg: dict) -> ModelSpec:
    if "model" not in cfg:
        raise ConfigError("config must contain a 'model' block")
    if not isinstance(cfg["model"], dict):
        raise ConfigError(f"model block must be a JSON object, got {cfg['model']!r}")
    try:
        return model_from_dict(cfg["model"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}") from None


def _model_and_block(args, name: str, allowed, required):
    """The model of args' config and its block `name` ({} if absent), every key checked."""
    cfg = _load_config(args.config)
    _check_keys(cfg, _TOP_LEVEL_KEYS, "config")
    model = _model_from_config(cfg)
    block = cfg.get(name, {})
    _check_keys(block, allowed, f"{name} block")
    _require(block, required, f"{name} block")
    return model, block


def _numbers(value, where: str) -> list:
    """A config list of numbers as floats."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [json_number(v, where) for v in value]


def _point(value, where: str) -> tuple:
    """A config point [x, y] of two JSON numbers as two floats."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return json_number(value[0], where), json_number(value[1], where)
        except ValueError:
            pass
    raise ConfigError(f"{where} must be a pair of numbers [x, y], got {value!r}")


def _estimator_from_config(block: dict):
    _check_keys(block, ("type", "width_x", "width_y", "bandwidth_x", "bandwidth_y"),
                "estimator")
    kind = block.get("type")
    if kind == "bin":
        _require(block, ("width_x", "width_y"), "bin estimator")
        return BinEstimator(json_number(block["width_x"], "width_x"),
                            json_number(block["width_y"], "width_y"))
    if kind == "kde":
        _require(block, ("bandwidth_x", "bandwidth_y"), "kde estimator")
        return KdeEstimator(json_number(block["bandwidth_x"], "bandwidth_x"),
                            json_number(block["bandwidth_y"], "bandwidth_y"))
    raise ConfigError(f"estimator type must be 'bin' or 'kde', got {kind!r}")


# -- svg -----------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _svg_line_chart(path: str, title: str, series, x_label: str, y_label: str) -> None:
    """Minimal deterministic SVG line chart (fixed 640 x 480 viewport)."""
    width, height = 640, 480
    mx, my = 60, 40
    pw, ph = width - 2 * mx, height - 2 * my
    xs = np.concatenate([s[1] for s in series])
    ys = np.concatenate([s[2] for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return mx + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return my + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{mx}" y="{my}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="{width // 2}" y="{my - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<text x="{width // 2}" y="{height - 8}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{x_label}</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-family="monospace" '
        f'font-size="12" transform="rotate(-90 14 {height // 2})">{y_label}</text>',
    ]
    for i, (label, x, y) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{mx + 8}" y="{my + 18 + 16 * i}" fill="{color}" '
                     f'font-family="monospace" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# -- subcommands ------------------------------------------------------------------

def cmd_kernel(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _TOP_LEVEL_KEYS, "config")
    if "kernel" not in cfg:
        raise ConfigError("config must contain a 'kernel' block")
    block = cfg["kernel"]
    _check_keys(block, ("H", "t_values", "s_fractions"), "kernel block")
    _require(block, ("H",), "kernel block")
    hurst = Hurst(json_number(block["H"], "H"))
    t_values = _numbers(block.get("t_values", [0.1, 0.5, 1.0, 2.0]), "t_values")
    fracs = _numbers(block.get("s_fractions", np.linspace(0.05, 0.95, 19).tolist()),
                     "s_fractions")
    if any(t <= 0 for t in t_values):
        raise ConfigError("t_values must be positive")
    if any(not 0.0 < f < 1.0 for f in fracs):
        raise ConfigError("s_fractions must lie strictly in (0, 1)")
    t_col, s_col, hyp_col, alt_col, diff_col = [], [], [], [], []
    for t in t_values:
        s = np.array(fracs) * t
        k_hyp = np.atleast_1d(kernel_hyp(t, s, hurst))
        k_alt = np.atleast_1d(kernel_alt(t, s, hurst))
        t_col.extend([t] * len(s))
        s_col.extend(s.tolist())
        hyp_col.extend(k_hyp.tolist())
        alt_col.extend(k_alt.tolist())
        diff_col.extend((np.abs(k_hyp - k_alt) / np.abs(k_hyp)).tolist())
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "kernel.csv")
    _write_csv(path, ("t", "s", "K_hyp", "K_alt", "abs_rel_diff"),
               (t_col, s_col, hyp_col, alt_col, diff_col))
    print(path)
    return EXIT_OK


def _emit_modal_path(model: ModelSpec, n: int, endpoint, out_dir: str, stem: str):
    grid = TimeGrid(model.T, n)
    mp = modal_path(model, grid, endpoint)
    os.makedirs(out_dir, exist_ok=True)  # only now, so a failed build leaves nothing behind
    path = os.path.join(out_dir, f"{stem}.csv")
    _write_csv(path, ("t", "x_path", "y_path", "m11", "m12", "m21", "m22"),
               (grid.nodes, mp.x_path, mp.y_path, mp.m11, mp.m12, mp.m21, mp.m22))
    return path, mp


def write_figure_grid(out_dir: str, svg: bool = True) -> list:
    """Write the 16-curve preset to out_dir and return the paths written, in order.

    One CSV per (rho, H) in FIGURE_RHOS x FIGURE_HS, each the zero-drift modal
    path to (1, 1) at T = 1 on FIGURE_GRID_N steps, and with svg one chart of
    the y paths per rho.
    """
    emitted = []
    for rho in FIGURE_RHOS:
        series = []
        for H in FIGURE_HS:
            model = ModelSpec(Hurst(H), rho, 0.0, 0.0, 1.0, _ZERO_EXPR, _ZERO_EXPR)
            path, mp = _emit_modal_path(model, FIGURE_GRID_N, (1.0, 1.0), out_dir,
                                        f"modal_path_rho{rho:g}_H{H:g}")
            emitted.append(path)
            series.append((f"H={H:g}", mp.grid.nodes, mp.y_path))
        if svg:
            chart = os.path.join(out_dir, f"modal_paths_rho{rho:g}.svg")
            _svg_line_chart(chart, f"modal paths, rho={rho:g}", series, "t", "y path")
            emitted.append(chart)
    return emitted


def cmd_modal_path(args) -> int:
    if args.figure_grid and args.config is not None:
        raise ConfigError("--figure-grid reads no config: its presets are fixed")
    out_dir = args.out or "."
    if args.figure_grid:
        for p in write_figure_grid(out_dir, svg=args.format in ("svg", None)):
            print(p)
        return EXIT_OK
    model, block = _model_and_block(args, "modal_path", ("n", "endpoint"), ("endpoint",))
    n = json_number(block.get("n", 512), "modal_path n", int)
    endpoint = _point(block["endpoint"], "modal_path endpoint")
    path, mp = _emit_modal_path(model, n, endpoint, out_dir, "modal_path")
    print(path)
    if args.format == "svg":
        svg = os.path.join(out_dir, "modal_path.svg")
        _svg_line_chart(svg, "modal path", [("x", mp.grid.nodes, mp.x_path),
                                            ("y", mp.grid.nodes, mp.y_path)],
                        "t", "path")
        print(svg)
    return EXIT_OK


def cmd_density(args) -> int:
    model, block = _model_and_block(args, "density", ("n", "endpoints"), ("endpoints",))
    n = json_number(block.get("n", 512), "density n", int)
    if not isinstance(block["endpoints"], list):
        raise ConfigError(f"density endpoints must be a list of [x, y] pairs, "
                          f"got {block['endpoints']!r}")
    endpoints = [_point(ep, "density endpoint") for ep in block["endpoints"]]
    results = []
    for endpoint, approx in zip(endpoints, approx_densities(model, endpoints, n=n)):
        results.append({
            "endpoint": list(endpoint),
            "phi": approx.phi,
            "omega_1": approx.omega_1,
            "omega_full": approx.omega_full,
            "alpha": approx.alpha if math.isfinite(approx.alpha) else "exact",
            "p_hat_leading": approx.p_hat,
            "p_hat_full": approx.p_hat_full,
            "log_p_hat_leading": approx.log_p_hat,
            "log_p_hat_full": approx.log_p_hat_full,
            "drift_class": model.drift_class.value,
        })
    payload = {"density": results}
    _write_json(payload, args.out, "density.json")
    return EXIT_OK


def _sim_config(block: dict, seed_flag) -> SimConfig:
    """The SimConfig of a simulate or bridge_mc block; --seed overrides its seed."""
    seed = seed_flag if seed_flag is not None else json_number(block.get("seed", 0), "seed", int)
    return SimConfig(n_paths=json_number(block["n_paths"], "n_paths", int),
                     n_steps=json_number(block["n_steps"], "n_steps", int), seed=seed)


def cmd_simulate(args) -> int:
    model, block = _model_and_block(
        args, "simulate", ("n_paths", "n_steps", "point", "estimator", "seed", "emit_terminals"),
        ("n_paths", "n_steps", "point", "estimator"))
    config = _sim_config(block, args.seed)
    estimator = _estimator_from_config(block["estimator"])
    point = _point(block["point"], "simulate point")
    emit_terminals = block.get("emit_terminals", False)
    if not isinstance(emit_terminals, bool):
        raise ConfigError(f"emit_terminals must be true or false, got {emit_terminals!r}")
    if emit_terminals and not args.out:
        raise ConfigError("emit_terminals needs --out, the directory of terminals.csv")
    ensemble = simulate_forward(model, config)
    est = estimate_density_at(ensemble, point, estimator)
    payload = {
        "estimate": est.value,
        "std_err": est.std_err,
        "n_paths": ensemble.n_paths,
        "seed": config.seed,
    }
    _write_json(payload, args.out, "simulate.json")
    if emit_terminals:
        _write_csv(os.path.join(args.out, "terminals.csv"),
                   ("terminal_x", "terminal_y"),
                   (ensemble.terminal_x, ensemble.terminal_y))
    return EXIT_OK


def cmd_bridge_mc(args) -> int:
    model, block = _model_and_block(args, "bridge_mc", ("n_paths", "n_steps", "endpoint", "seed"),
                                    ("n_paths", "n_steps", "endpoint"))
    config = _sim_config(block, args.seed)
    endpoint = _point(block["endpoint"], "bridge_mc endpoint")
    est = bridge_mc_density(model, endpoint, config)
    payload = {
        "estimate": est.value,
        "std_err": est.std_err,
        "discretization_bias_estimate": est.discretization_bias,
        "n_paths": est.n_effective,
        "seed": config.seed,
    }
    _write_json(payload, args.out, "bridge_mc.json")
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validate import run_validation

    report = run_validation(quick=args.quick, echo=lambda s: print(s, file=sys.stderr))
    payload = report.to_dict()
    _write_json(payload, args.out, "validation.json")
    return EXIT_OK if report.all_passed else EXIT_VALIDATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalbridge",
        description="Bridge representation and modal-path density approximation "
                    "for a Brownian motion coupled with a correlated fractional "
                    "Brownian motion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": dict(help="JSON configuration file"),
        "--seed": dict(type=int, default=None, help="RNG seed override"),
        "--out": dict(help="output directory"),
    }

    def command(name, fn, help, *names):
        """A subcommand with only the shared flags it reads."""
        p = sub.add_parser(name, help=help)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(fn=fn)
        return p

    command("kernel", cmd_kernel, "evaluate both kernel forms on a grid", "--config", "--out")
    p = command("modal-path", cmd_modal_path, "modal path and bridge coefficients",
                "--config", "--out")
    p.add_argument("--format", choices=("csv", "svg"), default=None,
                   help="svg adds SVG charts; default: CSV only, or CSV and SVG "
                        "with --figure-grid")
    p.add_argument("--figure-grid", action="store_true",
                   help="emit the 16-curve preset (rho x H grid)")
    command("density", cmd_density, "modal-path density approximation", "--config", "--out")
    command("simulate", cmd_simulate, "forward Monte Carlo density estimate",
            "--config", "--seed", "--out")
    command("bridge-mc", cmd_bridge_mc, "bridge-measure Monte Carlo density",
            "--config", "--seed", "--out")
    p = command("validate", cmd_validate, "run the acceptance suite", "--out")
    p.add_argument("--quick", action="store_true", help="reduced-scale subset")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UnsupportedHurstError as exc:
        print(f"unsupported parameter: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (NumericalConditioningError, DriftDomainError, FloatingPointError,
            OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except ValueError as exc:  # ConfigError and ExprSyntaxError among them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:
        print(f"config error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
