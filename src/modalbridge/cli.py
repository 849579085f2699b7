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
error.  Exit codes: 0 ok, 1 validation failure, 2 config or usage error,
3 numerical error, 4 unsupported parameter.  CSV output is deterministic
byte-for-byte for a given (config, seed): floats are printed with 17
significant digits, LF line endings, UTF-8, header row always present.  The
Monte Carlo estimators run their row blocks on as many worker threads as there
are usable cores, or on MODALBRIDGE_THREADS of them (1 runs serially); the
worker count never changes results, which are byte-identical for a fixed BLAS
thread setting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .density import approx_density
from .fraccalc import UnsupportedHurstError
from .driftspec import (DriftDomainError, ExprSyntaxError, ModelSpec,
                        model_from_dict, parse_drift)
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


def _write_json(payload: dict, out_path=None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _check_keys(block: dict, allowed, where: str) -> None:
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
    try:
        return model_from_dict(cfg["model"])
    except (ValueError, ExprSyntaxError) as exc:
        raise ConfigError(f"invalid model: {exc}") from None


def _point(value, where: str) -> tuple:
    """A config point [x, y] as two floats."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return float(value[0]), float(value[1])
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{where} must be a pair of numbers [x, y], got {value!r}")


def _estimator_from_config(block: dict):
    _check_keys(block, ("type", "width_x", "width_y", "bandwidth_x", "bandwidth_y"),
                "estimator")
    kind = block.get("type")
    if kind == "bin":
        _require(block, ("width_x", "width_y"), "bin estimator")
        return BinEstimator(float(block["width_x"]), float(block["width_y"]))
    if kind == "kde":
        _require(block, ("bandwidth_x", "bandwidth_y"), "kde estimator")
        return KdeEstimator(float(block["bandwidth_x"]), float(block["bandwidth_y"]))
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
    try:
        hurst = Hurst(float(block["H"]))
    except ValueError as exc:
        raise ConfigError(f"invalid H: {exc}") from None
    t_values = [float(v) for v in block.get("t_values", (0.1, 0.5, 1.0, 2.0))]
    fracs = [float(v) for v in block.get("s_fractions", np.linspace(0.05, 0.95, 19))]
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


def _rho_tag(rho: float) -> str:
    return f"{rho:g}"


def _emit_modal_path(model: ModelSpec, n: int, endpoint, out_dir: str, stem: str):
    grid = TimeGrid(model.T, n)
    mp = modal_path(model, grid, endpoint)
    path = os.path.join(out_dir, f"{stem}.csv")
    _write_csv(path, ("t", "x_path", "y_path", "m11", "m12", "m21", "m22"),
               (grid.nodes, mp.x_path, mp.y_path, mp.m11, mp.m12, mp.m21, mp.m22))
    return path, mp


def cmd_modal_path(args) -> int:
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    if args.figure_grid:
        emitted = []
        for rho in FIGURE_RHOS:
            series = []
            for H in FIGURE_HS:
                model = ModelSpec(Hurst(H), rho, 0.0, 0.0, 1.0,
                                  _ZERO_EXPR, _ZERO_EXPR)
                stem = f"modal_path_rho{_rho_tag(rho)}_H{H:g}"
                path, mp = _emit_modal_path(model, FIGURE_GRID_N, (1.0, 1.0),
                                            out_dir, stem)
                emitted.append(path)
                series.append((f"H={H:g}", mp.grid.nodes, mp.y_path))
            if args.format in ("svg", None):
                svg = os.path.join(out_dir, f"modal_paths_rho{_rho_tag(rho)}.svg")
                _svg_line_chart(svg, f"modal paths, rho={rho:g}", series,
                                "t", "y path")
                emitted.append(svg)
        for p in emitted:
            print(p)
        return EXIT_OK
    cfg = _load_config(args.config)
    _check_keys(cfg, _TOP_LEVEL_KEYS, "config")
    model = _model_from_config(cfg)
    block = cfg.get("modal_path", {})
    _check_keys(block, ("n", "endpoint"), "modal_path block")
    _require(block, ("endpoint",), "modal_path block")
    n = int(block.get("n", 512))
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
    cfg = _load_config(args.config)
    _check_keys(cfg, _TOP_LEVEL_KEYS, "config")
    model = _model_from_config(cfg)
    block = cfg.get("density", {})
    _check_keys(block, ("n", "endpoints"), "density block")
    _require(block, ("endpoints",), "density block")
    n = int(block.get("n", 512))
    if not isinstance(block["endpoints"], list):
        raise ConfigError(f"density endpoints must be a list of [x, y] pairs, "
                          f"got {block['endpoints']!r}")
    endpoints = [_point(ep, "density endpoint") for ep in block["endpoints"]]
    results = []
    for endpoint in endpoints:
        approx = approx_density(model, endpoint, n=n)
        results.append({
            "endpoint": list(endpoint),
            "phi": approx.phi,
            "omega_1": approx.omega_1,
            "omega_full": approx.omega_full,
            "alpha": approx.alpha if math.isfinite(approx.alpha) else "exact",
            "p_hat_leading": approx.p_hat,
            "p_hat_full": approx.p_hat_full,
            "drift_class": model.drift_class.value,
        })
    payload = {"density": results}
    out = os.path.join(args.out, "density.json") if args.out else None
    if out:
        os.makedirs(args.out, exist_ok=True)
    _write_json(payload, out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _TOP_LEVEL_KEYS, "config")
    model = _model_from_config(cfg)
    block = cfg.get("simulate", {})
    _check_keys(block, ("n_paths", "n_steps", "point", "estimator", "chunk_size",
                        "seed", "emit_terminals"), "simulate block")
    _require(block, ("n_paths", "n_steps", "point", "estimator"), "simulate block")
    seed = args.seed if args.seed is not None else int(block.get("seed", 0))
    config = SimConfig(
        n_paths=int(block["n_paths"]),
        n_steps=int(block["n_steps"]),
        seed=seed,
        chunk_size=int(block.get("chunk_size", SimConfig.chunk_size)),
    )
    estimator = _estimator_from_config(block["estimator"])
    point = _point(block["point"], "simulate point")
    ensemble = simulate_forward(model, config)
    est = estimate_density_at(ensemble, point, estimator)
    payload = {
        "estimate": est.value,
        "std_err": est.std_err,
        "n_paths": ensemble.n_paths,
        "seed": seed,
    }
    out = os.path.join(args.out, "simulate.json") if args.out else None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    _write_json(payload, out)
    if args.out and block.get("emit_terminals"):
        _write_csv(os.path.join(args.out, "terminals.csv"),
                   ("terminal_x", "terminal_y"),
                   (ensemble.terminal_x, ensemble.terminal_y))
    return EXIT_OK


def cmd_bridge_mc(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _TOP_LEVEL_KEYS, "config")
    model = _model_from_config(cfg)
    block = cfg.get("bridge_mc", {})
    _check_keys(block, ("n_paths", "n_steps", "endpoint", "chunk_size", "seed"),
                "bridge_mc block")
    _require(block, ("n_paths", "n_steps", "endpoint"), "bridge_mc block")
    seed = args.seed if args.seed is not None else int(block.get("seed", 0))
    config = SimConfig(
        n_paths=int(block["n_paths"]),
        n_steps=int(block["n_steps"]),
        seed=seed,
        chunk_size=int(block.get("chunk_size", SimConfig.chunk_size)),
    )
    endpoint = _point(block["endpoint"], "bridge_mc endpoint")
    est = bridge_mc_density(model, endpoint, config)
    payload = {
        "estimate": est.value,
        "std_err": est.std_err,
        "discretization_bias_estimate": est.discretization_bias,
        "n_paths": est.n_effective,
        "seed": seed,
    }
    out = os.path.join(args.out, "bridge_mc.json") if args.out else None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    _write_json(payload, out)
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validate import run_validation

    report = run_validation(quick=args.quick, echo=lambda s: print(s, file=sys.stderr))
    payload = report.to_dict()
    out = os.path.join(args.out, "validation.json") if args.out else None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    _write_json(payload, out)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except UnsupportedHurstError as exc:
        print(f"unsupported parameter: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (NumericalConditioningError, DriftDomainError, FloatingPointError,
            OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except ExprSyntaxError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
