"""The acceptance suite: every shipped guarantee as an executable criterion.

Each criterion returns a :class:`CriterionResult`; :func:`run_validation`
executes them in order and aggregates a machine-readable report.  The quick
mode shrinks the Monte Carlo scales (and skips the long asymptotic-trend run)
so a smoke pass finishes in well under a minute; the full mode runs every
check at its shipped tolerance.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .bridge import GaussianConditioner, condition_gaussian, modal_coeffs, modal_path
from .density import (approx_densities, approx_density, exact_timeonly_density,
                      gaussian_prefactor)
from .driftspec import ModelSpec, parse_drift
from .fraccalc import GridFunction, apply_KH, invert_KH
from .kernel import (Hurst, TimeGrid, kernel_alt, kernel_hyp,
                     kernel_partial_integral, kernel_total_integral)
from .mc import (BinEstimator, DensityEstimate, KdeEstimator, SimConfig, bridge_mc_density,
                 estimate_density_at, simulate_forward)

__all__ = ["CriterionResult", "ValidationReport", "run_validation", "CRITERIA"]

_H_SET = (0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.7, 0.75, 0.9)
_ZERO = parse_drift("0")


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    details: str
    skipped: bool = False

    def to_dict(self) -> dict:
        return {
            "criterion": self.number,
            "name": self.name,
            "passed": bool(self.passed),
            "skipped": bool(self.skipped),
            "runtime_seconds": round(self.runtime, 3),
            "details": self.details,
        }


@dataclass
class ValidationReport:
    results: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed or r.skipped for r in self.results)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "criteria": [r.to_dict() for r in self.results],
        }


def _zero_model(H: float, rho: float, T: float = 1.0) -> ModelSpec:
    return ModelSpec(Hurst(H), rho, 0.0, 0.0, T, _ZERO, _ZERO)


# -- criteria -------------------------------------------------------------------


def crit_kernel_integral_identity(quick: bool) -> tuple:
    """1: quadrature of int_0^t K_H(t,u) du vs kappa_H t^(H+1/2), rel 1e-6."""
    worst = 0.0
    for H in _H_SET:
        hurst = Hurst(H)
        for t in (0.1, 1.0, 2.0):
            quad_val = kernel_partial_integral(t, t, hurst)
            closed = kernel_total_integral(t, hurst)
            worst = max(worst, abs(quad_val - closed) / abs(closed))
    return worst <= 1e-6, f"max relative deviation {worst:.3e} (tolerance 1e-6)"


def crit_kernel_form_equivalence(quick: bool) -> tuple:
    """2: |K_hyp - K_alt| / |K_hyp| <= 1e-8 on a 20 x 20 (t, s) sample."""
    worst = 0.0
    ts = np.linspace(0.1, 2.0, 20)
    fracs = np.linspace(0.05, 0.95, 20)
    for H in _H_SET:
        hurst = Hurst(H)
        for t in ts:
            s = fracs * t
            a = np.asarray(kernel_hyp(t, s, hurst))
            b = np.asarray(kernel_alt(t, s, hurst))
            worst = max(worst, float(np.max(np.abs(a - b) / np.abs(a))))
    return worst <= 1e-8, f"max relative form difference {worst:.3e} (tolerance 1e-8)"


def crit_operator_round_trip(quick: bool) -> tuple:
    """3: invert_KH(apply_KH(f)) interior error <= 1e-3 at n=2000, improving x1.5."""
    n_lo, n_hi = (500, 1000) if quick else (2000, 4000)
    tol = 4e-3 if quick else 1e-3
    fns = {
        "1": lambda t: np.ones_like(t),
        "t": lambda t: t,
        "sin": np.sin,
        "exp": np.exp,
    }
    lines = []
    ok = True
    for H in (0.25, 0.5, 0.75):
        hurst = Hurst(H)
        for name, fn in fns.items():
            errs = {}
            for n in (n_lo, n_hi):
                grid = TimeGrid(1.0, n)
                f = fn(grid.nodes)
                image = apply_KH(GridFunction(grid, f), hurst)
                back = invert_KH(image, hurst).values
                lo = int(0.02 * n)
                errs[n] = float(np.max(np.abs(back[lo:] - f[lo:])))
            ratio = errs[n_lo] / max(errs[n_hi], 1e-300)
            good = errs[n_lo] <= tol and (ratio >= 1.5 or errs[n_hi] <= 1e-9)
            ok = ok and good
            lines.append(f"H={H} f={name}: err({n_lo})={errs[n_lo]:.2e} "
                         f"ratio={ratio:.2f}{'' if good else ' FAIL'}")
    return ok, "; ".join(lines)


def crit_modal_path_structure(quick: bool) -> tuple:
    """4: pinning 1e-10; straight line at H=1/2 to 1e-12; rho=0 decoupling; midpoint jump."""
    issues = []
    grid = TimeGrid(1.0, 400)
    for H in (0.01, 0.25, 0.49, 0.75):
        for rho in (0.0, 0.7, -0.7, -0.9):
            mp = modal_path(_zero_model(H, rho), grid, (1.0, 1.0))
            pin = max(abs(mp.x_path[-1] - 1.0), abs(mp.y_path[-1] - 1.0),
                      abs(mp.x_path[0]), abs(mp.y_path[0]))
            if pin > 1e-10:
                issues.append(f"pinning failure {pin:.1e} at H={H}, rho={rho}")
    for rho in (-0.9, 0.0, 0.7):
        mp = modal_path(_zero_model(0.5, rho), grid, (1.0, 1.0))
        dev = max(np.max(np.abs(mp.x_path - grid.nodes)),
                  np.max(np.abs(mp.y_path - grid.nodes)))
        if dev > 1e-12:
            issues.append(f"straight-line deviation {dev:.1e} at rho={rho}")
    for H in (0.01, 0.25, 0.75):
        m11, m12, m21, m22 = modal_coeffs(_zero_model(H, 0.0), grid)
        if np.any(m12 != 0.0) or np.any(m21 != 0.0):
            issues.append(f"rho=0 cross-coefficients not exactly zero at H={H}")
    mp = modal_path(_zero_model(0.01, 0.0), grid, (1.0, 1.0))
    y05 = float(np.interp(0.05, grid.nodes, mp.y_path))
    if not 0.45 < y05 < 0.55:
        issues.append(f"midpoint jump y(0.05)={y05:.4f} outside (0.45, 0.55)")
    detail = "; ".join(issues) if issues else \
        f"pinning, straight-line, decoupling, and jump checks passed (y(0.05)={y05:.4f})"
    return not issues, detail


def crit_conditional_gaussian(quick: bool) -> tuple:
    """5: analytic bivariate case to 1e-12; 6x6 instance vs regression oracle, 3 s.e."""
    r = 0.6
    g = GaussianConditioner(np.zeros(2), np.array([[1.0, r], [r, 1.0]]),
                            np.array([1]), np.array([0.7]))
    mean, cov = condition_gaussian(g)
    if abs(mean[0] - r * 0.7) > 1e-12 or abs(cov[0, 0] - (1 - r * r)) > 1e-12:
        return False, "analytic bivariate conditioning outside 1e-12"

    rng = np.random.Generator(np.random.Philox(key=1234))
    a = rng.normal(size=(6, 6))
    cov6 = a @ a.T + 0.5 * np.eye(6)
    mu6 = rng.normal(size=6)
    obs_idx = np.array([4, 5])
    y_obs = mu6[obs_idx] + rng.normal(size=2) * 0.3
    mean6, cov6c = condition_gaussian(GaussianConditioner(mu6, cov6, obs_idx, y_obs))

    n_samples = 100_000 if quick else 1_000_000
    batches = 50
    L = np.linalg.cholesky(cov6)
    est_means = np.empty((batches, 4))
    est_covs = np.empty((batches, 4, 4))
    per = n_samples // batches
    for b in range(batches):
        z = rng.standard_normal((per, 6))
        sample = mu6 + z @ L.T
        x, y = sample[:, :4], sample[:, 4:]
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        s_xy = xc.T @ yc / (per - 1)
        s_yy = yc.T @ yc / (per - 1)
        beta = s_xy @ np.linalg.inv(s_yy)
        est_means[b] = x.mean(axis=0) + beta @ (y_obs - y.mean(axis=0))
        resid = xc - yc @ beta.T
        est_covs[b] = resid.T @ resid / (per - 1)
    mean_hat = est_means.mean(axis=0)
    mean_se = est_means.std(axis=0, ddof=1) / math.sqrt(batches)
    cov_hat = est_covs.mean(axis=0)
    cov_se = est_covs.std(axis=0, ddof=1) / math.sqrt(batches)
    dev_mean = np.max(np.abs(mean_hat - mean6) / np.maximum(mean_se, 1e-300))
    dev_cov = np.max(np.abs(cov_hat - cov6c) / np.maximum(cov_se, 1e-300))
    ok = dev_mean <= 3.0 and dev_cov <= 3.0
    return ok, (f"bivariate exact; 6x6 regression oracle: mean dev {dev_mean:.2f} s.e., "
                f"cov dev {dev_cov:.2f} s.e. (limit 3)")


def crit_timeonly_exactness(quick: bool) -> tuple:
    """6: phi e^(omega_full) equals the closed-form Gaussian density to 1e-8."""
    worst = 0.0
    rng = np.random.Generator(np.random.Philox(key=42))
    for H, rho in ((0.5, 0.0), (0.5, 0.7), (0.3, 0.5), (0.7, -0.4)):
        model = ModelSpec(Hurst(H), rho, 0.1, -0.3, 0.5,
                          parse_drift("0.2"), parse_drift("-0.1"))
        endpoints = [(0.1 + 0.7 * rng.standard_normal(), -0.3 + 0.5 * rng.standard_normal())
                     for _ in range(10)]
        for endpoint, approx in zip(endpoints, approx_densities(model, endpoints, n=512)):
            exact = exact_timeonly_density(model, endpoint)
            worst = max(worst, abs(approx.p_hat_full / exact - 1.0))
    return worst <= 1e-8, f"max relative deviation {worst:.3e} (tolerance 1e-8)"


def _bin_agrees(est: DensityEstimate, phi: float, area: float) -> tuple:
    """(passed, detail) for a bin estimate of the density phi.

    A bin with hits passes within 3 s.e. + a 5% bias allowance of phi.  A bin
    with no hits passes while a Poisson hit count of mean n * area * phi is
    zero with probability at least 1e-3: at small n its one-hit allowance
    could otherwise fall below phi itself.
    """
    if est.value == 0.0:
        lam = est.n_effective * area * phi
        p_zero = math.exp(-lam)
        return p_zero >= 1e-3, f"0 hits, P(0 | mean {lam:.3g}) = {p_zero:.3g} (needs >= 0.001)"
    allow = 3.0 * est.std_err + 0.05 * phi
    return abs(est.value - phi) <= allow, f"|{est.value:.4f}-{phi:.4f}| <= {allow:.4f}"


def crit_forward_mc_vs_prefactor(quick: bool) -> tuple:
    """7: zero-drift forward MC bin density within 3 s.e. + 5% of phi (zero hits: Poisson)."""
    n_paths = 20_000 if quick else 500_000
    lines = []
    ok = True
    T = 0.1
    for H in (0.3, 0.5, 0.7):
        model = _zero_model(H, 0.5, T=T)
        ens = simulate_forward(model, SimConfig(n_paths=n_paths, n_steps=128, seed=2024))
        sx, sy = math.sqrt(T), T ** H
        for point in ((0.0, 0.0), (0.5 * sx, 0.5 * sy), (-sx, sy)):
            est = estimate_density_at(ens, point, BinEstimator(0.08 * sx, 0.08 * sy))
            phi = gaussian_prefactor(point[0], point[1], model)
            good, detail = _bin_agrees(est, phi, 0.08 * sx * 0.08 * sy)
            ok = ok and good
            lines.append(f"H={H} {point}: {detail}{'' if good else ' FAIL'}")
    return ok, "; ".join(lines)


def crit_bridge_mc_vs_exact(quick: bool) -> tuple:
    """8: bridge MC within 2 (statistical + halving-bias) errors of the exact density."""
    n_paths = 5_000 if quick else 100_000
    n_steps = 64 if quick else 256
    lines = []
    ok = True
    for H, rho in ((0.5, 0.0), (0.5, 0.7)):
        model = ModelSpec(Hurst(H), rho, 0.1, -0.3, 0.5,
                          parse_drift("0.2"), parse_drift("-0.1"))
        endpoint = (0.4, -0.6)
        est = bridge_mc_density(model, endpoint,
                                SimConfig(n_paths=n_paths, n_steps=n_steps, seed=99))
        exact = exact_timeonly_density(model, endpoint)
        allow = 2.0 * (est.std_err + est.discretization_bias) + 1e-12 * exact
        good = abs(est.value - exact) <= allow
        ok = ok and good
        lines.append(f"(H={H}, rho={rho}): |{est.value:.6g}-{exact:.6g}| <= "
                     f"{allow:.3g}{'' if good else ' FAIL'}")
    return ok, "; ".join(lines)


def crit_asymptotic_trend(quick: bool) -> tuple:
    """9: |p_MC / p_hat - 1| non-increasing across T = 0.4, 0.2, 0.1 (noise allowed)."""
    if quick:
        return True, "skipped at quick scale (full run only)", True
    n_paths = 1_000_000
    model_of = lambda T: ModelSpec(Hurst(0.4), 0.3, 0.0, 0.0, T,
                                   parse_drift("0.5*sin(x)"), parse_drift("0.5*cos(y)"))
    devs = []
    for i, T in enumerate((0.4, 0.2, 0.1)):
        model = model_of(T)
        sx, sy = math.sqrt(T), T ** 0.4
        endpoint = (sx, sy)
        ens = simulate_forward(model, SimConfig(n_paths=n_paths, n_steps=128, seed=31415 + i))
        est = estimate_density_at(ens, endpoint, KdeEstimator(0.05 * sx, 0.05 * sy))
        p_hat = approx_density(model, endpoint, n=512).p_hat
        dev = abs(est.value / p_hat - 1.0)
        devs.append((T, dev, est.std_err / p_hat))
    ok = True
    for (t1, d1, s1), (t2, d2, s2) in zip(devs, devs[1:]):
        if d2 > d1 + 2.0 * (s1 + s2):
            ok = False
    detail = "; ".join(f"T={t}: |ratio-1|={d:.4f} (se {s:.4f})" for t, d, s in devs)
    return ok, detail


def crit_figure_grid(quick: bool) -> tuple:
    """10: the CLI figure grid emits 16 continuous, pinned, near-straight curves."""
    import tempfile

    from .cli import FIGURE_HS, FIGURE_RHOS, write_figure_grid

    issues = []
    with tempfile.TemporaryDirectory() as tmp:
        write_figure_grid(tmp)
        for rho in FIGURE_RHOS:
            svg = os.path.join(tmp, f"modal_paths_rho{rho:g}.svg")
            if not os.path.exists(svg):
                issues.append(f"missing SVG for rho={rho:g}")
            for H in FIGURE_HS:
                path = os.path.join(tmp, f"modal_path_rho{rho:g}_H{H:g}.csv")
                if not os.path.exists(path):
                    issues.append(f"missing CSV for H={H}, rho={rho}")
                    continue
                data = np.loadtxt(path, delimiter=",", skiprows=1)
                t, x_path, y_path = data[:, 0], data[:, 1], data[:, 2]
                jump = max(float(np.max(np.abs(np.diff(x_path)))),
                           float(np.max(np.abs(np.diff(y_path)))))
                limit = 0.6 if H == 0.01 else 0.05
                if jump > limit:
                    issues.append(f"jump {jump:.3f} > {limit} at H={H}, rho={rho}")
                pin = max(abs(x_path[-1] - 1.0), abs(y_path[-1] - 1.0),
                          abs(x_path[0]), abs(y_path[0]))
                if pin > 1e-10:
                    issues.append(f"pinning {pin:.1e} at H={H}, rho={rho}")
                if H == 0.49:
                    dev = max(float(np.max(np.abs(x_path - t))),
                              float(np.max(np.abs(y_path - t))))
                    if dev > 0.05:
                        issues.append(f"H=0.49 straightness {dev:.3f} > 0.05 at rho={rho}")
    return not issues, ("; ".join(issues) if issues
                        else "16 CSVs + 4 SVGs emitted; continuity, pinning, straightness pass")


def crit_determinism(quick: bool) -> tuple:
    """11: identical seeds give identical results; worker count does not matter."""
    model = ModelSpec(Hurst(0.35), 0.4, 0.0, 0.0, 0.5,
                      parse_drift("0.1*x"), parse_drift("sin(t)"))
    cfg = SimConfig(n_paths=8000, n_steps=32, seed=777)
    a = simulate_forward(model, cfg, workers=1)
    b = simulate_forward(model, cfg, workers=1)
    c = simulate_forward(model, cfg, workers=4)
    same_runs = (np.array_equal(a.terminal_x, b.terminal_x)
                 and np.array_equal(a.terminal_y, b.terminal_y))
    same_workers = (np.array_equal(a.terminal_x, c.terminal_x)
                    and np.array_equal(a.terminal_y, c.terminal_y))
    zero = _zero_model(0.3, 0.2, T=0.5)
    bridge_cfg = SimConfig(n_paths=8000, n_steps=32, seed=5)
    r1 = bridge_mc_density(zero, (0.1, 0.1), bridge_cfg)
    r2 = bridge_mc_density(zero, (0.1, 0.1), bridge_cfg, workers=3)
    same_bridge = r1.value == r2.value and r1.std_err == r2.std_err
    ok = same_runs and same_workers and same_bridge
    return ok, (f"repeat runs identical: {same_runs}; worker-count invariant: "
                f"{same_workers}; bridge worker invariant: {same_bridge}")


CRITERIA = (
    (1, "kernel integral identity", crit_kernel_integral_identity),
    (2, "kernel form equivalence", crit_kernel_form_equivalence),
    (3, "operator round trip", crit_operator_round_trip),
    (4, "modal path structure", crit_modal_path_structure),
    (5, "conditional Gaussian lemma", crit_conditional_gaussian),
    (6, "time-only exactness", crit_timeonly_exactness),
    (7, "forward MC vs prefactor", crit_forward_mc_vs_prefactor),
    (8, "bridge MC vs exact density", crit_bridge_mc_vs_exact),
    (9, "asymptotic trend", crit_asymptotic_trend),
    (10, "figure grid reproduction", crit_figure_grid),
    (11, "determinism", crit_determinism),
)


def run_validation(quick: bool = False, echo=print) -> ValidationReport:
    """Run every acceptance criterion; one pass/fail line per criterion."""
    report = ValidationReport()
    for number, name, fn in CRITERIA:
        start = time.time()
        out = fn(quick)
        passed, details = out[0], out[1]
        skipped = len(out) > 2 and out[2]
        result = CriterionResult(number=number, name=name, passed=passed,
                                 runtime=time.time() - start, details=details,
                                 skipped=skipped)
        report.results.append(result)
        if echo is not None:
            status = "SKIP" if skipped else ("PASS" if passed else "FAIL")
            echo(f"criterion {number:2d} [{status}] {name} "
                 f"({result.runtime:.1f}s): {details}")
    return report
