"""Gaussian prefactor, modal-path drift functionals, and the density approximation.

The joint density factorizes as a bivariate Gaussian prefactor phi times a
bridge expectation.  Evaluating the bridge exponent along the modal path
turns that expectation into a closed-form log-correction omega(T) whose
linear-in-endpoint part omega_1(T) is the leading small-time term:

    p_hat = phi(dx, dy) * exp(omega_1).

omega(T) itself is computed as  1' D Sigma(T)^-1 Delta - (1/2) 1' D Sigma(T)^-1 D' 1
where D collects the time-integrals of the transformed drifts.  The 1/2 on
the quadratic term comes from the lognormal mean e^(var/2) of the residual
Gaussian; the TimeOnly exactness tests pin it (without it, constant drifts
would not reproduce the exact Gaussian density).

Only three time integrals of the drifts enter omega: those of bar_h2, hat_h2
and hat_h1.  With w the trapezoid weights and L the matrix of the inverse
kernel transform, hat_h2 = L bar_h2 gives int hat_h2 = q . bar_h2 with
q = L' w, so approx_density takes all three as dot products with (w, q).
The pair is built once per (H, T, n), and L is dropped once q is formed.
drift_functionals keeps the full route through invert_KH and returns the
transformed drifts themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import ModalPath, modal_path, terminal_cov
from .driftspec import DriftClass, DriftDomainError, ModelSpec, eval_drift
from .fraccalc import GridFunction, UnsupportedHurstError as _FraccalcUnsupported
from .fraccalc import inverse_operator_matrix, invert_KH
from .kernel import Hurst, TimeGrid
from .opcache import OperatorCache

__all__ = [
    "DriftFunctionals",
    "DensityApprox",
    "gaussian_prefactor",
    "drift_functionals",
    "omega_full",
    "omega_1",
    "alpha_exponent",
    "approx_density",
    "exact_timeonly_density",
    "UnsupportedHurstError",
]

ALPHA_EXACT = math.inf  # sentinel: the TimeOnly representation is exact


class UnsupportedHurstError(_FraccalcUnsupported):
    """General drifts with H >= 3/4 are outside the proven expansion range."""


def gaussian_prefactor(dx: float, dy: float, model: ModelSpec) -> float:
    """Driftless bivariate Gaussian density of (X_T - x0, Y_T - y0) at (dx, dy)."""
    T, H = model.T, model.H
    rho_h = model.rho_H
    bar_sq = model.rho_bar_H_sq
    if bar_sq < 1e-10:
        raise ValueError("degenerate rho_bar_H in the Gaussian prefactor")
    u = dx / math.sqrt(T)
    v = dy / T ** H
    quad = (u * u - 2.0 * rho_h * u * v + v * v) / (2.0 * bar_sq)
    return math.exp(-quad) / (2.0 * math.pi * T ** (H + 0.5) * math.sqrt(bar_sq))


@dataclass(frozen=True)
class DriftFunctionals:
    """Drifts along the modal path and their transformed time integrals."""

    bar_h1: GridFunction
    bar_h2: GridFunction
    hat_h1: GridFunction
    hat_h2: GridFunction
    int_hat_h1: float
    int_hat_h2: float
    int_bar_h2: float
    int_hat_h1_sq: float
    int_hat_h2_sq: float


def _trapz(values: np.ndarray, dt: float) -> float:
    return float(np.trapezoid(values, dx=dt))


def _drifts_along(model: ModelSpec, path: ModalPath):
    """bar_h1 and bar_h2: the drifts on the modal path, required to be finite."""
    t = path.grid.nodes
    bars = []
    for name, expr in (("h1", model.h1), ("h2", model.h2)):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(eval_drift(expr, t, path.x_path, path.y_path), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmin(np.isfinite(vals)))
            raise DriftDomainError(
                f"drift {name} = {expr.to_source()} is not finite along the modal path "
                f"(t={t[bad]:g}, x={path.x_path[bad]:g}, y={path.y_path[bad]:g})")
        bars.append(vals)
    return bars


def drift_functionals(model: ModelSpec, path: ModalPath) -> DriftFunctionals:
    """Evaluate the drifts along the modal path and solve for hat_h1, hat_h2.

    hat_h2 is the inverse kernel transform of the running integral of
    bar_h2 (the integrand is passed directly, no differencing), and
    hat_h1 = (bar_h1 - rho hat_h2) / rho_bar.
    """
    grid = path.grid
    bar1, bar2 = _drifts_along(model, path)
    bar_h1 = GridFunction(grid, bar1)
    bar_h2 = GridFunction(grid, bar2)
    if model.hurst.is_brownian:
        hat2_vals = bar2.copy()
    else:
        running = np.concatenate([[0.0], np.cumsum((bar2[1:] + bar2[:-1]) * 0.5) * grid.dt])
        hat2_vals = invert_KH(GridFunction(grid, running), model.hurst,
                              integrand=bar2).values
    hat1_vals = (bar1 - model.rho * hat2_vals) / model.rho_bar
    dt = grid.dt
    return DriftFunctionals(
        bar_h1=bar_h1,
        bar_h2=bar_h2,
        hat_h1=GridFunction(grid, hat1_vals),
        hat_h2=GridFunction(grid, hat2_vals),
        int_hat_h1=_trapz(hat1_vals, dt),
        int_hat_h2=_trapz(hat2_vals, dt),
        int_bar_h2=_trapz(bar2, dt),
        int_hat_h1_sq=_trapz(hat1_vals ** 2, dt),
        int_hat_h2_sq=_trapz(hat2_vals ** 2, dt),
    )


# Read-only (w, q) per (H, T, n): the trapezoid weights w and q = L' w, with L the
# matrix of the integrand-mode inverse transform, so that int hat_h2 = q . bar_h2.
_functional_cache = OperatorCache(16)


def _trapezoid_functionals(grid: TimeGrid, hurst: Hurst):
    def build():
        w = np.full(grid.n + 1, grid.dt)
        w[[0, -1]] *= 0.5
        q = inverse_operator_matrix(grid, hurst).T @ w  # L itself is not kept
        w.flags.writeable = q.flags.writeable = False
        return w, q
    return _functional_cache.get((hurst.H, grid.T, grid.n), build)


def _linear_and_quadratic(int_hat_h1: float, int_hat_h2: float, int_bar_h2: float,
                          model: ModelSpec, endpoint):
    """The two pieces of omega: 1' D Sigma^-1 Delta and (1/2) 1' D Sigma^-1 D' 1,
    from the time integrals of hat_h1, hat_h2 and bar_h2."""
    T, H = model.T, model.H
    rho, rho_bar, rho_h = model.rho, model.rho_bar, model.rho_H
    bar_sq = model.rho_bar_H_sq
    dx = endpoint[0] - model.x0
    dy = endpoint[1] - model.y0
    sqrt_t = math.sqrt(T)
    # A = rho_bar <hat h1>/sqrt(T) + rho <hat h2>/sqrt(T) - rho_H <bar h2>/T^H
    a = (rho_bar * int_hat_h1 + rho * int_hat_h2) / sqrt_t - rho_h * int_bar_h2 / T ** H
    u2 = int_bar_h2 / T ** H
    linear = (a * (dx / sqrt_t) - rho_h * a * (dy / T ** H)) / bar_sq \
        + u2 * (dy / T ** H)
    quadratic = 0.5 * (a * a / bar_sq + u2 * u2)
    return linear, quadratic


def omega_full(f: DriftFunctionals, model: ModelSpec, endpoint) -> float:
    """Full log-correction, linear part minus the halved quadratic form."""
    linear, quadratic = _linear_and_quadratic(f.int_hat_h1, f.int_hat_h2, f.int_bar_h2,
                                              model, endpoint)
    return linear - quadratic


def omega_1(f: DriftFunctionals, model: ModelSpec, endpoint) -> float:
    """Leading (linear-in-endpoint) part of the log-correction."""
    linear, _ = _linear_and_quadratic(f.int_hat_h1, f.int_hat_h2, f.int_bar_h2,
                                      model, endpoint)
    return linear


def alpha_exponent(model: ModelSpec) -> float:
    """Order of the small-time remainder, by drift class.

    General: 2H for H <= 1/2, 3 - 4H for H in (1/2, 3/4), unsupported beyond.
    Linear:  2H for H <= 1/2, 2 - 2H for H in (1/2, 1).
    TimeOnly: the representation is exact; returns the +inf sentinel.
    """
    H = model.H
    cls = model.drift_class
    if cls is DriftClass.TIME_ONLY:
        return ALPHA_EXACT
    if H <= 0.5:
        return 2.0 * H
    if cls is DriftClass.LINEAR:
        return 2.0 - 2.0 * H
    if H < 0.75:
        return 3.0 - 4.0 * H
    raise UnsupportedHurstError(
        f"general drifts require H < 3/4 for the small-time expansion, got H={H}"
    )


@dataclass(frozen=True)
class DensityApprox:
    """Approximate joint density at one endpoint."""

    phi: float
    omega_full: float
    omega_1: float
    alpha: float
    p_hat: float        # phi * exp(omega_1), the headline approximation
    p_hat_full: float   # phi * exp(omega_full); exact for TimeOnly drifts

    def __post_init__(self) -> None:
        if not (self.phi > 0.0 and self.p_hat > 0.0):
            raise ValueError("density values must be positive")


def approx_density(model: ModelSpec, endpoint, n: int = 512) -> DensityApprox:
    """Modal-path small-time approximation of the joint density at endpoint.

    Also reports the exp(omega_full) variant, which is exact when the drifts
    depend on time only.  Only three integrals of the drifts enter omega, and
    hat_h2 is linear in bar_h2, so they are taken as dot products with the
    cached (w, q) instead of through drift_functionals.
    """
    alpha = alpha_exponent(model)  # raises for General with H >= 3/4
    grid = TimeGrid(model.T, n)
    path = modal_path(model, grid, endpoint)
    bar1, bar2 = _drifts_along(model, path)
    w, q = _trapezoid_functionals(grid, model.hurst)
    int_bar_h2 = float(w @ bar2)
    int_hat_h2 = float(q @ bar2)
    int_hat_h1 = (float(w @ bar1) - model.rho * int_hat_h2) / model.rho_bar
    dx = endpoint[0] - model.x0
    dy = endpoint[1] - model.y0
    phi = gaussian_prefactor(dx, dy, model)
    linear, quadratic = _linear_and_quadratic(int_hat_h1, int_hat_h2, int_bar_h2,
                                              model, endpoint)
    w1 = linear
    wf = linear - quadratic
    return DensityApprox(
        phi=phi,
        omega_full=wf,
        omega_1=w1,
        alpha=alpha,
        p_hat=phi * math.exp(w1),
        p_hat_full=phi * math.exp(wf),
    )


def exact_timeonly_density(model: ModelSpec, endpoint, quad_points: int = 4001) -> float:
    """Closed-form Gaussian density of (X_T, Y_T) for time-only drifts.

    The drifts shift the mean by their plain time integrals and leave the
    covariance Sigma(T) untouched; the integrals are computed by dense
    trapezoid quadrature of the given time functions (independent of the
    modal-path pipeline).
    """
    if model.drift_class is not DriftClass.TIME_ONLY:
        raise ValueError("exact density is only available for TimeOnly drifts")
    t = np.linspace(0.0, model.T, quad_points)
    zeros = np.zeros_like(t)
    m1 = float(np.trapezoid(np.asarray(eval_drift(model.h1, t, zeros, zeros)), t))
    m2 = float(np.trapezoid(np.asarray(eval_drift(model.h2, t, zeros, zeros)), t))
    mean = np.array([model.x0 + m1, model.y0 + m2])
    cov = terminal_cov(model)
    diff = np.asarray(endpoint, dtype=float) - mean
    det = np.linalg.det(cov)
    quad = diff @ np.linalg.solve(cov, diff)
    return float(np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det)))
