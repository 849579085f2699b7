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

Only two time integrals of the drifts enter omega, those of bar_h1 and
bar_h2: hat_h1 = (bar_h1 - rho hat_h2) / rho_bar gives
rho_bar int hat_h1 + rho int hat_h2 = int bar_h1, so the inverse kernel
transform cancels out of omega, and approx_density needs no operator beyond
the modal path.  drift_functionals returns the transformed drifts
themselves: hat_h2 = L @ bar_h2 through invert_KH's integrand mode, with L
the cached inverse-transform matrix of fraccalc.inverse_operator_matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import ModalPath, modal_path, terminal_cov
from .driftspec import DriftClass, DriftDomainError, ModelSpec, eval_drift
from .fraccalc import GridFunction, UnsupportedHurstError, _check_hurst_supported, invert_KH
from .kernel import TimeGrid

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


def gaussian_prefactor(dx: float, dy: float, model: ModelSpec) -> float:
    """Driftless bivariate Gaussian density of (X_T - x0, Y_T - y0) at (dx, dy)."""
    T, H = model.T, model.H
    rho_h = model.rho_H
    bar_sq = model.rho_bar_H_sq
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


def _trapz(values: np.ndarray, dt: float) -> float:
    return dt * (float(values.sum()) - 0.5 * float(values[0] + values[-1]))


def _drifts_along(model: ModelSpec, path: ModalPath):
    """bar_h1 and bar_h2: the drifts on the modal path, required to be finite.

    A sum is finite only when every value is, so the values are scanned one by
    one only when a sum is not (a sum of finite values may also overflow).
    """
    t, x, y = path.grid.nodes, path.x_path, path.y_path
    bars = []
    with np.errstate(over="ignore", invalid="ignore"):
        for name, expr in (("h1", model.h1), ("h2", model.h2)):
            vals = eval_drift(expr, t, x, y)  # an array: x and y are arrays of the nodes' shape
            if not math.isfinite(vals.sum()) and not np.isfinite(vals).all():
                bad = int(np.argmin(np.isfinite(vals)))
                raise DriftDomainError(
                    f"drift {name} = {expr.to_source()} is not finite along the modal path "
                    f"(t={t[bad]:g}, x={x[bad]:g}, y={y[bad]:g})")
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
    running = np.concatenate([[0.0], np.cumsum((bar2[1:] + bar2[:-1]) * 0.5) * grid.dt])
    hat2_vals = invert_KH(GridFunction(grid, running), model.hurst, integrand=bar2).values
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
    )


def _linear_and_quadratic(int_bar_h1: float, int_bar_h2: float, model: ModelSpec, endpoint):
    """The two pieces of omega: 1' D Sigma^-1 Delta and (1/2) 1' D Sigma^-1 D' 1,
    from the time integrals of bar_h1 and bar_h2."""
    T, H = model.T, model.H
    rho_h = model.rho_H
    bar_sq = model.rho_bar_H_sq
    dx = endpoint[0] - model.x0
    dy = endpoint[1] - model.y0
    sqrt_t = math.sqrt(T)
    # A = <bar h1>/sqrt(T) - rho_H <bar h2>/T^H, where <bar h1> = rho_bar <hat h1> + rho <hat h2>
    a = int_bar_h1 / sqrt_t - rho_h * int_bar_h2 / T ** H
    u2 = int_bar_h2 / T ** H
    linear = (a * (dx / sqrt_t) - rho_h * a * (dy / T ** H)) / bar_sq \
        + u2 * (dy / T ** H)
    quadratic = 0.5 * (a * a / bar_sq + u2 * u2)
    return linear, quadratic


def _int_bar_h1(f: DriftFunctionals, model: ModelSpec) -> float:
    return model.rho_bar * f.int_hat_h1 + model.rho * f.int_hat_h2


def omega_full(f: DriftFunctionals, model: ModelSpec, endpoint) -> float:
    """Full log-correction, linear part minus the halved quadratic form."""
    linear, quadratic = _linear_and_quadratic(_int_bar_h1(f, model), f.int_bar_h2,
                                              model, endpoint)
    return linear - quadratic


def omega_1(f: DriftFunctionals, model: ModelSpec, endpoint) -> float:
    """Leading (linear-in-endpoint) part of the log-correction."""
    linear, _ = _linear_and_quadratic(_int_bar_h1(f, model), f.int_bar_h2, model, endpoint)
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
    depend on time only.  Omega needs only the time integrals of bar_h1 and
    bar_h2, so no inverse transform is applied (see drift_functionals for the
    transformed drifts).
    """
    alpha = alpha_exponent(model)  # raises for General with H >= 3/4
    # omega needs no transformed drift, but it is only defined where they are
    _check_hurst_supported(model.hurst)
    grid = TimeGrid(model.T, n)
    path = modal_path(model, grid, endpoint)
    bar1, bar2 = _drifts_along(model, path)
    dx = endpoint[0] - model.x0
    dy = endpoint[1] - model.y0
    phi = gaussian_prefactor(dx, dy, model)
    linear, quadratic = _linear_and_quadratic(_trapz(bar1, grid.dt), _trapz(bar2, grid.dt),
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


def exact_timeonly_density(model: ModelSpec, endpoint) -> float:
    """Closed-form Gaussian density of (X_T, Y_T) for time-only drifts.

    The drifts shift the mean by their plain time integrals and leave the
    covariance Sigma(T) untouched; the integrals are computed by dense
    trapezoid quadrature of the given time functions on 4001 nodes
    (independent of the modal-path pipeline).
    """
    if model.drift_class is not DriftClass.TIME_ONLY:
        raise ValueError("exact density is only available for TimeOnly drifts")
    t = np.linspace(0.0, model.T, 4001)
    zeros = np.zeros_like(t)
    m1 = float(np.trapezoid(np.asarray(eval_drift(model.h1, t, zeros, zeros)), t))
    m2 = float(np.trapezoid(np.asarray(eval_drift(model.h2, t, zeros, zeros)), t))
    mean = np.array([model.x0 + m1, model.y0 + m2])
    cov = terminal_cov(model)
    diff = np.asarray(endpoint, dtype=float) - mean
    det = np.linalg.det(cov)
    quad = diff @ np.linalg.solve(cov, diff)
    return float(np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det)))
