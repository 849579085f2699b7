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
transform cancels out of omega, and the density needs no operator beyond
the modal path.  drift_functionals returns the transformed drifts
themselves: hat_h2 = L @ bar_h2 through invert_KH's integrand mode, with L
the cached inverse-transform matrix of fraccalc.inverse_operator_matrix.

approx_densities evaluates a list of endpoints at once; approx_density is
its one-endpoint case.  The modal path is affine in the endpoint, so the k
paths are one (k, 2) @ (2, 2(n+1)) product with the stacked coefficients
[[m11, m21], [m12, m22]]; each compiled drift plan runs once over the
(k, n+1) paths, and the two integrals are products with the trapezoid
weights.  Coefficients, nodes, weights and the Gaussian scales are one
store entry (bridge's modal_coeffs entry), read in one lookup per call; see
approx_densities for where the checks run.  The scalar tail works in
log space, log p = log phi + omega, and exponentiates last, so a density
that underflows is 0.0 with a finite log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import ModalPath, _modal_entry, _Scales, terminal_cov
from .driftspec import DriftClass, DriftDomainError, ModelSpec, eval_drift
from .fraccalc import GridFunction, UnsupportedHurstError, _check_hurst_supported, invert_KH
from .kernel import NumericalConditioningError

__all__ = [
    "DriftFunctionals",
    "DensityApprox",
    "gaussian_prefactor",
    "drift_functionals",
    "omega_full",
    "omega_1",
    "alpha_exponent",
    "approx_density",
    "approx_densities",
    "exact_timeonly_density",
    "UnsupportedHurstError",
]

ALPHA_EXACT = math.inf  # sentinel: the TimeOnly representation is exact


def gaussian_prefactor(dx: float, dy: float, model: ModelSpec) -> float:
    """Driftless bivariate Gaussian density of (X_T - x0, Y_T - y0) at (dx, dy)."""
    scales = _Scales(model)
    return math.exp(-scales.quad(dx, dy)) / scales.norm


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


def drift_functionals(model: ModelSpec, path: ModalPath) -> DriftFunctionals:
    """Evaluate the drifts along the modal path and solve for hat_h1, hat_h2.

    hat_h2 is the inverse kernel transform of the running integral of
    bar_h2 (the integrand is passed directly, no differencing), and
    hat_h1 = (bar_h1 - rho hat_h2) / rho_bar.  A drift that is not finite
    somewhere on the path is the DriftDomainError that approx_densities
    raises for the same path.
    """
    grid = path.grid
    entry = _modal_entry(model, grid.T, grid.n)  # the path's own entry
    t, weights = entry.nodes, entry.weights
    x, y = path.x_path[None], path.y_path[None]  # the modal path as a one-row batch
    with np.errstate(over="ignore", invalid="ignore"):
        (bar1,), _ = _drift_integrals("h1", model.h1, t, x, y, weights)
        (bar2,), _ = _drift_integrals("h2", model.h2, t, x, y, weights)
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


def _omega_parts(f: DriftFunctionals, model: ModelSpec, endpoint):
    int_bar_h1 = model.rho_bar * f.int_hat_h1 + model.rho * f.int_hat_h2
    return _Scales(model).omega_parts(int_bar_h1, f.int_bar_h2, *model.displacement(endpoint))


def omega_full(f: DriftFunctionals, model: ModelSpec, endpoint) -> float:
    """Full log-correction, linear part minus the halved quadratic form."""
    linear, quadratic = _omega_parts(f, model, endpoint)
    return linear - quadratic


def omega_1(f: DriftFunctionals, model: ModelSpec, endpoint) -> float:
    """Leading (linear-in-endpoint) part of the log-correction."""
    return _omega_parts(f, model, endpoint)[0]


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
    """Approximate joint density at one endpoint.

    The densities are exponentiated from their logs, so far from the mode
    they may underflow to 0.0 (or overflow to inf) while the logs stay finite.
    """

    phi: float
    omega_full: float
    omega_1: float
    alpha: float
    p_hat: float           # phi * exp(omega_1), the headline approximation
    p_hat_full: float      # phi * exp(omega_full); exact for TimeOnly drifts
    log_p_hat: float       # log phi + omega_1
    log_p_hat_full: float  # log phi + omega_full

    def __post_init__(self) -> None:
        if math.isnan(self.log_p_hat) or math.isnan(self.log_p_hat_full):
            raise NumericalConditioningError(
                f"log density is NaN (log_p_hat={self.log_p_hat}, "
                f"log_p_hat_full={self.log_p_hat_full})")


# Endpoints per product: bounds the (k, 2(n+1)) paths (2 MB at n = 512) and
# the drift values however long the endpoint list.
_ENDPOINT_BLOCK = 256


def approx_density(model: ModelSpec, endpoint, n: int = 512) -> DensityApprox:
    """Modal-path small-time approximation of the joint density at endpoint.

    The one-endpoint case of approx_densities.
    """
    return approx_densities(model, (endpoint,), n)[0]


def approx_densities(model: ModelSpec, endpoints, n: int = 512) -> list:
    """approx_density at each of a list of endpoints, in one batched pass.

    Also reports the exp(omega_full) variant, which is exact when the drifts
    depend on time only.  Omega needs only the time integrals of bar_h1 and
    bar_h2, so no inverse transform is applied (see drift_functionals for the
    transformed drifts).  A drift that is not finite somewhere on an
    endpoint's modal path is a DriftDomainError naming the first such node.

    The drift-class and H checks and ModelSpec.displacement of each endpoint
    run on every call, warm or cold, before the one store lookup; an invalid
    n fails in the entry's build, and a build that raises stores nothing.
    """
    alpha = alpha_exponent(model)  # raises for General with H >= 3/4
    # omega needs no transformed drift, but it is only defined where they are
    _check_hurst_supported(model.hurst)
    disp = [model.displacement(e) for e in endpoints]
    entry = _modal_entry(model, model.T, n)  # the one lookup; checks n on a miss
    coeffs, t, weights, scales = entry.matrix, entry.nodes, entry.weights, entry.scales
    norm, log_norm = scales.norm, scales.log_norm
    x0, y0 = model.x0, model.y0
    results = []
    for start in range(0, len(disp), _ENDPOINT_BLOCK):
        block = disp[start:start + _ENDPOINT_BLOCK]
        paths = np.array(block) @ coeffs
        x, y = paths[:, :n + 1], paths[:, n + 1:]
        if x0 or y0:  # the product gives the paths less (x0, y0)
            x += x0
            y += y0
        with np.errstate(over="ignore", invalid="ignore"):
            _, ints1 = _drift_integrals("h1", model.h1, t, x, y, weights)
            _, ints2 = _drift_integrals("h2", model.h2, t, x, y, weights)
        for (dx, dy), int1, int2 in zip(block, ints1, ints2):
            quad = scales.quad(dx, dy)
            linear, quadratic = scales.omega_parts(int1, int2, dx, dy)
            wf = linear - quadratic
            log_phi = -quad - log_norm
            log_p, log_p_full = log_phi + linear, log_phi + wf
            results.append(DensityApprox(
                phi=math.exp(-quad) / norm,
                omega_full=wf,
                omega_1=linear,
                alpha=alpha,
                p_hat=_exp(log_p),
                p_hat_full=_exp(log_p_full),
                log_p_hat=log_p,
                log_p_hat_full=log_p_full,
            ))
    return results


def _drift_integrals(name: str, expr, t, x, y, weights):
    """The drift along each row of the (k, n+1) paths, and its trapezoid integrals.

    Every weight is positive, so an integral is finite whenever its row is;
    only a row whose integral is not finite is scanned, for the first node
    where the drift is not finite (a row of finite values may also overflow).
    """
    vals = eval_drift(expr, t, x, y)  # (k, n+1): x and y are the paths
    ints = (vals @ weights).tolist()
    for row, value in enumerate(ints):
        if not math.isfinite(value) and not np.isfinite(vals[row]).all():
            bad = int(np.argmin(np.isfinite(vals[row])))
            raise DriftDomainError(
                f"drift {name} = {expr.to_source()} is not finite along the modal path "
                f"(t={t[bad]:g}, x={x[row, bad]:g}, y={y[row, bad]:g})")
    return vals, ints


def _exp(v: float) -> float:
    """e^v as a float: inf where math.exp overflows."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


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
