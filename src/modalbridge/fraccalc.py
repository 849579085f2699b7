"""Discretized Riemann-Liouville fractional calculus and the kernel transform.

All operators act on uniformly gridded functions and use product-integration
weights that are exact for piecewise-linear integrands.  The kernel transform
and its inverse satisfy, with k the Volterra kernel of Hurst exponent H,

    (apply_KH f)(t)  = int_0^t K_H(t, s) f(s) ds
    invert_KH(apply_KH f) = f

Normalization note: the textbook factorizations of this transform through
fractional integrals require an extra Gamma(H + 1/2) relative to the kernel's
c_H convention; without it the inverse of the transform of a constant comes
out as Gamma(H + 1/2) instead of the constant.  The factor is included here
and pinned by the operator round-trip tests.

Endpoint convention: for H != 1/2 the inverse carries t^(+-(H-1/2)) prefactors
that are singular at t = 0, so the first grid node of every inverse is filled
by linear extrapolation from the next two nodes, and when the derivative of
the input must be recovered by differencing, the first few nodes of the
reduced derivative t^(1/2-H) h'(t) are repaired by a local quadratic fit
(differencing across the t^(H+1/2) leading behaviour of h is the dominant
error source otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import Hurst, TimeGrid, kernel_profile
from .opcache import OperatorCache
from .profiles import SingularProfile, product_integrate
from .special import gamma_fn

__all__ = [
    "GridFunction",
    "UnsupportedHurstError",
    "rl_integral",
    "weyl_derivative",
    "apply_KH",
    "invert_KH",
    "MAX_SUPPORTED_H",
]

MAX_SUPPORTED_H = 0.95  # inverse transform degrades as H -> 1; hard cap


class UnsupportedHurstError(ValueError):
    """The requested Hurst exponent is outside the supported range."""


@dataclass(frozen=True)
class GridFunction:
    """Function values on a uniform time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n + 1,):
            raise ValueError(
                f"values must have length n+1 = {self.grid.n + 1}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("GridFunction values must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def _check_hurst_supported(hurst: Hurst) -> None:
    if hurst.H > MAX_SUPPORTED_H:
        raise UnsupportedHurstError(
            f"kernel transform supports H <= {MAX_SUPPORTED_H}, got H={hurst.H}"
        )


# -- Riemann-Liouville integral ------------------------------------------------

def _rl_weights(alpha: float, n: int):
    """Segment weights A_m = int_(m-1)^m tau^(a-1) dtau and the linear moment B_m."""
    m = np.arange(0, n + 2, dtype=float)
    A = np.zeros(n + 2)
    B = np.zeros(n + 2)
    A[1:] = (m[1:] ** alpha - m[:-1] ** alpha) / alpha
    B[1:] = m[1:] * A[1:] - (m[1:] ** (alpha + 1.0) - m[:-1] ** (alpha + 1.0)) / (alpha + 1.0)
    return A, B


def _rl_apply(alpha: float, dt: float, g: np.ndarray) -> np.ndarray:
    """Convolution form of the piecewise-linear RL integral on one array."""
    n = len(g) - 1
    A, B = _rl_weights(alpha, n)
    w1 = (A - B)[: n + 1]
    c1 = np.convolve(g, w1)[: n + 1]
    s2 = np.convolve(g, B[: n + 2])[1: n + 2] - B[1: n + 2] * g[0]
    return dt ** alpha / gamma_fn(alpha) * (c1 + s2)


def rl_integral(f: GridFunction, alpha: float) -> GridFunction:
    """Left-sided Riemann-Liouville integral I^alpha f on the grid.

    (1/Gamma(alpha)) int_0^t (t-s)^(alpha-1) f(s) ds with weights exact for
    piecewise-linear f; alpha in (0, 1].
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    out = _rl_apply(alpha, f.grid.dt, f.values)
    return GridFunction(f.grid, out)


# -- Weyl (Marchaud) derivative -------------------------------------------------

def weyl_derivative(f: GridFunction, alpha: float) -> GridFunction:
    """Weyl derivative D^alpha f = (1/Gamma(1-a)) [f(t)/t^a + a J(t)], alpha in (0,1).

    J(t) = int_0^t (f(t) - f(s)) (t-s)^(-a-1) ds, discretized with weights
    exact for piecewise-linear f.  The t = 0 node is extrapolated.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    g = f.values
    n = f.grid.n
    dt = f.grid.dt
    t = f.grid.nodes
    J = _marchaud_tail(alpha, dt, g)
    out = np.empty(n + 1)
    out[1:] = (g[1:] / t[1:] ** alpha + alpha * J[1:]) / gamma_fn(1.0 - alpha)
    out[0] = 2.0 * out[1] - out[2]
    return GridFunction(f.grid, out)


def _marchaud_tail(alpha: float, dt: float, g: np.ndarray) -> np.ndarray:
    """J_i = int_0^{t_i} (g_i - ghat(s)) (t_i - s)^(-alpha-1) ds, piecewise-linear ghat.

    The m = 1 segment is handled analytically: its non-integrable power carries
    the factor (g_i - g_{i-1} - slope * dt) = 0 exactly.
    """
    n = len(g) - 1
    m = np.arange(0, n + 2, dtype=float)
    A = np.zeros(n + 2)
    B = np.zeros(n + 2)
    with np.errstate(divide="ignore"):
        A[2:] = (m[1:-1] ** (-alpha) - m[2:] ** (-alpha)) / alpha
        B[2:] = m[2:] * A[2:] - (m[2:] ** (1.0 - alpha) - m[1:-1] ** (1.0 - alpha)) / (1.0 - alpha)
    slope = np.diff(g) / dt
    cumA = np.cumsum(A[: n + 1])
    convA = np.convolve(g, A[: n + 1])[: n + 1]
    dg = np.diff(g, prepend=g[0])
    sB = np.zeros(n + 1)
    sB[1:] = np.convolve(dg[1:], B[: n + 2])[1: n + 1]
    J = np.zeros(n + 1)
    J[1:] = dt ** (-alpha) * (g[1:] * cumA[1:] - convA[1:] - sB[1:])
    J[1:] += slope * dt ** (1.0 - alpha) / (1.0 - alpha)
    return J


# -- kernel transform ------------------------------------------------------------

def apply_KH(f: GridFunction, hurst: Hurst) -> GridFunction:
    """(K_H f)(t) = int_0^t K_H(t, s) f(s) ds on the grid.

    Product integration exact for piecewise-linear f, with the kernel's
    endpoint singularities absorbed into precomputed profile moments.  At
    H = 1/2 this is the plain running (trapezoid) integral.
    """
    _check_hurst_supported(hurst)
    t = f.grid.nodes
    if hurst.is_brownian:
        vals = np.concatenate(
            [[0.0], np.cumsum((f.values[1:] + f.values[:-1]) * 0.5) * f.grid.dt]
        )
        return GridFunction(f.grid, vals)
    prof = kernel_profile(hurst)
    inner = product_integrate(prof, t, f.values, key=("kernel", hurst.H))
    out = t ** (hurst.H + 0.5) * inner
    return GridFunction(f.grid, out)


# inverse-transform b-term weight: psi(v) = (1 - v^(1/2-H)) (1-v)^(-H-1/2), H > 1/2
_psi_cache = OperatorCache(8)


def _psi_profile(hurst: Hurst) -> SingularProfile:
    return _psi_cache.get(hurst.H, lambda: _build_psi_profile(hurst.H))


def _build_psi_profile(H: float) -> SingularProfile:
    c = 0.5 - H  # negative

    def resid0(v):
        v = np.asarray(v, dtype=float)
        return (np.power(np.maximum(v, 1e-300), -c) - 1.0) * np.power(1.0 - v, -H - 0.5)

    def resid1(v):
        # (1 - v^c) / (1 - v); series expansion near v = 1 avoids 0/0
        v = np.asarray(v, dtype=float)
        e = 1.0 - v
        close = e < 1e-7
        vv = np.where(close, 0.5, v)
        out = (1.0 - np.power(vv, c)) / (1.0 - vv)
        series = c + c * (1.0 - c) / 2.0 * e
        return np.where(close, series, out)

    def w(v):
        v = np.asarray(v, dtype=float)
        return (1.0 - np.power(v, c)) * np.power(1.0 - v, -H - 0.5)

    return SingularProfile(resid0, resid1, w, b0=c, a1=c)


def _derivative_by_differencing(h: np.ndarray, dt: float) -> np.ndarray:
    g = np.empty_like(h)
    g[1:-1] = (h[2:] - h[:-2]) / (2.0 * dt)
    g[0] = (-3.0 * h[0] + 4.0 * h[1] - h[2]) / (2.0 * dt)
    g[-1] = (3.0 * h[-1] - 4.0 * h[-2] + h[-3]) / (2.0 * dt)
    return g


def _repair_reduced(u: np.ndarray, t: np.ndarray, n: int) -> None:
    """Quadratic-fit repair of the first few nodes of the reduced derivative."""
    j0 = max(4, n // 200)
    window = np.arange(j0, min(j0 + 16, n))
    coef = np.polyfit(t[window], u[window], 2)
    u[:j0] = np.polyval(coef, t[:j0])


def invert_KH(h: GridFunction, hurst: Hurst, integrand=None) -> GridFunction:
    """Inverse kernel transform applied to h with h(0) = 0.

    Parameters
    ----------
    h : GridFunction
        The transform image (a running integral); h(0) must be 0.
    hurst : Hurst
        Hurst exponent; H <= 0.95.
    integrand : array_like, optional
        h' on the grid, when the caller holds it directly (the drift case).
        Otherwise h' is recovered by central differencing, with endpoint
        repair of the reduced derivative.

    Notes
    -----
    H < 1/2 uses [c_H Gamma(H+1/2)]^(-1) t^(H-1/2) I^(1/2-H) [s^(1/2-H) h'];
    H > 1/2 uses the a(t) + b(t) split of the weighted Weyl derivative of h'.
    """
    _check_hurst_supported(hurst)
    if abs(h.values[0]) > 1e-12 * (1.0 + np.max(np.abs(h.values))):
        raise ValueError(f"invert_KH requires h(0) = 0, got {h.values[0]}")
    grid = h.grid
    t = grid.nodes
    dt = grid.dt
    n = grid.n
    differenced = integrand is None
    if differenced:
        g = _derivative_by_differencing(h.values, dt)
    else:
        g = np.asarray(integrand, dtype=float).copy()
        if g.shape != (n + 1,):
            raise ValueError("integrand must match the grid")
    H = hurst.H
    if hurst.is_brownian:
        return GridFunction(grid, g)
    norm = hurst.c_H * gamma_fn(H + 0.5)

    if H < 0.5:
        u = np.empty(n + 1)
        u[1:] = t[1:] ** (0.5 - H) * g[1:]
        if differenced:
            _repair_reduced(u, t, n)
        else:
            # t^(1/2-H) g may have a finite nonzero limit even when g blows up
            coef = np.polyfit(t[1:4], u[1:4], 2)
            u[0] = np.polyval(coef, 0.0)
        inner = _rl_apply(0.5 - H, dt, u)
        out = np.empty(n + 1)
        out[1:] = t[1:] ** (H - 0.5) * inner[1:] / norm
        out[0] = 2.0 * out[1] - out[2]
        return GridFunction(grid, out)

    # H > 1/2
    beta = H - 0.5
    J = _marchaud_tail(beta, dt, g)
    a_part = np.empty(n + 1)
    a_part[1:] = t[1:] ** (-beta) * g[1:] + beta * J[1:]
    psi = _psi_profile(hurst)
    b_inner = product_integrate(psi, t, g, key=("psi", H))
    b_part = np.zeros(n + 1)
    b_part[1:] = beta * t[1:] ** (-beta) * b_inner[1:]
    out = np.empty(n + 1)
    out[1:] = (a_part[1:] + b_part[1:]) / (norm * gamma_fn(1.5 - H))
    out[0] = 2.0 * out[1] - out[2]
    return GridFunction(grid, out)
