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

The inverse is one linear operator: invert_KH returns L @ h', with L the
(n+1) x (n+1) matrix of inverse_operator_matrix, built once per (H, T, n)
from the same weights (Toeplitz forms of the RL and Marchaud segment weights,
t-power diagonals and the psi product-integration matrix) and cached.
h' is either passed in (integrand mode) or recovered by central differencing.
For H != 1/2 the inverse carries t^(+-(H-1/2)) prefactors that are singular at
t = 0, so row 0 of L extrapolates linearly from rows 1 and 2.  When h' is
differenced at H < 1/2, the first few nodes of the reduced derivative
t^(1/2-H) h'(t) are repaired by a local quadratic fit before L is applied
(differencing across the t^(H+1/2) leading behaviour of h is the dominant
error source otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import opcache
from .kernel import Hurst, TimeGrid, kernel_profile
from .profiles import _BLOCK, SingularProfile, _product_rows, product_integrate
from .special import gamma_fn

__all__ = [
    "GridFunction",
    "UnsupportedHurstError",
    "rl_integral",
    "weyl_derivative",
    "apply_KH",
    "invert_KH",
    "inverse_operator_matrix",
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


def _marchaud_weights(alpha: float, n: int):
    """Segment weights of the Marchaud tail; A_m = B_m = 0 for m < 2."""
    m = np.arange(0, n + 2, dtype=float)
    A = np.zeros(n + 2)
    B = np.zeros(n + 2)
    with np.errstate(divide="ignore"):
        A[2:] = (m[1:-1] ** (-alpha) - m[2:] ** (-alpha)) / alpha
        B[2:] = m[2:] * A[2:] - (m[2:] ** (1.0 - alpha) - m[1:-1] ** (1.0 - alpha)) / (1.0 - alpha)
    return A, B


def _marchaud_tail(alpha: float, dt: float, g: np.ndarray) -> np.ndarray:
    """J_i = int_0^{t_i} (g_i - ghat(s)) (t_i - s)^(-alpha-1) ds, piecewise-linear ghat.

    The m = 1 segment is handled analytically: its non-integrable power carries
    the factor (g_i - g_{i-1} - slope * dt) = 0 exactly.
    """
    n = len(g) - 1
    A, B = _marchaud_weights(alpha, n)
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
def _psi_profile(hurst: Hurst) -> SingularProfile:
    return opcache.get("psi_profile", hurst.H, lambda: _build_psi_profile(hurst.H))


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


_MIN_DIFFERENCED_N = 7  # the repair fit of a quadratic needs a window of 3 nodes, from node 4


def _repair_reduced(g: np.ndarray, t: np.ndarray, H: float) -> None:
    """Quadratic-fit repair of the reduced derivative u = t^(1/2-H) g at its first
    few nodes, written back into g[1:] (H < 1/2, differenced mode)."""
    n = len(t) - 1
    if n < _MIN_DIFFERENCED_N:
        raise ValueError(f"differenced invert_KH at H < 1/2 needs n >= {_MIN_DIFFERENCED_N} "
                         f"steps for its repair fit, got n={n}")
    j0 = max(4, n // 200)
    window = np.arange(j0, min(j0 + 16, n))
    s = t ** (0.5 - H)
    coef = np.polyfit(t[window], s[window] * g[window], 2)
    g[1:j0] = np.polyval(coef, t[1:j0]) / s[1:j0]


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
        Otherwise h' is recovered by central differencing; at H < 1/2 the
        reduced derivative t^(1/2-H) h' is then repaired at its first few
        nodes by a quadratic fit, which needs n >= 7.

    Returns L @ h', with L = inverse_operator_matrix(h.grid, hurst); at
    H = 1/2 the inverse is the identity and h' is returned as it is.
    """
    _check_hurst_supported(hurst)
    if abs(h.values[0]) > 1e-12 * (1.0 + np.max(np.abs(h.values))):
        raise ValueError(f"invert_KH requires h(0) = 0, got {h.values[0]}")
    grid = h.grid
    if integrand is None:
        g = _derivative_by_differencing(h.values, grid.dt)
        if hurst.H < 0.5:
            _repair_reduced(g, grid.nodes, hurst.H)
    else:
        g = np.array(integrand, dtype=float)
        if g.shape != (grid.n + 1,):
            raise ValueError("integrand must match the grid")
    if hurst.is_brownian:
        return GridFunction(grid, g)
    return GridFunction(grid, inverse_operator_matrix(grid, hurst) @ g)


# -- the inverse transform as a matrix ---------------------------------------------

def _lower_toeplitz(c: np.ndarray) -> np.ndarray:
    """Read-only view T with T[i, k] = c[i - k] for k <= i and 0 above the diagonal."""
    m = len(c)
    return sliding_window_view(np.concatenate([c[::-1], np.zeros(m - 1)]), m)[::-1]


# node-0 value of np.polyfit(t[1:4], u[1:4], 2), as weights on u_1, u_2, ...: the
# quadratic through nodes 1..3 extrapolated to t = 0 or, at n = 2, the minimum-norm
# solution polyfit finds for its column-scaled 2 x 3 Vandermonde system (the same
# weights on every uniform grid)
_NODE0_FIT = {2: np.array([47.0, -16.0]) / 35.0, 3: np.array([3.0, -3.0, 1.0])}


def inverse_operator_matrix(grid: TimeGrid, hurst: Hurst) -> np.ndarray:
    """The read-only (n+1) x (n+1) matrix L of the inverse kernel transform.

    invert_KH(h, hurst, integrand=g) is L @ g.  L is cached per (H, T, n), so
    the bridge estimator and invert_KH share one matrix per grid.
    """
    _check_hurst_supported(hurst)
    return opcache.get("inverse_operator", (hurst.H, grid.T, grid.n),
                       lambda: _build_inverse_operator(grid, hurst))


def _build_inverse_operator(grid: TimeGrid, hurst: Hurst) -> np.ndarray:
    """Build L from the product-integration weights, in row blocks of ``_BLOCK``.

    H < 1/2 uses [c_H Gamma(H+1/2)]^(-1) t^(H-1/2) I^(1/2-H) [s^(1/2-H) g]; H > 1/2
    uses the a(t) + b(t) split of the weighted Weyl derivative of g.  Each step
    is linear in g and becomes a matrix factor: the RL integral (H < 1/2) and
    the Marchaud tail (H > 1/2) are lower-triangular Toeplitz matrices of their
    segment weights, with one column fixed where the convolution skips node 0;
    the t-power prefactors are diagonals; the node-0 value of t^(1/2-H) g is a
    quadratic fit through nodes 1..3, a fixed row combination (3 u_1 - 3 u_2 +
    u_3 for n >= 3), so column 0 is zero; the psi term adds the psi profile's
    product-integration rows, built block by block and never stored whole
    (L is their only consumer); and row 0 is the linear extrapolation
    2 row_1 - row_2.  At H = 1/2, L is the identity.
    """
    n, dt, H = grid.n, grid.dt, hurst.H
    if hurst.is_brownian:
        return np.eye(n + 1)
    t = grid.nodes
    norm = hurst.c_H * gamma_fn(H + 0.5)
    out = np.empty((n + 1, n + 1))
    if H < 0.5:
        alpha = 0.5 - H
        A, B = _rl_weights(alpha, n)
        w1 = (A - B)[: n + 1]
        toeplitz = _lower_toeplitz(w1 + B[1: n + 2])
        s = np.zeros(n + 1)
        s[1:] = t[1:] ** alpha  # u = s g, with u_0 from the fit below
        fit0 = _NODE0_FIT[min(n, 3)] * s[1:4]
        row_scale = dt ** alpha / gamma_fn(alpha) / norm / s[1:]
        for lo in range(1, n + 1, _BLOCK):
            hi = min(lo + _BLOCK, n + 1)
            block = out[lo:hi]
            np.multiply(toeplitz[lo:hi], s, out=block)
            block[:, 1:4] += w1[lo:hi, None] * fit0
            block *= row_scale[lo - 1: hi - 1, None]
    else:
        beta = H - 0.5
        A, B = _marchaud_weights(beta, n)
        toeplitz = _lower_toeplitz(B[: n + 1] - A[: n + 1] - B[1: n + 2])
        diag = np.cumsum(A[: n + 1]) + 1.0 / (1.0 - beta)
        psi = _psi_profile(hurst)
        t_pow = t[1:] ** (-beta)
        j_scale = beta * dt ** (-beta)
        row_scale = 1.0 / (norm * gamma_fn(1.5 - H))
        for lo in range(1, n + 1, _BLOCK):
            hi = min(lo + _BLOCK, n + 1)
            rows = np.arange(hi - lo)
            i = rows + lo
            block = out[lo:hi]
            block[...] = toeplitz[lo:hi]
            block[:, 0] += B[lo + 1: hi + 1]  # the tail's difference sum skips node 0
            block[rows, i] += diag[i]
            block[rows, i - 1] -= 1.0 / (1.0 - beta)
            block *= j_scale
            block[rows, i] += t_pow[i - 1]
            block[:, :hi] += (beta * t_pow[i - 1])[:, None] * _product_rows(psi, lo, hi)
            block *= row_scale
    out[0] = 2.0 * out[1] - out[2]
    return out
