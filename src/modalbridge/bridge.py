"""Gaussian conditioning and the modal path of the pinned driftless pair.

Under the drift-removed measure, (X, Y) is a Brownian motion coupled with a
fractional Brownian motion through the Volterra kernel.  Conditioning the
pair on its terminal point gives a Gaussian bridge whose mean path (the modal
path) is affine in the endpoint displacement:

    x_t = x0 + m11 (x - x0) + m12 (y - y0)
    y_t = y0 + m21 (x - x0) + m22 (y - y0)

with coefficients built from t/T powers, the fBm autocovariance, and the
partial kernel integral int_0^t K_H(T, s) ds.  At H = 1/2 the path is the
straight line; at rho = 0 the two components decouple exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .driftspec import ModelSpec
from .kernel import TimeGrid, autocovariance, cholesky_with_jitter, kernel_partial_integral
from .opcache import OperatorCache

__all__ = [
    "GaussianConditioner",
    "condition_gaussian",
    "modal_coeffs",
    "modal_path",
    "ModalPath",
]


# -- conditional Gaussian --------------------------------------------------------

@dataclass(frozen=True)
class GaussianConditioner:
    """A joint Gaussian (mean, cov) with a subset of coordinates observed."""

    mean: np.ndarray
    cov: np.ndarray
    observed_indices: np.ndarray
    observed_values: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        idx = np.asarray(self.observed_indices, dtype=int)
        vals = np.asarray(self.observed_values, dtype=float)
        if cov.shape != (len(mean), len(mean)):
            raise ValueError("cov must be square and match mean")
        if not np.allclose(cov, cov.T, atol=1e-10 * max(1.0, np.abs(cov).max())):
            raise ValueError("cov must be symmetric")
        if len(idx) != len(vals):
            raise ValueError("observed indices and values must align")
        if len(set(idx.tolist())) != len(idx):
            raise ValueError("observed indices must be distinct")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "observed_indices", idx)
        object.__setattr__(self, "observed_values", vals)


def condition_gaussian(g: GaussianConditioner):
    """Conditional (mean, cov) of the unobserved coordinates given the observed.

    cond_mean = mu_X + S_XY S_YY^-1 (y - mu_Y);
    cond_cov  = S_XX - S_XY S_YY^-1 S_YX, symmetrized.
    """
    n = len(g.mean)
    obs = g.observed_indices
    keep = np.setdiff1d(np.arange(n), obs)
    s_yy = g.cov[np.ix_(obs, obs)]
    s_xy = g.cov[np.ix_(keep, obs)]
    s_xx = g.cov[np.ix_(keep, keep)]
    chol = (cholesky_with_jitter(s_yy), True)
    resid = g.observed_values - g.mean[obs]
    cond_mean = g.mean[keep] + s_xy @ cho_solve(chol, resid)
    cond_cov = s_xx - s_xy @ cho_solve(chol, s_xy.T)
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    return cond_mean, cond_cov


# -- terminal covariance of (X_T, Y_T) under the driftless law -------------------

def terminal_cov(model: ModelSpec) -> np.ndarray:
    """Sigma(T) = [[T, rho_H T^(H+1/2)], [rho_H T^(H+1/2), T^(2H)]]."""
    T, H = model.T, model.H
    off = model.rho_H * T ** (H + 0.5)
    return np.array([[T, off], [off, T ** (2.0 * H)]])


# -- modal path -------------------------------------------------------------------

@dataclass(frozen=True)
class ModalPath:
    """Conditional-mean trajectory of the pinned pair on a grid."""

    grid: TimeGrid
    m11: np.ndarray
    m12: np.ndarray
    m21: np.ndarray
    m22: np.ndarray
    x_path: np.ndarray
    y_path: np.ndarray
    endpoint: tuple


_coeff_cache = OperatorCache(16)


def modal_coeffs(model: ModelSpec, grid: TimeGrid):
    """The four bridge coefficients m11, m12, m21, m22 on the grid nodes.

    They do not depend on the endpoint or the drifts, so they are built once
    per (H, rho, model T, grid T, n) and returned as cached read-only arrays.
    """
    if model.rho_bar_H_sq < 1e-10:
        raise ValueError("degenerate rho_bar_H; modal coefficients undefined")
    key = (model.H, model.rho, model.T, grid.T, grid.n)
    return _coeff_cache.get(key, lambda: _build_modal_coeffs(model, grid))


def _build_modal_coeffs(model: ModelSpec, grid: TimeGrid):
    t = grid.nodes
    T, H = model.T, model.H
    hurst = model.hurst
    frac = t / T
    if hurst.is_brownian:
        coeffs = frac, np.zeros_like(t), np.zeros_like(t), frac.copy()
    elif model.rho == 0.0:
        r_tT = autocovariance(t, T, hurst)
        coeffs = frac, np.zeros_like(t), np.zeros_like(t), r_tT / T ** (2.0 * H)
    else:
        r_tT = autocovariance(t, T, hurst)
        pow_h = t ** (H + 0.5)
        rho, rho_h = model.rho, model.rho_H
        denom = model.rho_bar_H_sq
        part = kernel_partial_integral(t, T, hurst)
        coeffs = ((frac - rho * rho_h / T ** (H + 0.5) * part) / denom,
                  (-rho_h * t / T ** (H + 0.5) + rho / T ** (2.0 * H) * part) / denom,
                  rho_h / denom * (pow_h / T - r_tT / T ** (H + 0.5)),
                  (-rho_h ** 2 * frac ** (H + 0.5) + r_tT / T ** (2.0 * H)) / denom)
    for c in coeffs:
        c.flags.writeable = False
    return coeffs


def modal_path(model: ModelSpec, grid: TimeGrid, endpoint) -> ModalPath:
    """Modal (conditional mean) path from (x0, y0) to the given endpoint."""
    x, y = float(endpoint[0]), float(endpoint[1])
    m11, m12, m21, m22 = modal_coeffs(model, grid)
    dx = x - model.x0
    dy = y - model.y0
    return ModalPath(
        grid=grid,
        m11=m11, m12=m12, m21=m21, m22=m22,
        x_path=model.x0 + m11 * dx + m12 * dy,
        y_path=model.y0 + m21 * dx + m22 * dy,
        endpoint=(x, y),
    )
