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

import math
from dataclasses import dataclass

import numpy as np

from . import opcache
from .driftspec import ModelSpec
from .kernel import (TimeGrid, _nodes_and_weights, autocovariance, cholesky_with_jitter,
                     kernel_partial_integral)

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
    chol = cholesky_with_jitter(s_yy)
    # S_YY^-1 [resid, S_YX] through the jittered factor: L^-T (L^-1 rhs)
    rhs = np.column_stack([g.observed_values - g.mean[obs], s_xy.T])
    sol = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    cond_mean = g.mean[keep] + s_xy @ sol[:, 0]
    cond_cov = s_xx - s_xy @ sol[:, 1:]
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


def modal_coeffs(model: ModelSpec, grid: TimeGrid):
    """The four bridge coefficients m11, m12, m21, m22 on the grid nodes.

    They do not depend on the endpoint or the drifts, so they are built once
    per (H, rho, model T, grid T, n) and returned as cached read-only views of
    one stacked array, the store entry's matrix.
    """
    entry = _modal_entry(model, grid.T, grid.n)
    return entry.m11, entry.m12, entry.m21, entry.m22


class _Scales:
    """A model's Gaussian scales of Sigma(T), computed once for any number of endpoints.

    quad(dx, dy) is the exponent of the driftless Gaussian phi = e^-quad / norm,
    and log_norm is log(norm); omega_parts gives the two pieces of omega from
    the drift integrals.
    """

    __slots__ = ("sqrt_t", "t_h", "rho_h", "bar_sq", "norm", "log_norm")

    def __init__(self, model: ModelSpec) -> None:
        T, H = model.T, model.H
        self.sqrt_t = math.sqrt(T)
        self.t_h = T ** H
        self.rho_h = model.rho_H
        self.bar_sq = model.rho_bar_H_sq
        self.norm = 2.0 * math.pi * T ** (H + 0.5) * math.sqrt(self.bar_sq)
        self.log_norm = math.log(self.norm)

    def quad(self, dx: float, dy: float) -> float:
        u = dx / self.sqrt_t
        v = dy / self.t_h
        r = u - self.rho_h * v  # no inf - inf where u^2 and v^2 overflow
        return r * r / (2.0 * self.bar_sq) + 0.5 * v * v

    def omega_parts(self, int_bar_h1: float, int_bar_h2: float, dx: float, dy: float):
        """The two pieces of omega: 1' D Sigma^-1 Delta and (1/2) 1' D Sigma^-1 D' 1,
        from the time integrals of bar_h1 and bar_h2."""
        sqrt_t, t_h, rho_h, bar_sq = self.sqrt_t, self.t_h, self.rho_h, self.bar_sq
        # A = <bar h1>/sqrt(T) - rho_H <bar h2>/T^H,
        # where <bar h1> = rho_bar <hat h1> + rho <hat h2>
        a = int_bar_h1 / sqrt_t - rho_h * int_bar_h2 / t_h
        u2 = int_bar_h2 / t_h
        linear = (a * (dx / sqrt_t) - rho_h * a * (dy / t_h)) / bar_sq + u2 * (dy / t_h)
        quadratic = 0.5 * (a * a / bar_sq + u2 * u2)
        return linear, quadratic


class _ModalEntry:
    """The store's one modal_coeffs entry per (H, rho, model T, grid T, n).

    m11..m22 are the read-only views of the stacked coefficient array
    (matrix); nodes and weights are the grid's nodes and trapezoid weights,
    the views of the nodes entry (so the store counts their bytes under both
    partitions); scales are the model's Sigma(T) scales.  A warm density call
    reads all of it in one lookup.
    """

    def __init__(self, model: ModelSpec, T: float, n: int) -> None:
        grid = TimeGrid(T, n)  # checks T and n, so an invalid grid stores nothing
        self.m11, self.m12, self.m21, self.m22 = _build_modal_coeffs(model, grid)
        self.nodes, self.weights = _nodes_and_weights(T, n)
        self.scales = _Scales(model)

    @property
    def matrix(self) -> np.ndarray:
        return self.m11.base


def _modal_entry(model: ModelSpec, T: float, n: int) -> _ModalEntry:
    """The modal_coeffs entry on TimeGrid(T, n), built on a miss: one lookup."""
    key = (model.H, model.rho, model.T, T, n)
    return opcache.get("modal_coeffs", key, lambda: _ModalEntry(model, T, n))


def _build_modal_coeffs(model: ModelSpec, grid: TimeGrid):
    t = grid.nodes
    T, H = model.T, model.H
    hurst = model.hurst
    frac = t / T
    if hurst.is_brownian:
        m11, m12, m21, m22 = frac, np.zeros_like(t), np.zeros_like(t), frac
    elif model.rho == 0.0:
        r_tT = autocovariance(t, T, hurst)
        m11, m12, m21, m22 = frac, np.zeros_like(t), np.zeros_like(t), r_tT / T ** (2.0 * H)
    else:
        r_tT = autocovariance(t, T, hurst)
        pow_h = t ** (H + 0.5)
        rho, rho_h = model.rho, model.rho_H
        denom = model.rho_bar_H_sq
        part = kernel_partial_integral(t, T, hurst)
        m11 = (frac - rho * rho_h / T ** (H + 0.5) * part) / denom
        m12 = (-rho_h * t / T ** (H + 0.5) + rho / T ** (2.0 * H) * part) / denom
        m21 = rho_h / denom * (pow_h / T - r_tT / T ** (H + 0.5))
        m22 = (-rho_h ** 2 * frac ** (H + 0.5) + r_tT / T ** (2.0 * H)) / denom
    stacked = np.block([[m11, m21], [m12, m22]])
    n1 = grid.n + 1
    # four views whose bytes are exactly the stacked array's
    return stacked[0, :n1], stacked[1, :n1], stacked[0, n1:], stacked[1, n1:]


def modal_path(model: ModelSpec, grid: TimeGrid, endpoint) -> ModalPath:
    """Modal (conditional mean) path from (x0, y0) to the given endpoint."""
    dx, dy = model.displacement(endpoint)
    m11, m12, m21, m22 = modal_coeffs(model, grid)
    return ModalPath(
        grid=grid,
        m11=m11, m12=m12, m21=m21, m22=m22,
        x_path=model.x0 + m11 * dx + m12 * dy,
        y_path=model.y0 + m21 * dx + m22 * dy,
        endpoint=(float(endpoint[0]), float(endpoint[1])),
    )
