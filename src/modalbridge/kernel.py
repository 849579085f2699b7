"""The fBm Volterra kernel, its integrals, and the joint covariance of (B, B^H).

The kernel K_H(t, s) is evaluated in two equivalent closed forms:

* hypergeometric:  c_H (t-s)^(H-1/2) F(H-1/2, 1/2-H, H+1/2; 1 - t/s)
* integral:        c_H [ (t/s)^(H-1/2) (t-s)^(H-1/2)
                         - (H-1/2) s^(1/2-H) int_s^t u^(H-3/2) (u-s)^(H-1/2) du ]

and is homogeneous: K_H(t, s) = t^(H-1/2) K_H(1, s/t).  All kernel integrals
therefore reduce to the unit profile k(v) = K_H(1, v), whose cumulative
moments are precomputed once per H (see :mod:`modalbridge.profiles`).  k has
algebraic endpoint behaviour v^(-|H-1/2|) at 0 and (1-v)^(H-1/2) at 1, which
the profile quadrature absorbs exactly.

The Volterra weights of the driving Brownian increments and the cross block
Cov(B_s, B^H_t) of the joint covariance are the same profile moments summed
two ways: both come from one table of moment increments between the pair
fractions j/i, and the cross block is the running sums of the Volterra rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import opcache
from .profiles import SingularProfile, gauss_jacobi, moment_increments
from .special import beta_fn, gamma_fn, hyp2f1

__all__ = [
    "Hurst",
    "TimeGrid",
    "kernel_hyp",
    "kernel_alt",
    "autocovariance",
    "kernel_total_integral",
    "kernel_partial_integral",
    "volterra_weight_matrix",
    "joint_cov_matrix",
    "cholesky_with_jitter",
    "NumericalConditioningError",
]


class NumericalConditioningError(RuntimeError):
    """Raised when a covariance matrix cannot be factorized even with jitter."""


@dataclass(frozen=True)
class Hurst:
    """Hurst exponent with its cached kernel constants.

    c_H = [2H Gamma(3/2-H) / (Gamma(2-2H) Gamma(H+1/2))]^(1/2) and
    kappa_H = c_H B(3/2-H, H+1/2) / (H+1/2); both are exactly 1 at H = 1/2.
    """

    H: float
    c_H: float = field(init=False)
    kappa_H: float = field(init=False)

    def __post_init__(self) -> None:
        H = self.H
        if not 0.0 < H < 1.0:
            raise ValueError(f"Hurst exponent must lie in (0, 1), got {H}")
        c = float(np.sqrt(2.0 * H * gamma_fn(1.5 - H)
                          / (gamma_fn(2.0 - 2.0 * H) * gamma_fn(H + 0.5))))
        kappa = c * beta_fn(1.5 - H, H + 0.5) / (H + 0.5)
        object.__setattr__(self, "c_H", c)
        object.__setattr__(self, "kappa_H", kappa)

    @property
    def is_brownian(self) -> bool:
        return self.H == 0.5


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = T of n >= 2 steps, whose step
    T/n is positive and finite (so a T so small that T/n is 0 is refused)."""

    T: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 steps, got n={self.n}")
        if not 0.0 < self.T / self.n < math.inf:
            raise ValueError(f"grid step T/n must be positive and finite, got {self.T}/{self.n}")

    @property
    def dt(self) -> float:
        return self.T / self.n

    @property
    def nodes(self) -> np.ndarray:
        """The read-only nodes t_0..t_n, one cached array per (T, n)."""
        return _nodes_and_weights(self.T, self.n)[0]


def _nodes_and_weights(T: float, n: int):
    """The nodes of a valid TimeGrid(T, n) and their trapezoid weights (dt,
    halved at both ends: values @ weights is the trapezoid integral), as
    read-only views of one cached (2, n+1) array.  A caller holding only
    (T, n), such as the batched density, fetches both in one lookup."""
    def build():
        both = np.empty((2, n + 1))
        both[0] = np.linspace(0.0, T, n + 1)
        both[1] = T / n
        both[1, [0, -1]] *= 0.5
        return both[0], both[1]  # the views' bytes are exactly the array's
    return opcache.get("nodes", (T, n), build)


# -- kernel evaluation -------------------------------------------------------

def _check_ts(t: float, s) -> None:
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s >= t):
        raise ValueError(f"kernel requires 0 < s < t, got t={t}, s={s}")


def kernel_hyp(t: float, s, hurst: Hurst):
    """K_H(t, s) via the hypergeometric form; vectorized over s in (0, t)."""
    _check_ts(t, s)
    s = np.asarray(s, dtype=float)
    H = hurst.H
    z = 1.0 - t / s
    out = hurst.c_H * (t - s) ** (H - 0.5) * hyp2f1(H - 0.5, 0.5 - H, H + 0.5, z)
    return float(out) if np.ndim(out) == 0 else out


_JACOBI_ORDER = 80  # Gauss-Jacobi nodes of kernel_alt's inner integral (a rule takes about 1 ms)


def kernel_alt(t: float, s, hurst: Hurst):
    """K_H(t, s) via the integral form; vectorized over s in (0, t).

    The inner integral int_s^t u^(H-3/2) (u-s)^(H-1/2) du is computed with a
    Gauss-Jacobi rule whose weight absorbs the (u-s)^(H-1/2) endpoint factor.
    """
    _check_ts(t, s)
    H = hurst.H
    shape = np.shape(s)
    s = np.asarray(s, dtype=float).ravel()
    x, w = opcache.get("jacobi_rule", H, lambda: gauss_jacobi(_JACOBI_ORDER, 0.0, H - 0.5))
    # u = s + (t - s) * y, y in (0, 1); integral = (t-s)^(H+1/2) int y^(H-1/2) u^(H-3/2) dy
    y = 0.5 * (x + 1.0)
    u = s[:, None] + (t - s)[:, None] * y[None, :]
    inner = (t - s) ** (H + 0.5) * 0.5 ** (H + 0.5) * (w[None, :] * u ** (H - 1.5)).sum(axis=1)
    out = hurst.c_H * ((t / s) ** (H - 0.5) * (t - s) ** (H - 0.5)
                       - (H - 0.5) * s ** (0.5 - H) * inner)
    return float(out[0]) if not shape else out.reshape(shape)


def autocovariance(s, t, hurst: Hurst):
    """fBm autocovariance R_H(s, t) = (s^2H + t^2H - |t-s|^2H) / 2."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise ValueError("autocovariance requires s, t >= 0")
    two_h = 2.0 * hurst.H
    out = 0.5 * (s ** two_h + t ** two_h - np.abs(t - s) ** two_h)
    return float(out) if out.ndim == 0 else out


def kernel_total_integral(t: float, hurst: Hurst) -> float:
    """int_0^t K_H(t, u) du = kappa_H t^(H+1/2), in closed form."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return hurst.kappa_H * t ** (hurst.H + 0.5)


# -- unit kernel profile ------------------------------------------------------

def _leading_coef(hurst: Hurst) -> float:
    """A_H with K_H(1, v) ~ A_H v^(-|H-1/2|) as v -> 0 (the tests' reference for that limit)."""
    H = hurst.H
    if H < 0.5:
        return hurst.c_H * gamma_fn(H + 0.5) * gamma_fn(1.0 - 2.0 * H) / gamma_fn(0.5 - H)
    return (hurst.c_H * gamma_fn(H + 0.5) * gamma_fn(2.0 * H - 1.0)
            / (gamma_fn(H - 0.5) * gamma_fn(2.0 * H)))


def _unit_kernel(v: np.ndarray, hurst: Hurst) -> np.ndarray:
    """k(v) = K_H(1, v) for 0 < v < 1."""
    return kernel_hyp(1.0, v, hurst)


def kernel_profile(hurst: Hurst):
    """Cached :class:`SingularProfile` of k(v) = K_H(1, v)."""
    return opcache.get("kernel_profile", hurst.H, lambda: _build_kernel_profile(hurst))


def _build_kernel_profile(hurst: Hurst):
    H = hurst.H
    b0 = -abs(H - 0.5)
    a1 = H - 0.5

    def resid0(v):  # the profile passes no point below profiles._TINY
        return _unit_kernel(v, hurst) * v ** (-b0)

    def resid1(v):
        v = np.asarray(v, dtype=float)
        z = 1.0 - 1.0 / v
        return hurst.c_H * hyp2f1(H - 0.5, 0.5 - H, H + 0.5, z)

    def w(v):
        return _unit_kernel(v, hurst)

    return SingularProfile(resid0, resid1, w, b0, a1)


def kernel_partial_integral(tau: float, t: float, hurst: Hurst):
    """int_0^tau K_H(t, u) du by singularity-aware quadrature; vectorized over tau.

    Uses the precomputed cumulative moment of the unit kernel profile, built by
    panelled Gauss-Jacobi quadrature honoring the u^(-|H-1/2|) behaviour at 0
    and the (t-u)^(H-1/2) behaviour at t.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 0.0) or np.any(tau_arr > t * (1.0 + 1e-12)):
        raise ValueError(f"tau must lie in [0, t], got tau={tau}, t={t}")
    if hurst.is_brownian:
        out = np.minimum(tau_arr, t)
        return float(out) if out.ndim == 0 else out
    H = hurst.H
    out = t ** (H + 0.5) * kernel_profile(hurst).moment0(tau_arr / t)
    return float(out) if np.ndim(tau) == 0 else out


# -- joint covariance ----------------------------------------------------------

_MAX_JITTER_FRAC = 1e-10  # largest jitter of cholesky_with_jitter, as a fraction of the trace


def cholesky_with_jitter(cov: np.ndarray):
    """Cholesky factor of a symmetric PSD matrix, with escalating jitter.

    Jitter eps * I is added with eps doubling from 1e-14 * trace up to
    1e-10 * trace before giving up.  A matrix whose trace is not
    positive has no jitter scale and fails at once, and so does a matrix with
    a non-finite entry (the factorization itself would return NaN or inf).
    """
    cov = np.asarray(cov, dtype=float)
    if not np.all(np.isfinite(cov)):
        raise NumericalConditioningError(
            f"Cholesky of a {cov.shape[0]}x{cov.shape[0]} matrix with non-finite entries")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    trace = float(np.trace(cov))
    if not trace > 0.0:
        raise NumericalConditioningError(
            f"Cholesky failed for {cov.shape[0]}x{cov.shape[0]} matrix with trace "
            f"{trace:g}, which gives no jitter scale")
    eps = 1e-14 * trace
    while eps <= _MAX_JITTER_FRAC * trace:
        try:
            return np.linalg.cholesky(cov + eps * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            eps *= 2.0
    raise NumericalConditioningError(
        f"Cholesky failed for {cov.shape[0]}x{cov.shape[0]} matrix even with "
        f"jitter up to {_MAX_JITTER_FRAC:g} * trace"
    )


def volterra_weight_matrix(grid: TimeGrid, hurst: Hurst) -> np.ndarray:
    """Lower-triangular W with W[i-1, j] = (1/dt) int_{t_j}^{t_{j+1}} K_H(t_i, s) ds.

    Applied to N(0, dt) increments of the driving Brownian motion these weights
    reproduce the exact cross-covariance with B at the nodes.  By homogeneity
    the entry is t_i^(H+1/2) / dt times the profile's M0 increment between the
    fractions j/i and (j+1)/i.  W is read-only and stored per (H, T, n): the
    bridge levels and the forward factor's covariance share one per grid.
    """
    def build():
        n = grid.n
        if hurst.is_brownian:
            return np.tril(np.ones((n, n)))
        d0 = moment_increments(kernel_profile(hurst).moment0, 1, n + 1)
        return grid.nodes[1:, None] ** (hurst.H + 0.5) * d0[:, 1:-1] / grid.dt
    return opcache.get("volterra", (hurst.H, grid.T, grid.n), build)


def joint_cov_matrix(grid: TimeGrid, hurst: Hurst) -> np.ndarray:
    """Covariance of (B_{t_1..t_n}, B^H_{t_1..t_n}) under the driftless law.

    Block layout: index 0..n-1 holds the Brownian nodes, n..2n-1 the fBm
    nodes.  Cov(B_s, B^H_t) = int_0^(s ^ t) K_H(t, u) du by the Ito isometry,
    which is dt times a running sum along row t of the Volterra weights.
    """
    t = grid.nodes[1:]
    n = grid.n
    cov = np.empty((2 * n, 2 * n))
    cov[:n, :n] = np.minimum(t[:, None], t[None, :])
    cov[n:, n:] = autocovariance(t[:, None], t[None, :], hurst)
    cross = grid.dt * np.cumsum(volterra_weight_matrix(grid, hurst), axis=1).T
    cov[:n, n:] = cross
    cov[n:, :n] = cross.T
    return cov


def draw_joint_paths(grid: TimeGrid, hurst: Hurst, rng: np.random.Generator, count: int):
    """Joint (B, B^H) node paths, each (count, n + 1) with a zero first column.

    No library code calls this: the forward simulation draws its noise from
    mc._forward_factor.  It stays only while the benchmark's tracer names it
    as a span target; the tests use it as an exact joint sampler.

    At H = 1/2 the joint covariance is exactly singular (B^H = B), so the
    Brownian path is drawn directly and duplicated instead of jittering.
    """
    n = grid.n
    b = np.zeros((count, n + 1))
    bh = np.zeros((count, n + 1))
    if hurst.is_brownian:
        incr = math.sqrt(grid.dt) * rng.standard_normal((count, n))
        b[:, 1:] = np.cumsum(incr, axis=1)
        bh[:, 1:] = b[:, 1:]
        return b, bh
    chol = cholesky_with_jitter(joint_cov_matrix(grid, hurst))
    z = rng.standard_normal((count, 2 * n))
    paths = z @ chol.T
    b[:, 1:] = paths[:, :n]
    bh[:, 1:] = paths[:, n:]
    return b, bh
