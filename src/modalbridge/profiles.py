"""Cumulative moments of weights with algebraic endpoint singularities.

Everything Volterra-shaped in this package reduces to integrals of the form

    int_0^x w(v) dv   and   int_0^x v * w(v) dv,      x in [0, 1],

where w behaves like v^b0 near 0 and (1 - v)^a1 near 1 (b0, a1 > -1).  A
:class:`SingularProfile` precomputes both antiderivatives once: the unit
interval is cut into geometrically graded panels, and the in-panel
antiderivative is stored as a Chebyshev interpolant of its smooth reduced
form (the algebraic endpoint factor is divided out before interpolating) at
the panel's 13 Chebyshev-Lobatto nodes.  Between consecutive nodes the
integrals use 12-point Gauss-Legendre rules, and a 12-point Gauss-Jacobi rule
absorbs the endpoint factor on the node interval that touches 0 or 1.  All
interior panels are evaluated in one call of the weight, and each end panel
in one call of its residual, so a build costs a few vectorised weight calls
plus one least-squares fit per panel and moment.  Evaluation is then
vectorized and cheap, which is what makes exact piecewise-linear product
integration against w affordable on large grids.

Product integration on an n-step grid is linear in the grid values and does
not depend on the grid spacing, so :func:`product_integrate` applies one
(n, n+1) matrix per (profile, n), built from the moments at the pair
fractions j/i on first use and cached.  :func:`moment_increments` is that
table of moment increments; the kernel module builds its Volterra weights
from the same table.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial.legendre import leggauss

from . import opcache
from .special import beta_fn

__all__ = ["SingularProfile", "moment_increments", "product_integrate"]

_GL_NODES, _GL_WEIGHTS = leggauss(12)
_DEG = 12          # Chebyshev degree of the per-panel antiderivative
_RATIO = 0.5       # geometric grading ratio of the panel mesh
_VMIN = 1e-10      # first breakpoint away from each endpoint
_TINY = 1e-250     # evaluation guard for residuals at v = 0


def _jacobi_poly(n: int, a: float, b: float, x: np.ndarray):
    """Jacobi polynomials P_(n-1) and P_n with parameters (a, b) at x, n >= 1."""
    prev, cur = np.ones_like(x), 0.5 * ((a + b + 2.0) * x + a - b)
    for m in range(1, n):
        s = 2.0 * m + a + b
        prev, cur = cur, (((s + 1.0) * (a * a - b * b) + s * (s + 1.0) * (s + 2.0) * x) * cur
                          - 2.0 * (m + a) * (m + b) * (s + 2.0) * prev) / (
                              2.0 * (m + 1.0) * (m + a + b + 1.0) * s)
    return prev, cur


def gauss_jacobi(n: int, alpha: float, beta: float):
    """n-point Gauss rule on [-1, 1] for the weight (1 - x)^alpha (1 + x)^beta.

    The method of ``scipy.special.roots_jacobi``: the eigenvalues of the
    Jacobi matrix, one Newton step on P_n, and weights 1 / (P_(n-1) P_n')
    scaled to sum to the weight's integral.  Returns (nodes, weights), the
    nodes ascending; n >= 2.
    """
    a, b = float(alpha), float(beta)
    k = np.arange(1.0, n)
    s = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    off = 2.0 / s * np.sqrt((k + a) * (k + b) / (s + 1.0))
    off[1:] *= np.sqrt(k[1:] * (k[1:] + a + b) / (s[1:] - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    dp = 0.5 * (n + a + b + 1.0) * _jacobi_poly(n - 1, a + 1.0, b + 1.0, x)[1]
    x -= _jacobi_poly(n, a, b, x)[1] / dp
    pm = _jacobi_poly(n, a, b, x)[0]
    # P_(n-1) and P_n' span many decades: scale each by its geometric mid-range
    for v in (pm, dp):
        logs = np.log(np.abs(v))
        v /= np.exp(0.5 * (logs.max() + logs.min()))
    w = 1.0 / (pm * dp)
    return x, w * (2.0 ** (a + b + 1.0) * beta_fn(a + 1.0, b + 1.0) / w.sum())


def _legendre_points(a: np.ndarray, b: np.ndarray):
    """Gauss-Legendre nodes of each interval [a, b] (last axis) and the half-widths."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[..., None] + half[..., None] * _GL_NODES, half


def _legendre_sums(half: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integrals of each interval from values f at its nodes."""
    return half * np.sum(_GL_WEIGHTS * f, axis=-1)


class SingularProfile:
    """Antiderivatives M0(x) = int_0^x w and M1(x) = int_0^x v w(v) dv.

    Parameters
    ----------
    resid0 : callable
        w(v) * v^(-b0); must be finite on (0, vmin], including the v -> 0 limit.
    resid1 : callable
        w(v) * (1 - v)^(-a1); must be finite on [1 - vmin, 1].
    w : callable
        The weight itself, evaluated on interior panels.
    b0, a1 : float
        Algebraic exponents at v = 0 and v = 1; both > -1.

    Each callable is called once per build with one flat array of all the
    points of its panels, so it must act elementwise.
    """

    def __init__(self, resid0: Callable, resid1: Callable, w: Callable,
                 b0: float, a1: float) -> None:
        if b0 <= -1.0 or a1 <= -1.0:
            raise ValueError(f"endpoint exponents must exceed -1, got {b0}, {a1}")
        self.b0 = float(b0)
        self.a1 = float(a1)

        left = [0.0]
        x = _VMIN
        while x < 0.45:
            left.append(x)
            x /= _RATIO
        left.append(0.5)
        right = [1.0 - b for b in left][::-1]
        self.breaks = np.array(left + right[1:])
        self.n_panels = len(self.breaks) - 1

        # Chebyshev-Lobatto nodes of the local coordinate, ascending in [-1, 1]
        u = np.cos(np.pi * np.arange(_DEG + 1) / _DEG)[::-1]
        self._u = u
        nodes = self.breaks[:-1, None] + 0.5 * (u + 1.0) * np.diff(self.breaks)[:, None]
        # reduced antiderivatives at the nodes, one row per panel
        red0 = np.zeros_like(nodes)
        red1 = np.zeros_like(nodes)

        # interior panels: Phi(v) = int_lo^v w, interpolated as is
        v, half = _legendre_points(nodes[1:-1, :-1], nodes[1:-1, 1:])
        wv = w(v.ravel()).reshape(v.shape)
        red0[1:-1, 1:] = np.cumsum(_legendre_sums(half, wv), axis=1)
        red1[1:-1, 1:] = np.cumsum(_legendre_sums(half, v * wv), axis=1)
        tot0, tot1 = red0[:, -1].copy(), red1[:, -1].copy()

        # left panel: Phi(v) = int_0^v s^b0 g ds = v^(1+b0) chi(v); interpolate chi.
        # Gauss-Jacobi on [0, x_1], Gauss-Legendre on the later node intervals.
        b0, x = self.b0, nodes[0]
        xj, wj = gauss_jacobi(12, 0.0, b0)
        vj = 0.5 * (xj + 1.0) * x[1]
        v, half = _legendre_points(x[1:-1], x[2:])
        r = resid0(np.concatenate([vj, v.ravel(), [_TINY]]))
        rj, rv, g0 = r[:12], r[12:-1].reshape(v.shape), r[-1]
        scale = (0.5 * x[1]) ** (1.0 + b0)
        phi0 = np.cumsum(np.concatenate([[scale * np.sum(wj * rj)],
                                         _legendre_sums(half, v ** b0 * rv)]))
        phi1 = np.cumsum(np.concatenate([[scale * np.sum(wj * (vj * rj))],
                                         _legendre_sums(half, v ** (1.0 + b0) * rv)]))
        tot0[0], tot1[0] = phi0[-1], phi1[-1]
        safe = np.maximum(x[1:], _TINY)
        red0[0, 1:] = phi0 / safe ** (1.0 + b0)
        red1[0, 1:] = phi1 / safe ** (2.0 + b0)
        red0[0, 0] = g0 / (1.0 + b0)
        red1[0, 0] = g0 / (2.0 + b0)

        # right panel: tail T(v) = int_v^1 (1-s)^a1 q ds = (1-v)^(1+a1) chi(v).
        # Gauss-Jacobi on [x_11, 1], Gauss-Legendre on the earlier node intervals,
        # accumulated from the right.
        a1, x = self.a1, nodes[-1]
        xj, wj = gauss_jacobi(12, a1, 0.0)
        vj = 0.5 * (xj + 1.0) * (1.0 - x[-2]) + x[-2]
        v, half = _legendre_points(x[:-2], x[1:-1])
        r = resid1(np.concatenate([vj, v.ravel(), [1.0]]))
        rj, rv, q1 = r[:12], r[12:-1].reshape(v.shape), r[-1]
        scale = (0.5 * (1.0 - x[-2])) ** (1.0 + a1)
        om_a1 = (1.0 - v) ** a1
        t0 = np.cumsum(np.concatenate([[scale * np.sum(wj * rj)],
                                       _legendre_sums(half, om_a1 * rv)[::-1]]))[::-1]
        t1 = np.cumsum(np.concatenate([[scale * np.sum(wj * (vj * rj))],
                                       _legendre_sums(half, v * om_a1 * rv)[::-1]]))[::-1]
        tot0[-1], tot1[-1] = t0[0], t1[0]
        om = np.maximum(1.0 - x[:-1], _TINY) ** (1.0 + a1)
        red0[-1, :-1] = t0 / om
        red1[-1, :-1] = t1 / om
        red0[-1, -1] = red1[-1, -1] = q1 / (1.0 + a1)

        # chebfit's scaled least squares, solved per panel and moment: one solve
        # over all panels at once rounds the coefficients differently
        van = _cheb.chebvander(u, _DEG)
        scl = np.sqrt(np.square(van.T).sum(1))
        lhs, rcond = van / scl, len(u) * np.finfo(float).eps
        self._coef0 = np.array([np.linalg.lstsq(lhs, y, rcond)[0] / scl for y in red0])
        self._coef1 = np.array([np.linalg.lstsq(lhs, y, rcond)[0] / scl for y in red1])
        self._cum0 = np.concatenate([[0.0], np.cumsum(tot0)])
        self._cum1 = np.concatenate([[0.0], np.cumsum(tot1)])

    # -- evaluation ----------------------------------------------------------

    def _eval(self, x, which: int):
        x = np.asarray(x, dtype=float)
        shape = x.shape
        flat = np.clip(np.atleast_1d(x).ravel(), 0.0, 1.0)
        cum = self._cum0 if which == 0 else self._cum1
        coef = self._coef0 if which == 0 else self._coef1
        idx = np.clip(np.searchsorted(self.breaks, flat, side="right") - 1,
                      0, self.n_panels - 1)
        out = np.empty_like(flat)
        # the panels in use, ascending; np.unique would load numpy.ma on its first call
        for p in np.flatnonzero(np.bincount(idx, minlength=self.n_panels)):
            sel = idx == p
            lo, hi = self.breaks[p], self.breaks[p + 1]
            h = hi - lo
            u = 2.0 * (flat[sel] - lo) / h - 1.0
            chi = _cheb.chebval(u, coef[p])
            if p == 0:
                power = (1.0 + self.b0) if which == 0 else (2.0 + self.b0)
                out[sel] = cum[p] + flat[sel] ** power * chi
            elif p == self.n_panels - 1:
                out[sel] = cum[p + 1] - (1.0 - flat[sel]) ** (1.0 + self.a1) * chi
            else:
                out[sel] = cum[p] + chi
        return out.reshape(shape) if shape else float(out[0])

    def moment0(self, x):
        """int_0^x w(v) dv, vectorized."""
        return self._eval(x, 0)

    def moment1(self, x):
        """int_0^x v * w(v) dv, vectorized."""
        return self._eval(x, 1)

    @property
    def total0(self) -> float:
        """int_0^1 w(v) dv."""
        return float(self._cum0[-1])


# -- grid product integration ---------------------------------------------

def _product_matrix(profile: SingularProfile, n: int) -> np.ndarray:
    """Product-integration matrix P of one profile on the n-step unit grid.

    Row i-1 of P (shape (n, n+1)) maps grid values f_0..f_n to
    int_0^1 w(v) fhat(i v) dv, fhat the piecewise-linear interpolant on the
    nodes 0..n.  With d0[i, j] and d1[i, j] the M0 and M1 increments between
    the pair fractions j/i and (j+1)/i, f_j carries the weight

        (j+1) d0[i, j] - i d1[i, j] + i d1[i, j-1] - (j-1) d0[i, j-1]

    (terms with j = i or j - 1 < 0 absent).  The grid spacing cancels, so one
    matrix serves every horizon.  Rows are built in blocks of ``_BLOCK`` so
    the transient arrays stay near the size of one block.
    """
    p = np.zeros((n, n + 1))
    for lo in range(1, n + 1, _BLOCK):
        hi = min(lo + _BLOCK, n + 1)
        p[lo - 1:hi - 1, :hi] = _product_rows(profile, lo, hi)
    return p


def _product_rows(profile: SingularProfile, lo: int, hi: int) -> np.ndarray:
    """Rows i = lo..hi-1 of the product-integration matrix, at columns 0..hi-1.

    Row i is row i-1 of _product_matrix on any grid of at least i steps; its
    columns past i are zero.  A caller that needs the matrix only once can
    consume it one block of rows at a time, without building all of it.
    """
    d0 = moment_increments(profile.moment0, lo, hi)
    d1 = moment_increments(profile.moment1, lo, hi)
    i = np.arange(lo, hi, dtype=float)[:, None]
    j = np.arange(hi, dtype=float)
    return (j + 1.0) * d0[:, 1:] - i * d1[:, 1:] + i * d1[:, :-1] - (j - 1.0) * d0[:, :-1]


def moment_increments(moment, lo: int, hi: int) -> np.ndarray:
    """M(min(j+1, i)/i) - M(min(j, i)/i) for rows i = lo..hi-1, columns j = -1..hi-1.

    Columns j = -1 and j >= i are exactly zero: past node i a row repeats M(1).
    """
    row, j = np.tril_indices(hi - lo, lo, hi)  # nodes j = 0..i of row i = lo + row
    m = np.full((hi - lo, hi), moment(1.0))
    m[row, j] = moment(j / (row + lo))
    d = np.zeros((hi - lo, hi + 1))
    d[:, 1:-1] = np.diff(m, axis=1)
    return d


_BLOCK = 64  # rows of a product-integration or inverse-transform matrix built per pass


def product_integrate(profile: SingularProfile, t: np.ndarray, f: np.ndarray,
                      key) -> np.ndarray:
    """Exact piecewise-linear product integration against a unit-interval weight.

    Returns the array I_i = int_0^1 w(v) fhat(t_i * v) dv for i = 1..n (I_0 = 0),
    where fhat is the piecewise-linear interpolant of f on the uniform grid t.
    ``key`` identifies the profile for the cache of product-integration
    matrices, which holds one matrix per (key, n).
    """
    n = len(t) - 1
    out = np.zeros(n + 1)
    out[1:] = opcache.get("product_matrix", (key, n), lambda: _product_matrix(profile, n)) @ f
    return out
