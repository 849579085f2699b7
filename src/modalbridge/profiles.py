"""Cumulative moments of weights with algebraic endpoint singularities.

Everything Volterra-shaped in this package reduces to integrals of the form

    int_0^x w(v) dv   and   int_0^x v * w(v) dv,      x in [0, 1],

where w behaves like v^b0 near 0 and (1 - v)^a1 near 1 (b0, a1 > -1).  A
:class:`SingularProfile` precomputes both antiderivatives once: the unit
interval is cut into geometrically graded panels, panel integrals are done
with Gauss-Legendre / Gauss-Jacobi rules, and the in-panel antiderivative is
stored as a Chebyshev interpolant of its smooth reduced form (the algebraic
endpoint factor is divided out before interpolating).  Evaluation is then
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
from scipy.special import roots_jacobi, roots_legendre

from .opcache import OperatorCache

__all__ = ["SingularProfile", "moment_increments", "pair_fractions", "product_integrate"]

_GL_NODES, _GL_WEIGHTS = roots_legendre(12)
_DEG = 12          # Chebyshev degree of the per-panel antiderivative
_RATIO = 0.5       # geometric grading ratio of the panel mesh
_VMIN = 1e-10      # first breakpoint away from each endpoint
_TINY = 1e-250     # evaluation guard for residuals at v = 0


def _gauss(f: Callable, a: float, b: float) -> float:
    v = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
    return 0.5 * (b - a) * float(np.sum(_GL_WEIGHTS * f(v)))


def _gauss_jacobi_left(g: Callable, b: float, b0: float) -> float:
    # int_0^b s^b0 g(s) ds, g smooth
    x, w = roots_jacobi(12, 0.0, b0)
    v = 0.5 * (x + 1.0) * b
    return (0.5 * b) ** (1.0 + b0) * float(np.sum(w * g(v)))


def _gauss_jacobi_right(q: Callable, a: float, a1: float) -> float:
    # int_a^1 (1 - s)^a1 q(s) ds, q smooth
    x, w = roots_jacobi(12, a1, 0.0)
    v = 0.5 * (x + 1.0) * (1.0 - a) + a
    return (0.5 * (1.0 - a)) ** (1.0 + a1) * float(np.sum(w * q(v)))


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
        self._coef0 = np.zeros((self.n_panels, _DEG + 1))
        self._coef1 = np.zeros((self.n_panels, _DEG + 1))
        cum0 = np.zeros(self.n_panels + 1)
        cum1 = np.zeros(self.n_panels + 1)

        for p in range(self.n_panels):
            lo, hi = self.breaks[p], self.breaks[p + 1]
            h = hi - lo
            nodes = lo + 0.5 * (u + 1.0) * h
            if p == 0:
                c0, c1, tot0, tot1 = self._build_left(resid0, nodes, h)
            elif p == self.n_panels - 1:
                c0, c1, tot0, tot1 = self._build_right(resid1, nodes, lo, h)
            else:
                c0, c1, tot0, tot1 = self._build_interior(w, nodes, lo)
            self._coef0[p], self._coef1[p] = c0, c1
            cum0[p + 1] = cum0[p] + tot0
            cum1[p + 1] = cum1[p] + tot1
        self._cum0, self._cum1 = cum0, cum1

    # -- panel construction ------------------------------------------------

    def _build_left(self, resid0, nodes, h):
        """Phi(v) = int_0^v s^b0 g ds = v^(1+b0) chi(v); interpolate chi."""
        b0 = self.b0
        phi0 = np.zeros_like(nodes)
        phi1 = np.zeros_like(nodes)
        acc0 = acc1 = 0.0
        prev = 0.0
        for k, vk in enumerate(nodes):
            if vk > prev:
                if prev == 0.0:
                    acc0 += _gauss_jacobi_left(resid0, vk, b0)
                    acc1 += _gauss_jacobi_left(lambda s: s * resid0(s), vk, b0)
                else:
                    acc0 += _gauss(lambda s: s ** b0 * resid0(s), prev, vk)
                    acc1 += _gauss(lambda s: s ** (1.0 + b0) * resid0(s), prev, vk)
            phi0[k], phi1[k] = acc0, acc1
            prev = vk
        safe = np.maximum(nodes, _TINY)
        with np.errstate(invalid="ignore", divide="ignore"):
            chi0 = phi0 / safe ** (1.0 + b0)
            chi1 = phi1 / safe ** (2.0 + b0)
        g0 = float(np.asarray(resid0(np.array([_TINY])))[0])
        if nodes[0] == 0.0:
            chi0[0] = g0 / (1.0 + b0)
            chi1[0] = g0 / (2.0 + b0)
        return (_cheb.chebfit(self._u, chi0, _DEG),
                _cheb.chebfit(self._u, chi1, _DEG),
                phi0[-1], phi1[-1])

    def _build_right(self, resid1, nodes, lo, h):
        """Tail T(v) = int_v^1 (1-s)^a1 q ds = (1-v)^(1+a1) chi(v)."""
        a1 = self.a1
        t0 = np.zeros_like(nodes)
        t1 = np.zeros_like(nodes)
        acc0 = acc1 = 0.0
        prev = 1.0
        for k in range(len(nodes) - 1, -1, -1):
            vk = nodes[k]
            if prev > vk:
                if prev == 1.0:
                    acc0 += _gauss_jacobi_right(resid1, vk, a1)
                    acc1 += _gauss_jacobi_right(lambda s: s * resid1(s), vk, a1)
                else:
                    acc0 += _gauss(lambda s: (1.0 - s) ** a1 * resid1(s), vk, prev)
                    acc1 += _gauss(lambda s: s * (1.0 - s) ** a1 * resid1(s), vk, prev)
            t0[k], t1[k] = acc0, acc1
            prev = vk
        om = np.maximum(1.0 - nodes, _TINY)
        with np.errstate(invalid="ignore", divide="ignore"):
            chi0 = t0 / om ** (1.0 + a1)
            chi1 = t1 / om ** (1.0 + a1)
        q1 = float(np.asarray(resid1(np.array([1.0])))[0])
        if nodes[-1] == 1.0:
            chi0[-1] = q1 / (1.0 + a1)
            chi1[-1] = q1 / (1.0 + a1)
        return (_cheb.chebfit(self._u, chi0, _DEG),
                _cheb.chebfit(self._u, chi1, _DEG),
                t0[0], t1[0])

    def _build_interior(self, w, nodes, lo):
        phi0 = np.zeros_like(nodes)
        phi1 = np.zeros_like(nodes)
        acc0 = acc1 = 0.0
        prev = lo
        for k, vk in enumerate(nodes):
            if vk > prev:
                acc0 += _gauss(w, prev, vk)
                acc1 += _gauss(lambda s: s * w(s), prev, vk)
            phi0[k], phi1[k] = acc0, acc1
            prev = vk
        return (_cheb.chebfit(self._u, phi0, _DEG),
                _cheb.chebfit(self._u, phi1, _DEG),
                phi0[-1], phi1[-1])

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
        for p in np.unique(idx):
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

def pair_fractions(n: int):
    """All fractions j/i for i = 1..n, j = 0..i, flattened row-major.

    Returns (xs, row_starts) where row i occupies xs[row_starts[i-1] :
    row_starts[i-1] + i + 1].
    """
    ii = np.repeat(np.arange(1, n + 1), np.arange(2, n + 2))
    jj = np.concatenate([np.arange(i + 1) for i in range(1, n + 1)])
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(2, n + 1), out=starts[1:])
    return jj / ii, starts


def _product_matrix(profile: SingularProfile, n: int) -> np.ndarray:
    """Product-integration matrix P of one profile on the n-step unit grid.

    Row i-1 of P (shape (n, n+1)) maps grid values f_0..f_n to
    int_0^1 w(v) fhat(i v) dv, fhat the piecewise-linear interpolant on the
    nodes 0..n.  With d0[i, j] and d1[i, j] the M0 and M1 increments between
    the pair fractions j/i and (j+1)/i, f_j carries the weight

        (j+1) d0[i, j] - i d1[i, j] + i d1[i, j-1] - (j-1) d0[i, j-1]

    (terms with j = i or j - 1 < 0 absent).  The grid spacing cancels, so one
    matrix serves every horizon.  Rows are built in blocks of ``_BLOCK`` so
    the transient arrays stay near the size of one block.  P is read-only.
    """
    p = np.zeros((n, n + 1))
    for lo in range(1, n + 1, _BLOCK):
        hi = min(lo + _BLOCK, n + 1)
        p[lo - 1:hi - 1, :hi] = _product_rows(profile, lo, hi)
    p.flags.writeable = False
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


_BLOCK = 64  # rows of a product-integration matrix built per pass
# the kernel transform's matrices (apply_KH): two slots keep a round trip's two grid sizes
_table_cache = OperatorCache(2)


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
    out[1:] = _table_cache.get((key, n), lambda: _product_matrix(profile, n)) @ f
    return out
