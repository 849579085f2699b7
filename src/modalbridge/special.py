"""Gamma, Beta, and Gauss hypergeometric functions on the domains the kernel needs.

All three are thin, domain-checked fronts over ``scipy.special``.  The kernel
formulas only ever evaluate 2F1 at arguments z <= 0 (z = 1 - t/s for
0 < s <= t), so positive z is rejected outright rather than half-supported.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

__all__ = [
    "gamma_fn",
    "beta_fn",
    "hyp2f1",
]


def gamma_fn(x):
    """Euler gamma function for positive arguments.

    Parameters
    ----------
    x : float or ndarray
        Argument(s), all strictly positive.

    Returns
    -------
    float or ndarray
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    out = sp.gamma(x)
    return float(out) if out.ndim == 0 else out


def beta_fn(a, b):
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError(f"beta_fn requires positive arguments, got a={a}, b={b}")
    out = sp.beta(a, b)
    return float(out) if out.ndim == 0 else out


def _check_c(c) -> None:
    c = np.asarray(c, dtype=float)
    bad = (c <= 0.0) & (c == np.floor(c))
    if np.any(bad) or np.any(c <= 0.0):
        # the kernel only needs c = H + 1/2 in (1/2, 3/2); keep the contract tight
        raise ValueError(f"hyp2f1 requires c > 0, got c={c}")


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric function F(a, b, c; z) for z <= 0.

    Exactly 1.0 when a == 0, b == 0, or z == 0.  Vectorized over z.
    """
    _check_c(c)
    z = np.asarray(z, dtype=float)
    if np.any(z > 0.0):
        raise ValueError(f"hyp2f1 is only supported for z <= 0, got max z = {z.max()}")
    if a == 0.0 or b == 0.0:
        out = np.ones_like(z)
        return float(out) if out.ndim == 0 else out
    out = sp.hyp2f1(a, b, c, z)
    out = np.where(z == 0.0, 1.0, out)
    return float(out) if out.ndim == 0 else out
