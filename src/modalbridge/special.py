"""Gamma, Beta, and Gauss hypergeometric functions on the domains the kernel needs.

Gamma and Beta come from the standard library's ``math.gamma`` and
``math.lgamma``.  The kernel formulas only ever evaluate 2F1 at arguments
z <= 0 (z = 1 - t/s for 0 < s <= t), so positive z is rejected outright
rather than half-supported; and they only use the family
F(a, -a; a + 1; z) with a = H - 1/2, the only one :func:`hyp2f1` evaluates,
summed in numpy from two power series with arguments of at most 3/4.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gamma_fn",
    "beta_fn",
    "hyp2f1",
]

_EPS = np.finfo(float).eps
_GAMMA_MAX = 171.0    # math.gamma(x) is finite below about 171.62
# Where the kernel family switches from the Pfaff series to A&S 15.3.8.  The
# second route cancels by a factor of about a x / (1 - 2a) in its argument
# x = 1/(1 - z): at H = 0.99 and z = -1 it is off by 1.2e-14, so it starts at
# x = 1/4, and the Pfaff series covers arguments up to 3/4.
_FAR_Z = -3.0
_MAX_TERMS = 300      # terms shrink by 3/4 or more, so a series ends within about 130


def _gamma(x: float) -> float:
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def _beta(a: float, b: float) -> float:
    if a + b < _GAMMA_MAX:
        return _gamma(a) * _gamma(b) / math.gamma(a + b)
    # Gamma(a + b) overflows while the ratio may not
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def gamma_fn(x):
    """Euler gamma function for positive arguments.

    Parameters
    ----------
    x : float or ndarray
        Argument(s), all strictly positive.

    Returns
    -------
    float or ndarray
        ``inf`` where Gamma(x) overflows a double (x > 171.6).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    if x.ndim == 0:
        return _gamma(float(x))
    return np.array([_gamma(v) for v in x.ravel().tolist()]).reshape(x.shape)


def beta_fn(a, b):
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(a > 0.0) and np.all(b > 0.0)):
        raise ValueError(f"beta_fn requires positive arguments, got a={a}, b={b}")
    if a.ndim == 0 and b.ndim == 0:
        return _beta(float(a), float(b))
    a, b = np.broadcast_arrays(a, b)
    return np.array([_beta(p, q) for p, q in zip(a.ravel().tolist(), b.ravel().tolist())]
                    ).reshape(a.shape)


def _check_c(c) -> None:
    c = np.asarray(c, dtype=float)
    if not np.all(c > 0.0):
        # the kernel only needs c = H + 1/2 in (1/2, 3/2); keep the contract tight
        raise ValueError(f"hyp2f1 requires c > 0, got c={c}")


def _series(a: float, b: float, c: float, x: np.ndarray) -> np.ndarray:
    """Sums of F(a, b; c; x), each ended at its first term below rounding.

    Every term ratio after the first is below 1 in magnitude, so a term that
    no longer changes its sum is the last one added; ending each element on
    its own makes its value independent of the rest of the array.
    """
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        done = np.abs(term) <= _EPS * np.abs(total)
        if done.all():
            return total
        term[done] = 0.0
    raise ArithmeticError(f"2F1 series did not converge (a={a}, b={b}, c={c})")


def _kernel_family(a: float, c: float, z: np.ndarray) -> np.ndarray:
    """F(a, -a; c; z) for c = a + 1 (up to rounding), |a| < 1/2 and z <= 0.

    On -3 <= z <= 0 the Pfaff transform F = (1-z)^(-a) F(a, c+a; c; z/(z-1))
    has its argument in [0, 3/4], and its term ratio is below the argument.
    Below -3, A&S 15.3.8 with c = a + 1 leaves
    Gamma(1+a) Gamma(-2a) / Gamma(-a) (-z)^(-a) + (1/2) (1-z)^a F(1, -a; 1-2a; 1/(1-z)),
    whose argument is below 1/4; both terms tend to 1/2 as a -> 0, so they do
    not cancel near H = 1/2.
    """
    out = np.empty_like(z)
    near = z >= _FAR_Z
    if np.any(near):
        zn = z[near]
        out[near] = (1.0 - zn) ** (-a) * _series(a, c + a, c, zn / (zn - 1.0))
    far = ~near
    if np.any(far):
        zf = z[far]
        lead = math.gamma(1.0 + a) * math.gamma(-2.0 * a) / math.gamma(-a)
        out[far] = (lead * (-zf) ** (-a)
                    + 0.5 * (1.0 - zf) ** a * _series(1.0, -a, 1.0 - 2.0 * a, 1.0 / (1.0 - zf)))
    return out


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric function F(a, b, c; z) for z <= 0, on the kernel's family.

    Exactly 1.0 when a == 0 or b == 0.  Otherwise (a, b, c) must be the
    kernel's b = -a, c = a + 1 with |a| < 1/2, or ValueError is raised; there
    it is vectorized over z and exactly 1.0 at z == 0.
    """
    _check_c(c)
    z = np.asarray(z, dtype=float)
    if not np.all(z <= 0.0):
        raise ValueError(f"hyp2f1 is only supported for z <= 0, got max z = {z.max()}")
    if a == 0.0 or b == 0.0:
        out = np.ones_like(z)
        return float(out) if out.ndim == 0 else out
    if not (b == -a and abs(a) < 0.5 and abs(c - (a + 1.0)) <= 4.0 * _EPS):
        raise ValueError(f"hyp2f1 supports only F(a, -a; a + 1; z) with |a| < 1/2, "
                         f"got a={a}, b={b}, c={c}")
    out = _kernel_family(float(a), float(c), np.atleast_1d(z)).reshape(z.shape)
    out = np.where(z == 0.0, 1.0, out)
    return float(out) if out.ndim == 0 else out
