"""Shared test fixtures.

``reference_invert_KH`` is the pointwise route of the inverse kernel
transform that fraccalc.invert_KH followed before it became one matrix
product, kept here as the reference the operator tests compare against.

``reference_eval_drift`` is the tree walk that driftspec.eval_drift ran on
every call before expressions were compiled into plans at parse time, kept
here as the reference the compiled evaluator is compared against.

``kernel_partial_integral_quad`` (QUADPACK QAWS), ``hyp2f1_series`` with its
``PrecisionPolicy``, and ``pair_fractions`` are independent oracles for the
kernel integrals, the 2F1 route and the product-integration tables; the
tests import them from here.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from modalbridge.driftspec import BinOp, Call, DriftDomainError, Neg, Num, Var, _bad_example
from modalbridge.fraccalc import (_derivative_by_differencing, _marchaud_tail, _psi_profile,
                                  _rl_apply)
from modalbridge.kernel import Hurst, _leading_coef
from modalbridge.profiles import product_integrate
from modalbridge.special import _check_c, gamma_fn, hyp2f1


def kernel_partial_integral_quad(tau: float, t: float, hurst: Hurst,
                                 epsrel: float = 1e-11) -> float:
    """Adaptive (QUADPACK QAWS) evaluation of int_0^tau K_H(t, u) du.

    Independent of the profile route; used as a cross-check oracle in tests.
    QAWS integrates u^b (tau-u)^a f(u), so f carries the smooth remainder of
    the kernel after the endpoint factors are peeled off.
    """
    if not 0.0 <= tau <= t:
        raise ValueError(f"tau must lie in [0, t], got tau={tau}, t={t}")
    if tau == 0.0:
        return 0.0
    if hurst.is_brownian:
        return tau
    H = hurst.H
    b0 = -abs(H - 0.5)
    at_top = tau == t
    a = H - 0.5 if at_top else 0.0

    def f(u):
        if u < 1e-250 * t:
            lead = _leading_coef(hurst) * t ** (-b0)
            return lead if at_top else lead * t ** (H - 0.5)
        fac = float(hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1.0 - t / u))
        if at_top:
            return hurst.c_H * fac * u ** (-b0)
        return hurst.c_H * fac * (t - u) ** (H - 0.5) * u ** (-b0)

    val, _ = quad(f, 0.0, tau, weight="alg", wvar=(b0, a), limit=200,
                  epsabs=1e-14, epsrel=epsrel)
    return val


@dataclass(frozen=True)
class PrecisionPolicy:
    """Truncation policy for series evaluation.

    Attributes
    ----------
    abs_tol : float
        Absolute term size at which a series is considered converged.
    max_terms : int
        Hard cap on the number of series terms.
    """

    abs_tol: float = 1e-12
    max_terms: int = 10000

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


def hyp2f1_series(a: float, b: float, c: float, z: float,
                  policy: PrecisionPolicy = PrecisionPolicy()) -> float:
    """Reference 2F1 via the Pfaff transformation plus direct series.

    F(a, b, c; z) = (1 - z)^(-a) F(a, c - b, c; z / (z - 1)) maps z <= 0 into
    w in [0, 1), where the series converges.  Convergence degrades as w -> 1
    (i.e. z -> -inf); this is a test oracle, not the production route.
    """
    _check_c(c)
    if z > 0.0:
        raise ValueError(f"hyp2f1_series is only supported for z <= 0, got {z}")
    if a == 0.0 or b == 0.0 or z == 0.0:
        return 1.0
    w = z / (z - 1.0)
    b2 = c - b
    term = 1.0
    total = 1.0
    for k in range(policy.max_terms):
        term *= (a + k) * (b2 + k) / ((c + k) * (k + 1.0)) * w
        total += term
        if abs(term) <= policy.abs_tol * max(1.0, abs(total)):
            break
    else:
        raise RuntimeError(
            f"hyp2f1_series did not converge within {policy.max_terms} terms "
            f"(a={a}, b={b}, c={c}, z={z})"
        )
    return (1.0 - z) ** (-a) * total


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


def _repair_reduced(u, t, n):
    """Quadratic-fit repair of the first few nodes of the reduced derivative."""
    j0 = max(4, n // 200)
    window = np.arange(j0, min(j0 + 16, n))
    coef = np.polyfit(t[window], u[window], 2)
    u[:j0] = np.polyval(coef, t[:j0])


def _reference_invert_KH(h, hurst, integrand=None):
    """Values of the inverse kernel transform of h, computed pointwise.

    H < 1/2 uses [c_H Gamma(H+1/2)]^(-1) t^(H-1/2) I^(1/2-H) [s^(1/2-H) h'];
    H > 1/2 uses the a(t) + b(t) split of the weighted Weyl derivative of h'.
    """
    grid = h.grid
    t, dt, n = grid.nodes, grid.dt, grid.n
    differenced = integrand is None
    if differenced:
        g = _derivative_by_differencing(h.values, dt)
    else:
        g = np.asarray(integrand, dtype=float).copy()
    H = hurst.H
    if hurst.is_brownian:
        return g
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
        return out

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
    return out


@pytest.fixture
def reference_invert_KH():
    return _reference_invert_KH


def _eval(node, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, Call):
        arg = _eval(node.arg, env)
        if node.fn == "log":
            bad = np.asarray(arg) <= 0.0
            if np.any(bad):
                raise DriftDomainError(f"log of nonpositive value {_bad_example(bad, arg)}")
            return np.log(arg)
        if node.fn == "sqrt":
            bad = np.asarray(arg) < 0.0
            if np.any(bad):
                raise DriftDomainError(f"sqrt of negative value {_bad_example(bad, arg)}")
            return np.sqrt(arg)
        return getattr(np, node.fn if node.fn != "abs" else "abs")(arg)
    assert isinstance(node, BinOp)
    left = _eval(node.left, env)
    right = _eval(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        bad = np.asarray(right) == 0.0
        if np.any(bad):
            raise DriftDomainError(f"division by zero (denominator {_bad_example(bad, right)})")
        return left / right
    # node.op == "^"
    lneg = np.asarray(left) < 0.0
    if np.any(lneg):
        r = np.asarray(right, dtype=float)
        bad = lneg & (r != np.floor(r))
        if np.any(bad):
            raise DriftDomainError(
                f"negative base under non-integer power ({_bad_example(bad, left, right)})"
            )
    with np.errstate(over="raise", divide="raise"):
        try:
            return np.power(np.asarray(left, dtype=float), right)
        except FloatingPointError as exc:
            raise DriftDomainError(f"power overflow: {exc}") from None


def _reference_eval_drift(expr, t, x, y):
    """A drift at (t, x, y) by walking its expression tree."""
    out = _eval(expr.ast, {"t": t, "x": x, "y": y})
    shape = np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(y))
    if shape == ():
        return float(out)
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


@pytest.fixture
def reference_eval_drift():
    return _reference_eval_drift
