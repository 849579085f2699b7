"""Shared test fixtures.

``reference_invert_KH`` is the pointwise route of the inverse kernel
transform that fraccalc.invert_KH followed before it became one matrix
product, kept here as the reference the operator tests compare against.

``reference_eval_drift`` is the tree walk that driftspec.eval_drift ran on
every call before expressions were compiled into plans at parse time, kept
here as the reference the compiled evaluator is compared against.

``ReferenceProfile`` is the node-by-node build of profiles.SingularProfile,
with one twelve-point weight call per node interval, that ran before each
kind of panel was built from one weight call; the profile tests compare the
tables of the two bit for bit.

``_blas_pin_released`` fails any test that ends with the Monte Carlo block
runner's process-wide OpenBLAS pin still held: the runner holds it across its
yields, so a caller that left one open would keep OpenBLAS on one thread for
the rest of the process.

``kernel_partial_integral_quad`` (QUADPACK QAWS), ``hyp2f1_series`` with its
``PrecisionPolicy``, and ``pair_fractions`` are independent oracles for the
kernel integrals, the 2F1 route and the product-integration tables; the
tests import them from here.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from numpy.polynomial import chebyshev as _cheb
from scipy.integrate import quad

from modalbridge import mc
from modalbridge.driftspec import BinOp, Call, DriftDomainError, Neg, Num, Var, _bad_example
from modalbridge.fraccalc import (_derivative_by_differencing, _marchaud_tail, _psi_profile,
                                  _rl_apply)
from modalbridge.kernel import Hurst, _leading_coef
from modalbridge.profiles import (_DEG, _GL_NODES, _GL_WEIGHTS, _RATIO, _TINY, _VMIN,
                                  SingularProfile, gauss_jacobi, product_integrate)
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


@pytest.fixture(autouse=True)
def _blas_pin_released():
    yield
    assert mc._blas_users == 0, "the test left the OpenBLAS pin of a block runner held"


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


# The library's own Gauss rules: the tables are compared bit for bit, so both
# builds must integrate with the same nodes and weights.
def _gauss(f: Callable, a: float, b: float) -> float:
    v = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
    return 0.5 * (b - a) * float(np.sum(_GL_WEIGHTS * f(v)))


def _gauss_jacobi_left(g: Callable, b: float, b0: float) -> float:
    # int_0^b s^b0 g(s) ds, g smooth
    x, w = gauss_jacobi(12, 0.0, b0)
    v = 0.5 * (x + 1.0) * b
    return (0.5 * b) ** (1.0 + b0) * float(np.sum(w * g(v)))


def _gauss_jacobi_right(q: Callable, a: float, a1: float) -> float:
    # int_a^1 (1 - s)^a1 q(s) ds, q smooth
    x, w = gauss_jacobi(12, a1, 0.0)
    v = 0.5 * (x + 1.0) * (1.0 - a) + a
    return (0.5 * (1.0 - a)) ** (1.0 + a1) * float(np.sum(w * q(v)))


class ReferenceProfile(SingularProfile):
    """A SingularProfile whose tables are built node interval by node interval."""

    def __init__(self, resid0: Callable, resid1: Callable, w: Callable,
                 b0: float, a1: float) -> None:
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
