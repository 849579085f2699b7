"""Shared test fixtures.

``reference_invert_KH`` is the pointwise route of the inverse kernel
transform that fraccalc.invert_KH followed before it became one matrix
product, kept here as the reference the operator tests compare against.

``reference_eval_drift`` is the tree walk that driftspec.eval_drift ran on
every call before expressions were compiled into plans at parse time, kept
here as the reference the compiled evaluator is compared against.
"""

import numpy as np
import pytest

from modalbridge.driftspec import BinOp, Call, DriftDomainError, Neg, Num, Var, _bad_example
from modalbridge.fraccalc import (_derivative_by_differencing, _marchaud_tail, _psi_profile,
                                  _rl_apply)
from modalbridge.profiles import product_integrate
from modalbridge.special import gamma_fn


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
        frac = r != np.floor(r)
        if np.any(lneg & (frac if frac.ndim else np.full(np.shape(lneg), frac))):
            raise DriftDomainError(
                f"negative base under non-integer power ({_bad_example(lneg, left, right)})"
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
