import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from modalbridge.bridge import modal_path, terminal_cov
from modalbridge.density import (UnsupportedHurstError, alpha_exponent,
                                 approx_density, drift_functionals,
                                 exact_timeonly_density, gaussian_prefactor,
                                 omega_1, omega_full)
from modalbridge import bridge, density, fraccalc, kernel, profiles
from modalbridge.driftspec import DriftClass, DriftDomainError, ModelSpec, parse_drift
from modalbridge.fraccalc import GridFunction, apply_KH
from modalbridge.kernel import Hurst, TimeGrid

ZERO = parse_drift("0")


def make_model(h1="0", h2="0", H=0.3, rho=0.5, x0=0.0, y0=0.0, T=0.5, **kw):
    return ModelSpec(Hurst(H), rho, x0, y0, T, parse_drift(h1), parse_drift(h2), **kw)


# -- prefactor -------------------------------------------------------------------

def test_prefactor_peak_standard_case():
    m = make_model(H=0.5, rho=0.0, T=1.0)
    assert gaussian_prefactor(0.0, 0.0, m) == pytest.approx(1.0 / (2 * math.pi))


def test_prefactor_peak_general():
    m = make_model(H=0.3, rho=0.6, T=0.7)
    kappa = Hurst(0.3).kappa_H
    expected = 1.0 / (2 * math.pi * 0.7 ** 0.8 * math.sqrt(1 - (0.6 * kappa) ** 2))
    assert gaussian_prefactor(0.0, 0.0, m) == pytest.approx(expected, rel=1e-14)


def test_prefactor_normalizes_to_one():
    m = make_model(H=0.3, rho=0.5, T=0.5)
    sx = math.sqrt(m.T)
    sy = m.T ** m.H
    val, err = dblquad(lambda y, x: gaussian_prefactor(x, y, m),
                       -8 * sx, 8 * sx, -8 * sy, 8 * sy, epsabs=1e-9)
    assert val == pytest.approx(1.0, abs=1e-6)


# -- functionals -----------------------------------------------------------------

def test_functionals_defining_relations():
    # rho hat_h2 + rho_bar hat_h1 = bar_h1 node-wise, and the kernel transform
    # of hat_h2 reproduces the running integral of bar_h2
    m = make_model("0.3*x - y + sin(t)", "0.2*y + cos(t)", H=0.3, rho=0.5, T=0.5)
    grid = TimeGrid(m.T, 600)
    path = modal_path(m, grid, (0.4, -0.3))
    f = drift_functionals(m, path)
    resid = (m.rho * f.hat_h2.values + m.rho_bar * f.hat_h1.values
             - f.bar_h1.values)
    assert np.max(np.abs(resid)) <= 1e-12
    image = apply_KH(f.hat_h2, m.hurst).values
    running = np.concatenate([[0.0], np.cumsum(
        (f.bar_h2.values[1:] + f.bar_h2.values[:-1]) * 0.5) * grid.dt])
    lo = int(0.02 * grid.n)
    assert np.max(np.abs(image[lo:] - running[lo:])) < 2e-3


def test_functionals_brownian_identity():
    # at H = 1/2 the transform is the identity on the integrand
    m = make_model("0.3*x", "0.2*y - 1", H=0.5, rho=0.4, T=0.5)
    grid = TimeGrid(m.T, 200)
    path = modal_path(m, grid, (0.2, 0.2))
    f = drift_functionals(m, path)
    np.testing.assert_allclose(f.hat_h2.values, f.bar_h2.values, atol=1e-14)


def test_functionals_constant_drifts_halfcase():
    mu, nu = 0.4, -0.25
    m = make_model(f"{mu}", f"{nu}", H=0.5, rho=0.3, T=0.8)
    grid = TimeGrid(m.T, 400)
    path = modal_path(m, grid, (0.1, 0.1))
    f = drift_functionals(m, path)
    assert f.int_bar_h2 == pytest.approx(nu * m.T, rel=1e-12)
    assert f.int_hat_h2 == pytest.approx(nu * m.T, rel=1e-12)
    assert f.int_hat_h1 == pytest.approx((mu - m.rho * nu) / m.rho_bar * m.T, rel=1e-12)


def test_functionals_unit_drift_round_trip():
    # bar_h2 = 1: the kernel image of hat_h2 must be the identity function
    m = make_model("0", "1", H=0.3, rho=0.0, T=1.0)
    grid = TimeGrid(m.T, 800)
    path = modal_path(m, grid, (0.0, 0.0))
    f = drift_functionals(m, path)
    image = apply_KH(f.hat_h2, m.hurst).values
    lo = int(0.05 * grid.n)
    assert np.max(np.abs(image[lo:] - grid.nodes[lo:])) < 1e-3


# -- omega ------------------------------------------------------------------------

def test_omega_zero_drifts():
    m = make_model()
    grid = TimeGrid(m.T, 64)
    path = modal_path(m, grid, (0.3, 0.2))
    f = drift_functionals(m, path)
    assert omega_full(f, m, (0.3, 0.2)) == 0.0
    assert omega_1(f, m, (0.3, 0.2)) == 0.0


def test_omega_constant_drift_uncorrelated_halfcase():
    # mu dx + nu dy - (mu^2 + nu^2) T / 2 for rho = 0, H = 1/2; this value of
    # the quadratic term is what pins the 1/2 factor
    mu, nu, T = 0.2, -0.1, 0.5
    m = make_model(f"{mu}", f"{nu}", H=0.5, rho=0.0, T=T)
    grid = TimeGrid(T, 256)
    endpoint = (0.3, -0.2)
    path = modal_path(m, grid, endpoint)
    f = drift_functionals(m, path)
    dx, dy = endpoint
    expected = mu * dx + nu * dy - (mu ** 2 + nu ** 2) * T / 2.0
    assert omega_full(f, m, endpoint) == pytest.approx(expected, rel=1e-12)
    assert omega_1(f, m, endpoint) == pytest.approx(mu * dx + nu * dy, rel=1e-12)
    # phi e^omega equals the product-normal density
    approx = gaussian_prefactor(dx, dy, m) * math.exp(omega_full(f, m, endpoint))
    exact = exact_timeonly_density(m, endpoint)
    assert approx == pytest.approx(exact, rel=1e-12)


def test_omega_decomposition():
    m = make_model("0.3*x", "sin(t)", H=0.4, rho=0.3, T=0.5)
    grid = TimeGrid(m.T, 128)
    endpoint = (0.25, -0.15)
    path = modal_path(m, grid, endpoint)
    f = drift_functionals(m, path)
    w1 = omega_1(f, m, endpoint)
    wf = omega_full(f, m, endpoint)
    # difference is the endpoint-independent quadratic term
    path2 = modal_path(m, grid, (0.5, 0.7))
    f2 = drift_functionals(m, path2)
    # omega_1 is linear in the endpoint displacement for frozen functionals
    assert wf < w1  # quadratic part is strictly negative here
    assert omega_1(f, m, endpoint) != omega_1(f2, m, (0.5, 0.7))


def test_omega_full_matrix_oracle():
    # scalar formulas vs explicit 1'D Sigma^-1 Delta - 0.5 1'D Sigma^-1 D'1
    m = make_model("0.3*x - y", "0.2*y + sin(t)", H=0.35, rho=0.4, T=0.6)
    grid = TimeGrid(m.T, 400)
    endpoint = (0.3, -0.4)
    path = modal_path(m, grid, endpoint)
    f = drift_functionals(m, path)
    d_mat = np.array([
        [m.rho_bar * f.int_hat_h1, 0.0],
        [m.rho * f.int_hat_h2, f.int_bar_h2],
    ])
    sigma = terminal_cov(m)
    delta = np.array([endpoint[0] - m.x0, endpoint[1] - m.y0])
    ones = np.ones(2)
    lin = ones @ d_mat @ np.linalg.solve(sigma, delta)
    quad = 0.5 * ones @ d_mat @ np.linalg.solve(sigma, d_mat.T @ ones)
    assert omega_full(f, m, endpoint) == pytest.approx(lin - quad, rel=1e-12)
    assert omega_1(f, m, endpoint) == pytest.approx(lin, rel=1e-12)


def test_omega1_translation_invariance_time_only():
    m1 = make_model("sin(t)", "0.2", H=0.3, rho=0.4, x0=0.0, y0=0.0)
    m2 = make_model("sin(t)", "0.2", H=0.3, rho=0.4, x0=5.0, y0=-3.0)
    grid = TimeGrid(m1.T, 128)
    d1 = approx_density(m1, (0.3, 0.1), 128)
    d2 = approx_density(m2, (5.3, -2.9), 128)
    assert d1.omega_1 == pytest.approx(d2.omega_1, rel=1e-12)
    assert d1.p_hat == pytest.approx(d2.p_hat, rel=1e-12)


# -- alpha -------------------------------------------------------------------------

def test_alpha_exponent_cases():
    general = dict(h1="sin(x)", h2="cos(y)")
    linear = dict(h1="t*x + y", h2="x - y")
    assert alpha_exponent(make_model(**general, H=0.6, holder_gamma=0.3)) == pytest.approx(0.6)
    assert alpha_exponent(make_model(**linear, H=0.6, holder_gamma=0.3)) == pytest.approx(0.8)
    assert alpha_exponent(make_model(**general, H=0.3)) == pytest.approx(0.6)
    assert alpha_exponent(make_model(**linear, H=0.9, holder_gamma=0.45)) == pytest.approx(0.2)
    assert math.isinf(alpha_exponent(make_model("sin(t)", "1", H=0.8)))
    with pytest.raises(UnsupportedHurstError):
        alpha_exponent(make_model(**general, H=0.8, holder_gamma=0.4))


def test_alpha_continuity_at_half():
    eps = 1e-6
    general = dict(h1="sin(x)", h2="cos(y)")
    below = alpha_exponent(make_model(**general, H=0.5 - eps))
    above = alpha_exponent(make_model(**general, H=0.5 + eps, holder_gamma=0.3))
    assert below == pytest.approx(1.0, abs=3 * eps)
    assert above == pytest.approx(1.0, abs=5 * eps)


# -- approx_density ------------------------------------------------------------------

def test_zero_drift_density_is_prefactor():
    m = make_model()
    d = approx_density(m, (0.2, -0.3), 64)
    assert d.p_hat == d.phi
    assert d.p_hat_full == d.phi
    assert math.isinf(d.alpha)


def test_timeonly_exactness_brownian():
    m = make_model("0.2", "-0.1", H=0.5, rho=0.0, T=0.5)
    endpoint = (0.3, -0.2)
    d = approx_density(m, endpoint, 256)
    sx = math.sqrt(0.5)
    exact = (math.exp(-(0.3 - 0.1) ** 2 / (2 * 0.5)) / math.sqrt(2 * math.pi * 0.5)
             * math.exp(-(-0.2 + 0.05) ** 2 / (2 * 0.5)) / math.sqrt(2 * math.pi * 0.5))
    assert d.p_hat_full == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("H,rho", [(0.5, 0.0), (0.5, 0.7), (0.3, 0.5), (0.7, -0.4)])
def test_timeonly_exactness_all_sets(H, rho):
    m = make_model("0.2", "-0.1", H=H, rho=rho, x0=0.1, y0=-0.3, T=0.5)
    rng = np.random.default_rng(99)
    for _ in range(5):
        endpoint = (0.1 + 0.6 * rng.standard_normal(),
                    -0.3 + 0.4 * rng.standard_normal())
        d = approx_density(m, endpoint, 256)
        exact = exact_timeonly_density(m, endpoint)
        assert d.p_hat_full == pytest.approx(exact, rel=1e-9)


def test_general_rejected_above_three_quarters():
    m = make_model("sin(x)", "cos(y)", H=0.8, holder_gamma=0.4)
    with pytest.raises(UnsupportedHurstError):
        approx_density(m, (0.1, 0.1), 64)


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_warm_density_equals_cold_bit_for_bit(H):
    m = make_model("0.5*sin(x) + 0.2*y", "0.3*cos(y) - 0.1*x", H=H, rho=0.4,
                   holder_gamma=H / 2 if H > 0.5 else None)
    endpoints = [(0.1, 0.1), (0.5, -0.3)]
    for cache in (kernel._profile_cache, fraccalc._psi_cache, profiles._table_cache,
                  bridge._coeff_cache, density._functional_cache):
        cache.clear()
    cold = [approx_density(m, ep, 128) for ep in endpoints]
    # warm, and in the other order, so no state leaks from one endpoint to the next
    warm = [approx_density(m, ep, 128) for ep in endpoints[::-1]][::-1]
    assert warm == cold


def test_nonfinite_drift_on_modal_path_is_a_domain_error():
    # exp(x) overflows far out along the path to x = 800
    m = make_model("exp(x)", "0", H=0.3, rho=0.3, T=0.25)
    with pytest.raises(DriftDomainError, match="h1 = exp"):
        approx_density(m, (800.0, 0.0), 64)


# n = 2 is the smallest grid: at H < 1/2 the reference route's node-0 polyfit is
# rank-deficient there, and q must reproduce its minimum-norm fit
@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
@pytest.mark.parametrize("n", [2, 64, 130, 512])
@pytest.mark.parametrize("H", [0.2, 0.3, 0.4, 0.5, 0.7])
def test_density_dot_products_match_drift_functionals(H, n):
    drifts = {"General": ("0.5*sin(x) + 0.2*y", "0.3*cos(y) - 0.1*x"),
              "Linear": ("0.3*x - 0.2*y + 1", "0.5*y + 0.1*x")}
    for cls, (h1, h2) in drifts.items():
        m = make_model(h1, h2, H=H, rho=0.4, holder_gamma=H / 2 if H > 0.5 else None)
        assert m.drift_class.value == cls
        _, q = density._trapezoid_functionals(TimeGrid(m.T, n), m.hurst)
        for ep in [(0.1, 0.1), (0.5, -0.3), (-0.4, 0.6)]:
            d = approx_density(m, ep, n)
            f = drift_functionals(m, modal_path(m, TimeGrid(m.T, n), ep))
            # int hat_h2 cancels out of omega (rho_bar int hat_h1 + rho int hat_h2
            # = int bar_h1), so the densities alone do not check q
            bar2 = f.bar_h2.values
            assert float(q @ bar2) == pytest.approx(
                f.int_hat_h2, rel=1e-12, abs=1e-13 * float(np.abs(q) @ np.abs(bar2)))
            w1, wf = omega_1(f, m, ep), omega_full(f, m, ep)
            phi = gaussian_prefactor(ep[0], ep[1], m)
            assert d.p_hat == pytest.approx(phi * math.exp(w1), rel=1e-12)
            assert d.p_hat_full == pytest.approx(phi * math.exp(wf), rel=1e-12)
            assert d.omega_1 == pytest.approx(w1, rel=1e-12)
            # omega_full is a difference of two pieces and can cancel to ~1e-5
            assert d.omega_full == pytest.approx(wf, rel=1e-12, abs=1e-15)


def test_trapezoid_functionals_are_cached_read_only_per_horizon():
    grid, hurst = TimeGrid(0.5, 64), Hurst(0.3)
    w, q = density._trapezoid_functionals(grid, hurst)
    assert density._trapezoid_functionals(grid, hurst)[1] is q
    for vec in (w, q):
        with pytest.raises(ValueError):
            vec[0] = 1.0
    # models that differ only in T must not share vectors
    m_short = make_model("0.5*sin(x)", "0.3*cos(y)", H=0.3, T=0.5)
    m_long = make_model("0.5*sin(x)", "0.3*cos(y)", H=0.3, T=0.8)
    approx_density(m_short, (0.1, 0.1), 64)
    approx_density(m_long, (0.1, 0.1), 64)
    w_long, q_long = density._trapezoid_functionals(TimeGrid(0.8, 64), hurst)
    assert not np.allclose(w_long, w)
    assert not np.allclose(q_long, q)
