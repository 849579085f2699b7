import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import dblquad

from modalbridge.bridge import modal_coeffs, modal_path, terminal_cov
from modalbridge.density import (UnsupportedHurstError, alpha_exponent, approx_densities,
                                 approx_density, drift_functionals,
                                 exact_timeonly_density, gaussian_prefactor,
                                 omega_1, omega_full)
from modalbridge import opcache
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


def test_exported_unsupported_hurst_error_catches_both_rejections():
    # general drifts at H >= 3/4 and any drift above the transform's H cap
    import modalbridge

    for model in (make_model("sin(x)", "cos(y)", H=0.8, holder_gamma=0.4),
                  make_model("sin(t)", "1", H=0.96)):
        with pytest.raises(modalbridge.UnsupportedHurstError):
            approx_density(model, (0.1, 0.1), 64)
    assert UnsupportedHurstError is modalbridge.UnsupportedHurstError


def _modal_keys():
    return [key for partition, key in opcache._entries if partition == "modal_coeffs"]


def test_rejections_hold_on_every_call():
    general = make_model("sin(x)", "cos(y)", H=0.8, holder_gamma=0.4)
    beyond = make_model("sin(t)", "1", H=0.96)
    opcache.clear()
    for model in (general, beyond):
        for _ in range(2):  # cold, and again once a call has been made
            with pytest.raises(UnsupportedHurstError):
                approx_density(model, (0.1, 0.1), 64)
    for _ in range(2):
        with pytest.raises(ValueError, match="at least 2 steps"):
            approx_density(make_model("sin(x)", "cos(y)"), (0.1, 0.1), 1)
    assert _modal_keys() == []  # a rejected call stores no entry
    # warm: the entries of the same (H, rho, T, n), built by an accepted
    # time-only model and by the modal path, leave both rejections in place
    approx_density(make_model("sin(t)", "1", H=0.8), (0.1, 0.1), 64)
    modal_coeffs(beyond, TimeGrid(beyond.T, 64))
    assert sorted(key[0] for key in _modal_keys()) == [0.8, 0.96]
    for model in (general, beyond):
        with pytest.raises(UnsupportedHurstError):
            approx_density(model, (0.1, 0.1), 64)


def test_warm_density_makes_one_store_lookup():
    m = make_model("0.5*sin(x)", "0.5*cos(y)", rho=0.3)
    approx_density(m, (0.1, 0.1), 64)

    def totals():  # hits and builds over every partition
        parts = opcache.stats().values()
        return sum(p["hits"] for p in parts), sum(p["builds"] for p in parts)

    hits, builds = totals()
    for i in range(5):
        approx_density(m, (0.1 * i, -0.05 * i), 64)
    assert totals() == (hits + 5, builds)
    approx_densities(m, [(0.01 * i, 0.02 * i) for i in range(300)], 64)
    assert totals() == (hits + 6, builds)


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_warm_density_equals_cold_bit_for_bit(H):
    m = make_model("0.5*sin(x) + 0.2*y", "0.3*cos(y) - 0.1*x", H=H, rho=0.4,
                   holder_gamma=H / 2 if H > 0.5 else None)
    endpoints = [(0.1, 0.1), (0.5, -0.3)]
    opcache.clear()
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
# rank-deficient there
@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
@pytest.mark.parametrize("n", [2, 64, 130, 512])
@pytest.mark.parametrize("H", [0.2, 0.3, 0.4, 0.5, 0.7])
def test_density_dot_products_match_drift_functionals(H, n):
    drifts = {"General": ("0.5*sin(x) + 0.2*y", "0.3*cos(y) - 0.1*x"),
              "Linear": ("0.3*x - 0.2*y + 1", "0.5*y + 0.1*x")}
    for cls, (h1, h2) in drifts.items():
        m = make_model(h1, h2, H=H, rho=0.4, holder_gamma=H / 2 if H > 0.5 else None)
        assert m.drift_class.value == cls
        for ep in [(0.1, 0.1), (0.5, -0.3), (-0.4, 0.6)]:
            d = approx_density(m, ep, n)
            f = drift_functionals(m, modal_path(m, TimeGrid(m.T, n), ep))
            w1, wf = omega_1(f, m, ep), omega_full(f, m, ep)
            phi = gaussian_prefactor(ep[0], ep[1], m)
            assert d.p_hat == pytest.approx(phi * math.exp(w1), rel=1e-12)
            assert d.p_hat_full == pytest.approx(phi * math.exp(wf), rel=1e-12)
            assert d.omega_1 == pytest.approx(w1, rel=1e-12)
            # omega_full is a difference of two pieces and can cancel to ~1e-5
            assert d.omega_full == pytest.approx(wf, rel=1e-12, abs=1e-15)


# -- approx_densities: the batched kernel -------------------------------------------

_DENSITY_FIELDS = ("phi", "p_hat", "p_hat_full", "log_p_hat", "log_p_hat_full")


@pytest.mark.parametrize("k", [1, 7, 256, 300])
@pytest.mark.parametrize("H", [0.2, 0.3, 0.5, 0.7])
def test_batch_equals_per_endpoint_calls(H, k):
    # 300 endpoints cross the kernel's 256-endpoint block
    drifts = {"General": ("0.5*sin(x) + 0.2*y", "0.3*cos(y) - 0.1*x"),
              "Linear": ("0.3*x - 0.2*y + 1", "0.5*y + 0.1*x"),
              "TimeOnly": ("0.2 + sin(t)", "-0.1*t")}
    rng = np.random.default_rng(7)
    endpoints = [tuple(p) for p in 0.6 * rng.standard_normal((k, 2))]
    for cls, (h1, h2) in drifts.items():
        m = make_model(h1, h2, H=H, rho=0.4, x0=0.1, y0=-0.2,
                       holder_gamma=H / 2 if H > 0.5 else None)
        assert m.drift_class.value == cls
        batch = approx_densities(m, endpoints, 512)
        assert len(batch) == k
        for ep, d in zip(endpoints, batch):
            single = approx_density(m, ep, 512)
            for name in _DENSITY_FIELDS:
                assert getattr(d, name) == pytest.approx(getattr(single, name), rel=1e-14)
            # the omegas are differences that can cancel towards 0
            assert d.omega_1 == pytest.approx(single.omega_1, rel=1e-14, abs=1e-15)
            assert d.omega_full == pytest.approx(single.omega_full, rel=1e-14, abs=1e-15)
            assert d.alpha == single.alpha


def test_empty_endpoint_list():
    assert approx_densities(make_model("sin(x)", "0"), [], 64) == []


def test_overflow_config_matches_the_exact_density():
    # phi underflows and exp(omega_1) overflows; in log space the full variant
    # is the exact time-only density
    m = make_model("60", "0", H=0.3, rho=0.4, T=1.0)
    d = approx_density(m, (60.0, 0.0))
    exact = exact_timeonly_density(m, (60.0, 0.0))
    assert exact == pytest.approx(0.172867, abs=1e-6)
    assert d.p_hat_full == pytest.approx(exact, rel=1e-8)
    assert d.log_p_hat_full == pytest.approx(math.log(exact), abs=1e-8)
    assert d.phi == 0.0
    # the leading variant is e^2122: its log is finite, the float is not
    assert math.isfinite(d.log_p_hat) and d.log_p_hat > 2000.0 and d.p_hat == math.inf


def test_far_endpoint_underflows_with_a_finite_log():
    m = make_model("1", "0", H=0.3, rho=0.3, T=1.0)
    d = approx_density(m, (1e150, 0.0))
    assert d.phi == 0.0 and d.p_hat == 0.0 and d.p_hat_full == 0.0
    assert math.isfinite(d.log_p_hat) and math.isfinite(d.log_p_hat_full)
    # -u^2 / (2 (1 - rho_H^2)) dominates: about -5.47e299
    assert d.log_p_hat == pytest.approx(-1e300 / (2.0 * m.rho_bar_H_sq), rel=1e-12)
    assert d.log_p_hat == pytest.approx(-5.47e299, rel=1e-3)
    # u^2 overflows further out: the log is -inf, not NaN
    far = approx_density(m, (1e200, 0.0))
    assert far.p_hat == 0.0 and far.log_p_hat == -math.inf and far.log_p_hat_full == -math.inf


def test_both_coordinates_far_out_give_a_log_of_minus_infinity():
    # u^2 and v^2 both overflow at (1e200, 1e200); the quadratic form is inf,
    # not inf - inf = NaN
    m = make_model("1", "0", H=0.3, rho=0.3, T=1.0)
    d = approx_density(m, (1e200, 1e200))
    assert d.log_p_hat == -math.inf and d.log_p_hat_full == -math.inf
    assert d.phi == 0.0 and d.p_hat == 0.0 and d.p_hat_full == 0.0
    assert gaussian_prefactor(1e200, 1e200, m) == 0.0


def test_nonfinite_drift_names_the_endpoint_in_a_list():
    # the third endpoint's path reaches x = 800, where exp(x) overflows; the
    # error names that path's first bad node, as the single call and the
    # reference route do
    m = make_model("exp(x)", "0", H=0.3, rho=0.3, T=0.25)
    with pytest.raises(DriftDomainError) as single:
        approx_density(m, (800.0, 0.0), 64)
    assert "x=" in str(single.value)
    with pytest.raises(DriftDomainError) as batch:
        approx_densities(m, [(0.1, 0.0), (0.5, 0.2), (800.0, 0.0), (0.3, 0.1)], 64)
    assert str(batch.value) == str(single.value)
    with pytest.raises(DriftDomainError) as reference:
        drift_functionals(m, modal_path(m, TimeGrid(m.T, 64), (800.0, 0.0)))
    assert str(reference.value) == str(single.value)


def test_endpoint_without_a_finite_displacement_is_refused_naming_it():
    # 1e308 - (-1e308) is inf, and a NaN endpoint has a NaN displacement: the
    # modal path, the batched density and omega refuse both, naming the
    # endpoint, where they gave NaN and inf paths or blamed a drift
    far = ModelSpec(Hurst(0.3), 0.5, -1e308, 0.0, 0.5, parse_drift("0.2"), parse_drift("-0.1"))
    grid = TimeGrid(far.T, 16)
    f = drift_functionals(far, modal_path(far, grid, (0.0, 0.0)))
    for model, endpoint in ((far, (1e308, 0.0)), (far, (0.0, -math.inf)),
                            (make_model("0.2", "-0.1"), (math.nan, 0.0))):
        for run in (lambda: modal_path(model, grid, endpoint),
                    lambda: approx_density(model, endpoint, 16),
                    lambda: approx_densities(model, [(0.0, 0.0), endpoint], 16),
                    lambda: omega_full(f, model, endpoint),
                    lambda: omega_1(f, model, endpoint)):
            with pytest.raises(ValueError, match="endpoint .* has no finite displacement"):
                run()


def test_density_does_not_depend_on_openblas_threads():
    from modalbridge import mc

    if mc._openblas_threads() is None:
        pytest.skip("numpy links no OpenBLAS with a known thread-count setter")
    script = (
        "from modalbridge.density import approx_density, approx_densities\n"
        "from modalbridge.driftspec import ModelSpec, parse_drift\n"
        "from modalbridge.kernel import Hurst\n"
        "for H in (0.3, 0.7):\n"
        "    m = ModelSpec(Hurst(H), 0.3, 0.0, 0.0, 0.25, parse_drift('0.5*sin(x)'),\n"
        "                  parse_drift('0.5*cos(y)'), holder_gamma=0.3)\n"
        "    eps = [(0.01 * i - 0.5, 0.3 - 0.005 * i) for i in range(300)]\n"
        "    print(repr([approx_density(m, ep) for ep in eps[:8]]))\n"
        "    print(repr(approx_densities(m, eps)))\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]
