import numpy as np
import pytest
from scipy.integrate import quad

from conftest import pair_fractions
from modalbridge.fraccalc import _psi_profile
from modalbridge.kernel import Hurst, kernel_profile, kernel_total_integral
from modalbridge.profiles import SingularProfile, product_integrate


def flat_profile():
    one = lambda v: np.ones_like(np.asarray(v, dtype=float))
    return SingularProfile(one, one, one, b0=0.0, a1=0.0)


def test_trivial_weight_moments():
    prof = flat_profile()
    xs = np.array([0.0, 1e-6, 0.0017, 0.3, 0.77, 0.999, 1.0])
    np.testing.assert_allclose(prof.moment0(xs), xs, atol=1e-14)
    np.testing.assert_allclose(prof.moment1(xs), xs ** 2 / 2.0, atol=1e-14)
    assert prof.total0 == pytest.approx(1.0, abs=1e-15)


def test_singular_weight_moments_closed_form():
    # w(v) = v^(-0.4) (1 - v)^(-0.3): moments are incomplete betas
    from scipy.special import betainc, beta as sp_beta
    b0, a1 = -0.4, -0.3
    one = lambda v: np.ones_like(np.asarray(v, dtype=float))
    w = lambda v: np.asarray(v, float) ** b0 * (1.0 - np.asarray(v, float)) ** a1
    r0 = lambda v: (1.0 - np.asarray(v, float)) ** a1
    r1 = lambda v: np.asarray(v, float) ** b0
    prof = SingularProfile(r0, r1, w, b0, a1)
    for x in (1e-5, 0.01, 0.4, 0.9, 0.99999, 1.0):
        expected = sp_beta(1 + b0, 1 + a1) * betainc(1 + b0, 1 + a1, x)
        assert prof.moment0(x) == pytest.approx(expected, rel=1e-9)
        expected1 = sp_beta(2 + b0, 1 + a1) * betainc(2 + b0, 1 + a1, x)
        assert prof.moment1(x) == pytest.approx(expected1, rel=1e-9)


def test_exponent_validation():
    one = lambda v: np.ones_like(np.asarray(v, dtype=float))
    with pytest.raises(ValueError):
        SingularProfile(one, one, one, b0=-1.0, a1=0.0)


def test_kernel_profile_total_matches_closed_form():
    for H in (0.01, 0.1, 0.25, 0.5 - 1e-9, 0.6, 0.9, 0.95):
        hurst = Hurst(H)
        prof = kernel_profile(hurst)
        assert prof.total0 == pytest.approx(kernel_total_integral(1.0, hurst),
                                            rel=1e-9)


def test_kernel_profile_partial_vs_adaptive():
    H = 0.3
    hurst = Hurst(H)
    prof = kernel_profile(hurst)
    from modalbridge.kernel import _leading_coef, _unit_kernel

    def direct(x):
        b0 = -abs(H - 0.5)
        f = lambda v: float(_unit_kernel(np.array([v]), hurst)[0]) * v ** (-b0) \
            if v > 1e-250 else _leading_coef(hurst)
        val, _ = quad(f, 0.0, x, weight="alg", wvar=(b0, 0.0), limit=200,
                      epsabs=1e-14, epsrel=1e-12)
        return val

    for x in (1e-4, 0.05, 0.5, 0.97):
        assert prof.moment0(x) == pytest.approx(direct(x), rel=1e-9)


def test_pair_fractions_layout():
    xs, starts = pair_fractions(3)
    np.testing.assert_allclose(xs, [0, 1, 0, 0.5, 1, 0, 1 / 3, 2 / 3, 1])
    np.testing.assert_array_equal(starts, [0, 2, 5])


def test_product_integrate_flat_weight_is_average():
    # with w = 1, the product integral is the time average of the interpolant
    prof = flat_profile()
    n = 64
    t = np.linspace(0.0, 2.0, n + 1)
    f = np.sin(t)
    out = product_integrate(prof, t, f, key="flat-test")
    for i in (1, 7, n):
        # trapezoid average of the piecewise-linear interpolant
        seg = np.trapezoid(f[:i + 1], t[:i + 1]) / t[i]
        assert out[i] == pytest.approx(seg, rel=1e-12)


def product_integrate_loop(profile, t, f):
    """Row-by-row product integration: the reference for the matrix form."""
    n = len(t) - 1
    dt = t[-1] / n
    slope = np.diff(f) / dt
    a_coef = f[:-1] - slope * t[:-1]
    xs, starts = pair_fractions(n)
    m0, m1 = profile.moment0(xs), profile.moment1(xs)
    out = np.zeros(n + 1)
    for i in range(1, n + 1):
        row = slice(starts[i - 1], starts[i - 1] + i + 1)
        out[i] = a_coef[:i] @ np.diff(m0[row]) + t[i] * (slope[:i] @ np.diff(m1[row]))
    return out


@pytest.mark.parametrize("name,H", [("kernel", 0.3), ("kernel", 0.7), ("psi", 0.7)])
@pytest.mark.parametrize("n", [5, 64, 130])  # 130 is not a multiple of the row block
def test_product_matrix_matches_row_loop(name, H, n):
    hurst = Hurst(H)
    prof = kernel_profile(hurst) if name == "kernel" else _psi_profile(hurst)
    t = np.linspace(0.0, 0.37, n + 1)
    f = np.sin(7.0 * t) + 0.1 * np.random.default_rng(n).standard_normal(n + 1)
    out = product_integrate(prof, t, f, key=(name, H))
    ref = product_integrate_loop(prof, t, f)
    assert out[0] == 0.0
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
