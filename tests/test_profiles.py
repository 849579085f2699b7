import numpy as np
import pytest
from scipy.integrate import quad

from conftest import ReferenceProfile, pair_fractions
from modalbridge import fraccalc, kernel
from modalbridge.fraccalc import _psi_profile
from modalbridge.kernel import Hurst, kernel_profile, kernel_total_integral
from modalbridge.profiles import SingularProfile, gauss_jacobi, product_integrate
from modalbridge.special import beta_fn


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


BUILD_HS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95)


def build_counted(monkeypatch, name, H):
    """A fresh kernel or psi profile, its weight callables, and their call counts."""
    module = kernel if name == "kernel" else fraccalc
    real = module.SingularProfile
    seen = {}

    def counted(key, f):
        seen[key] = 0

        def g(v):
            seen[key] += 1
            return f(v)
        return g

    def spy(resid0, resid1, w, b0, a1):
        seen["args"] = (resid0, resid1, w, b0, a1)
        return real(counted("resid0", resid0), counted("resid1", resid1), counted("w", w),
                    b0, a1)

    monkeypatch.setattr(module, "SingularProfile", spy)
    if name == "kernel":
        return kernel._build_kernel_profile(Hurst(H)), seen
    return fraccalc._build_psi_profile(H), seen


@pytest.mark.parametrize("name,H", [("kernel", H) for H in BUILD_HS]
                         + [("psi", H) for H in BUILD_HS if H > 0.5])
def test_profile_tables_match_node_by_node_build(monkeypatch, name, H):
    prof, seen = build_counted(monkeypatch, name, H)
    ref = ReferenceProfile(*seen["args"])
    for table in ("breaks", "_coef0", "_coef1", "_cum0", "_cum1"):
        assert np.array_equal(getattr(prof, table), getattr(ref, table)), table
    tail = np.geomspace(1e-13, 0.5, 200)
    xs = np.concatenate([[0.0, 1e-12, 1.0 - 1e-12, 1.0], np.linspace(0.0, 1.0, 1001),
                         tail, 1.0 - tail])
    assert np.array_equal(prof.moment0(xs), ref.moment0(xs))
    assert np.array_equal(prof.moment1(xs), ref.moment1(xs))


@pytest.mark.parametrize("name,H", [("kernel", 0.3), ("kernel", 0.7), ("psi", 0.7)])
def test_profile_build_evaluates_each_weight_a_few_times(monkeypatch, name, H):
    calls = []
    real = kernel.hyp2f1

    def counted_hyp2f1(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernel, "hyp2f1", counted_hyp2f1)
    _, seen = build_counted(monkeypatch, name, H)
    if name == "kernel":
        assert len(calls) <= 8  # one hyp2f1 call per weight call
    for key in ("w", "resid0", "resid1"):
        assert 1 <= seen[key] <= 3, key


# The library's Gauss-Jacobi exponents are (0, e) and (e, 0) with e = +-(H - 1/2):
# the profiles' end panels and kernel_alt's inner integral.
JACOBI_EXPONENTS = [(0.0, e) for e in (-0.49, -0.3, -0.2, -1e-7, 1e-7, 0.2, 0.49)] + [
    (e, 0.0) for e in (-0.49, -0.2, -1e-7, 1e-7, 0.2, 0.3, 0.49)]


def jacobi_moments(kmax, alpha, beta):
    """int_-1^1 x^k (1-x)^alpha (1+x)^beta dx for k = 0..kmax.

    M_0 = 2^(alpha+beta+1) B(alpha+1, beta+1); integrating the derivative of
    x^k (1-x)^(alpha+1) (1+x)^(beta+1) gives
    M_(k+1) = (k M_(k-1) + (beta - alpha) M_k) / (k + alpha + beta + 2),
    whose two terms share a sign when one exponent is zero.
    """
    m = np.empty(kmax + 1)
    m[0] = 2.0 ** (alpha + beta + 1.0) * beta_fn(alpha + 1.0, beta + 1.0)
    m[1] = (beta - alpha) * m[0] / (alpha + beta + 2.0)
    for k in range(1, kmax):
        m[k + 1] = (k * m[k - 1] + (beta - alpha) * m[k]) / (k + alpha + beta + 2.0)
    return m


@pytest.mark.parametrize("n,weight_rtol", [(12, 1e-12), (80, 1e-10)])
@pytest.mark.parametrize("alpha,beta", JACOBI_EXPONENTS)
def test_gauss_jacobi_matches_scipy(n, weight_rtol, alpha, beta):
    from scipy.special import roots_jacobi
    x, w = gauss_jacobi(n, alpha, beta)
    xr, wr = roots_jacobi(n, alpha, beta)
    np.testing.assert_allclose(x, xr, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, wr, rtol=weight_rtol, atol=0.0)


@pytest.mark.parametrize("n,tol", [(12, 1e-13), (80, 1e-11)])
@pytest.mark.parametrize("alpha,beta", JACOBI_EXPONENTS)
def test_gauss_jacobi_is_exact_to_degree_2n_minus_1(n, tol, alpha, beta):
    # odd moments vanish as the exponents do, so errors are measured against
    # the sum of the terms' magnitudes
    x, w = gauss_jacobi(n, alpha, beta)
    terms = w[:, None] * x[:, None] ** np.arange(2 * n)
    err = np.abs(terms.sum(axis=0) - jacobi_moments(2 * n - 1, alpha, beta))
    assert np.all(err <= tol * np.abs(terms).sum(axis=0))


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
