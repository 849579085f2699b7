import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as sp_gamma

from modalbridge.fraccalc import (GridFunction, MAX_SUPPORTED_H, UnsupportedHurstError,
                                  apply_KH, inverse_operator_matrix, invert_KH,
                                  rl_integral, weyl_derivative)
from modalbridge.kernel import Hurst, TimeGrid, kernel_total_integral


def grid_fn(fn, T=1.0, n=1000):
    g = TimeGrid(T, n)
    return GridFunction(g, fn(g.nodes))


def test_grid_function_validation():
    g = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(4))
    with pytest.raises(ValueError):
        GridFunction(g, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))


def test_rl_integral_order_one_is_running_integral():
    f = grid_fn(lambda t: np.ones_like(t))
    out = rl_integral(f, 1.0)
    np.testing.assert_allclose(out.values, f.grid.nodes, atol=1e-14)


def test_rl_integral_power_identity():
    # I^a t^mu = Gamma(mu+1)/Gamma(mu+1+a) t^(mu+a)
    for mu, alpha in ((0.0, 0.5), (1.0, 0.3), (1.3, 0.4), (2.0, 1.0)):
        f = grid_fn(lambda t: t ** mu, n=2000)
        out = rl_integral(f, alpha).values
        t = f.grid.nodes
        expected = sp_gamma(mu + 1.0) / sp_gamma(mu + 1.0 + alpha) * t ** (mu + alpha)
        assert np.max(np.abs(out - expected)) < 2e-6


def test_rl_integral_composition():
    # I^0.3 I^0.4 f = I^0.7 f for f(t) = t
    f = grid_fn(lambda t: t, n=2000)
    lhs = rl_integral(rl_integral(f, 0.4), 0.3).values
    rhs = rl_integral(f, 0.7).values
    assert np.max(np.abs(lhs - rhs)) < 2e-5


def test_rl_integral_composition_sampled_orders():
    rng = np.random.default_rng(2)
    f = grid_fn(np.sin, n=1500)
    for _ in range(4):
        a = rng.uniform(0.1, 0.6)
        b = rng.uniform(0.1, min(1.0 - a, 0.6))
        lhs = rl_integral(rl_integral(f, b), a).values
        rhs = rl_integral(f, a + b).values
        assert np.max(np.abs(lhs - rhs)) < 5e-5


def test_rl_integral_monotone_for_nonnegative():
    f = grid_fn(lambda t: 1.0 + np.sin(3 * t) ** 2)
    out = rl_integral(f, 0.6).values
    assert np.all(out >= -1e-14)
    assert np.all(np.diff(out) >= -1e-14)


def test_rl_integral_alpha_domain():
    f = grid_fn(np.sin)
    with pytest.raises(ValueError):
        rl_integral(f, 0.0)
    with pytest.raises(ValueError):
        rl_integral(f, 1.2)


def test_weyl_derivative_power_identity():
    # D^a t^a = Gamma(a + 1), away from the origin
    for alpha in (0.25, 0.5, 0.75):
        f = grid_fn(lambda t: t ** alpha, n=4000)
        out = weyl_derivative(f, alpha).values
        lo = 400
        assert np.max(np.abs(out[lo:] - sp_gamma(1.0 + alpha))) < 2e-3


def test_weyl_derivative_of_constant():
    alpha = 0.3
    f = grid_fn(lambda t: np.full_like(t, 2.0))
    out = weyl_derivative(f, alpha).values
    t = f.grid.nodes
    expected = 2.0 * t[20:] ** (-alpha) / sp_gamma(1.0 - alpha)
    assert np.max(np.abs(out[20:] - expected)) < 1e-12


def test_weyl_inverts_rl_integral():
    # D^a (I^a f) = f for smooth f
    for alpha in (0.3, 0.6):
        f = grid_fn(np.sin, n=2000)
        back = weyl_derivative(rl_integral(f, alpha), alpha).values
        assert np.max(np.abs(back[40:] - f.values[40:])) < 1e-4


def test_apply_KH_constant_gives_kernel_integral():
    for H in (0.25, 0.5, 0.75):
        hurst = Hurst(H)
        f = grid_fn(lambda t: np.ones_like(t), n=400)
        out = apply_KH(f, hurst).values
        t = f.grid.nodes
        expected = np.array([0.0] + [kernel_total_integral(x, hurst) for x in t[1:]])
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_apply_KH_brownian_running_integral():
    f = grid_fn(lambda t: t)
    out = apply_KH(f, Hurst(0.5)).values
    np.testing.assert_allclose(out, f.grid.nodes ** 2 / 2.0, atol=1e-12)


def test_apply_KH_matches_fractional_factorization():
    # independent oracle: c_H Gamma(H+1/2) I^(2H) u^(1/2-H) I^(1/2-H) u^(H-1/2) f,
    # with the inner weighted integral evaluated by adaptive quadrature per node
    H = 0.3
    hurst = Hurst(H)
    n = 200
    g = TimeGrid(1.0, n)
    t = g.nodes
    f = np.sin(t)

    def inner(x):
        if x == 0.0:
            return 0.0
        val, _ = quad(lambda s: np.sin(s) * s ** (H - 0.5) * (x - s) ** (-0.5 - H),
                      0.0, x, points=(0.0, x), limit=200)
        return val / sp_gamma(0.5 - H)

    inner_vals = np.array([inner(x) for x in t])
    weighted = GridFunction(g, t ** (0.5 - H) * inner_vals)
    oracle = (hurst.c_H * sp_gamma(H + 0.5)
              * rl_integral(weighted, 2 * H).values)
    out = apply_KH(GridFunction(g, f), hurst).values
    assert np.max(np.abs(out[5:] - oracle[5:])) < 5e-4


def test_invert_KH_of_kernel_image_of_one():
    # inverse of the closed-form kernel integral is the constant 1
    for H in (0.25, 0.75):
        hurst = Hurst(H)
        g = TimeGrid(1.0, 1000)
        t = g.nodes
        h = hurst.kappa_H * t ** (H + 0.5)
        integrand = np.zeros_like(t)
        integrand[1:] = hurst.kappa_H * (H + 0.5) * t[1:] ** (H - 0.5)
        out = invert_KH(GridFunction(g, h), hurst, integrand=integrand).values
        lo = 100
        assert np.max(np.abs(out[lo:] - 1.0)) < 3e-3


def test_invert_KH_brownian():
    g = TimeGrid(1.0, 500)
    h = GridFunction(g, g.nodes ** 2 / 2.0)
    out = invert_KH(h, Hurst(0.5)).values
    assert np.max(np.abs(out[5:] - g.nodes[5:])) < 1e-5


def test_invert_KH_requires_zero_start():
    g = TimeGrid(1.0, 100)
    with pytest.raises(ValueError):
        invert_KH(GridFunction(g, np.ones(101)), Hurst(0.3))


def test_hurst_cap():
    g = TimeGrid(1.0, 100)
    f = GridFunction(g, np.ones(101))
    assert MAX_SUPPORTED_H == 0.95
    with pytest.raises(ValueError):
        apply_KH(f, Hurst(0.97))
    with pytest.raises(ValueError):
        invert_KH(GridFunction(g, np.zeros(101)), Hurst(0.96))


@pytest.mark.parametrize("H", (0.25, 0.5, 0.75))
@pytest.mark.parametrize("name,fn", [("one", lambda t: np.ones_like(t)),
                                     ("t", lambda t: t),
                                     ("sin", np.sin),
                                     ("exp", np.exp)])
def test_round_trip_converges(H, name, fn):
    # shrunk version of the acceptance criterion (full scale in test_acceptance)
    hurst = Hurst(H)
    errs = {}
    for n in (500, 1000):
        g = TimeGrid(1.0, n)
        f = fn(g.nodes)
        image = apply_KH(GridFunction(g, f), hurst)
        back = invert_KH(image, hurst).values
        lo = int(0.02 * n)
        errs[n] = float(np.max(np.abs(back[lo:] - f[lo:])))
    assert errs[500] < 5e-3
    assert errs[500] / max(errs[1000], 1e-300) > 1.5 or errs[1000] < 1e-9


# n = 2 and 3: the node-0 fit at H < 1/2 reads nodes 1..min(n, 3); at n = 2 the
# reference route's polyfit is rank-deficient and warns
@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
@pytest.mark.parametrize("n", [2, 3, 5, 64, 130])  # 130 is not a multiple of the row block
@pytest.mark.parametrize("H", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_inverse_operator_matrix_matches_column_loop(H, n, reference_invert_KH):
    grid, hurst = TimeGrid(0.7, n), Hurst(H)
    h0 = GridFunction(grid, np.zeros(n + 1))
    columns = np.column_stack([reference_invert_KH(h0, hurst, integrand=e)
                               for e in np.eye(n + 1)])
    L = inverse_operator_matrix(grid, hurst)
    assert L.shape == (n + 1, n + 1)
    assert np.max(np.abs(L - columns)) <= 1e-13 * np.max(np.abs(columns))
    assert not L.flags.writeable and inverse_operator_matrix(grid, hurst) is L


@pytest.mark.parametrize("n", [7, 64, 130, 500])
@pytest.mark.parametrize("H", [0.1, 0.25, 0.7, 0.9])
def test_differenced_invert_KH_matches_pointwise_route(H, n, reference_invert_KH):
    # at H < 1/2 the repaired reduced derivative is written back into h', and
    # the node-0 row of L reproduces the repair's quadratic at t = 0
    grid, hurst = TimeGrid(0.8, n), Hurst(H)
    t = grid.nodes
    for f in (np.sin(3.0 * t), np.exp(t), np.ones_like(t)):
        image = apply_KH(GridFunction(grid, f), hurst)
        ref = reference_invert_KH(image, hurst)
        out = invert_KH(image, hurst).values
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 4, 5, 6])
def test_differenced_invert_KH_rejects_grids_too_short_for_the_repair(n):
    grid = TimeGrid(1.0, n)
    h = GridFunction(grid, grid.nodes)
    with pytest.raises(ValueError, match="n >= 7"):
        invert_KH(h, Hurst(0.3))
    # the integrand mode and H > 1/2 need no repair fit
    assert np.all(np.isfinite(invert_KH(h, Hurst(0.3), integrand=np.ones(n + 1)).values))
    assert np.all(np.isfinite(invert_KH(h, Hurst(0.7)).values))


def test_inverse_operator_matrix_rejects_unsupported_hurst():
    with pytest.raises(UnsupportedHurstError):
        inverse_operator_matrix(TimeGrid(1.0, 16), Hurst(0.96))
