import math

import numpy as np
import pytest

from conftest import kernel_partial_integral_quad, pair_fractions
from modalbridge.kernel import (Hurst, TimeGrid, autocovariance, draw_joint_paths,
                                joint_cov_matrix, kernel_alt, kernel_hyp,
                                kernel_partial_integral, kernel_profile,
                                kernel_total_integral, volterra_weight_matrix)

H_SET = (0.1, 0.25, 0.4, 0.6, 0.75, 0.9)


def test_hurst_constants():
    h = Hurst(0.5)
    assert h.c_H == 1.0 and h.kappa_H == 1.0
    h = Hurst(0.75)
    # c_H = sqrt(2 H Gamma(3/2-H) / (Gamma(2-2H) Gamma(H+1/2)))
    from scipy.special import beta as sp_beta, gamma as sp_gamma
    expected_c = math.sqrt(1.5 * sp_gamma(0.75) / (sp_gamma(0.5) * sp_gamma(1.25)))
    assert h.c_H == pytest.approx(expected_c, rel=1e-14)
    assert h.kappa_H == pytest.approx(expected_c * sp_beta(0.75, 1.25) / 1.25, rel=1e-14)
    with pytest.raises(ValueError):
        Hurst(0.0)
    with pytest.raises(ValueError):
        Hurst(1.0)


def test_time_grid():
    g = TimeGrid(2.0, 4)
    assert g.dt == 0.5
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)


def test_time_grid_nodes_are_one_cached_read_only_array():
    a, b = TimeGrid(0.75, 96), TimeGrid(0.75, 96)
    assert a.nodes is b.nodes and a.nodes is a.nodes
    assert a.nodes.tobytes() == np.linspace(0.0, 0.75, 97).tobytes()
    assert not a.nodes.flags.writeable
    with pytest.raises(ValueError):
        a.nodes[1] = 0.0
    assert TimeGrid(0.75, 95).nodes is not a.nodes and TimeGrid(0.5, 96).nodes is not a.nodes


def test_kernel_brownian_case():
    h = Hurst(0.5)
    assert kernel_hyp(1.0, 0.5, h) == 1.0
    assert kernel_alt(1.0, 0.5, h) == 1.0


def test_kernel_vanishes_at_diagonal_for_large_H():
    h = Hurst(0.75)
    assert kernel_hyp(1.0, 1.0 - 1e-9, h) < 1e-2
    assert kernel_hyp(1.0, 1.0 - 1e-12, h) < 1e-2


def test_kernel_domain_errors():
    h = Hurst(0.3)
    with pytest.raises(ValueError):
        kernel_hyp(1.0, 0.0, h)
    with pytest.raises(ValueError):
        kernel_hyp(1.0, 1.0, h)
    with pytest.raises(ValueError):
        kernel_alt(1.0, 1.5, h)


@pytest.mark.parametrize("H", H_SET + (0.1,))
def test_kernel_form_equivalence(H):
    h = Hurst(H)
    for t in (0.1, 1.0, 2.0):
        s = np.linspace(0.05, 0.95, 20) * t
        a = np.asarray(kernel_hyp(t, s, h))
        b = np.asarray(kernel_alt(t, s, h))
        assert np.max(np.abs(a - b) / np.abs(a)) <= 1e-8


def test_kernel_alt_examples():
    assert kernel_alt(1.0, 0.5, Hurst(0.5)) == 1.0
    h = Hurst(0.25)
    assert kernel_alt(1.0, 0.9, h) == pytest.approx(kernel_hyp(1.0, 0.9, h), rel=1e-8)
    # scaling: K(2t, 2s) = 2^(H-1/2) K(t, s)
    h = Hurst(0.75)
    assert kernel_hyp(2.0, 1.0, h) == pytest.approx(
        2.0 ** 0.25 * kernel_hyp(1.0, 0.5, h), rel=1e-12)
    assert kernel_alt(2.0, 1.0, h) == pytest.approx(kernel_hyp(2.0, 1.0, h), rel=1e-8)


@pytest.mark.parametrize("H", (0.3, 0.5, 0.7))
def test_kernel_alt_takes_s_of_any_shape(H):
    # like kernel_hyp: the result has the shape of s, and a scalar s gives a float
    h = Hurst(H)
    s = np.array([[0.2, 0.5], [0.7, 0.9]])
    a = kernel_alt(1.0, s, h)
    assert a.shape == s.shape
    np.testing.assert_allclose(a, kernel_hyp(1.0, s, h), rtol=1e-8, atol=0.0)
    assert np.array_equal(a.ravel(), kernel_alt(1.0, s.ravel(), h))
    assert kernel_alt(1.0, s[..., None], h).shape == (2, 2, 1)
    assert isinstance(kernel_alt(1.0, 0.5, h), float)


def test_autocovariance_values():
    for H in (0.2, 0.5, 0.8):
        h = Hurst(H)
        assert autocovariance(1.0, 1.0, h) == pytest.approx(1.0)
        assert autocovariance(0.5, 1.0, Hurst(0.5)) == pytest.approx(0.5)
        T = 1.3
        assert autocovariance(T / 2, T, h) == pytest.approx(T ** (2 * H) / 2.0)
    with pytest.raises(ValueError):
        autocovariance(-0.1, 1.0, Hurst(0.3))


@pytest.mark.parametrize("H", H_SET)
def test_total_integral_identity(H):
    # quadrature route vs closed form (Lemma-style identity)
    h = Hurst(H)
    for t in (0.1, 1.0, 2.0):
        quad_val = kernel_partial_integral(t, t, h)
        assert quad_val == pytest.approx(kernel_total_integral(t, h), rel=1e-6)


def test_total_integral_brownian():
    # at H = 1/2 the kernel is 1, so the integral is t itself
    assert kernel_total_integral(1.0, Hurst(0.5)) == 1.0
    assert kernel_total_integral(4.0, Hurst(0.5)) == pytest.approx(4.0)


@pytest.mark.parametrize("H", (0.25, 0.75))
def test_partial_integral_vs_adaptive_quadrature(H):
    # profile route vs independent QUADPACK QAWS route
    h = Hurst(H)
    for (tau, t) in ((0.3, 1.0), (0.9, 1.0), (0.05, 0.4), (1.7, 2.0), (2.0, 2.0)):
        a = kernel_partial_integral(tau, t, h)
        b = kernel_partial_integral_quad(tau, t, h)
        assert a == pytest.approx(b, rel=1e-9)


def test_partial_integral_edges():
    h = Hurst(0.3)
    assert kernel_partial_integral(0.0, 1.0, h) == 0.0
    assert kernel_partial_integral(0.5, 1.0, Hurst(0.5)) == pytest.approx(0.5)
    assert kernel_partial_integral(1.0, 1.0, h) == pytest.approx(
        kernel_total_integral(1.0, h), rel=1e-9)
    with pytest.raises(ValueError):
        kernel_partial_integral(1.5, 1.0, h)
    with pytest.raises(ValueError):
        kernel_partial_integral(-0.1, 1.0, h)


def test_partial_integral_cauchy_schwarz_bound():
    # |int_s^t K_H(T, u) du| <= T^H |t - s|^(1/2)
    rng = np.random.default_rng(8)
    T = 1.0
    for H in (0.1, 0.3, 0.6, 0.9):
        h = Hurst(H)
        for _ in range(25):
            s, t = np.sort(rng.uniform(0.0, T, 2))
            lhs = abs(kernel_partial_integral(t, T, h) - kernel_partial_integral(s, T, h))
            assert lhs <= T ** H * math.sqrt(t - s) + 1e-12


def test_joint_cov_matrix_structure():
    h = Hurst(0.5)
    grid = TimeGrid(1.0, 2)
    cov = joint_cov_matrix(grid, h)
    n = grid.n
    assert cov.shape == (2 * n, 2 * n)
    assert np.allclose(cov, cov.T)
    assert np.all(np.diag(cov) > 0)
    # H = 1/2: B^H = B so the blocks coincide
    assert np.allclose(cov[:n, :n], cov[n:, n:])
    assert np.allclose(cov[:n, :n], cov[:n, n:])
    # terminal variance = T^(2H)
    h2 = Hurst(0.7)
    cov2 = joint_cov_matrix(grid, h2)
    assert cov2[2 * n - 1, 2 * n - 1] == pytest.approx(1.0)
    # cross entry via partial integral
    t = grid.nodes[1:]
    expect = kernel_partial_integral(t[0], t[1], h2)
    assert cov2[0, n + 1] == pytest.approx(expect, rel=1e-10)


def volterra_rows_loop(grid, hurst):
    """Row-by-row Volterra weights over the flat pair fractions: the reference."""
    n, t, dt = grid.n, grid.nodes, grid.dt
    xs, starts = pair_fractions(n)
    m0 = kernel_profile(hurst).moment0(xs)
    w = np.zeros((n, n))
    for i in range(1, n + 1):
        row = m0[starts[i - 1]: starts[i - 1] + i + 1]
        w[i - 1, :i] = t[i] ** (hurst.H + 0.5) * np.diff(row) / dt
    return w


def cross_block_loop(grid, hurst):
    """Column-by-column Cov(B_{t_i}, B^H_{t_j}) from partial integrals: the reference."""
    t = grid.nodes[1:]
    cross = np.empty((grid.n, grid.n))
    for j in range(grid.n):
        cross[:, j] = kernel_partial_integral(np.minimum(t, t[j]), t[j], hurst)
    return cross


@pytest.mark.parametrize("H", [0.1, 0.3, 0.7, 0.9])
@pytest.mark.parametrize("n", [7, 128])
@pytest.mark.parametrize("T", [0.25, 3.0])
def test_volterra_weights_and_cross_block_match_loops(H, n, T):
    grid, hurst = TimeGrid(T, n), Hurst(H)
    np.testing.assert_allclose(volterra_weight_matrix(grid, hurst),
                               volterra_rows_loop(grid, hurst), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(joint_cov_matrix(grid, hurst)[:n, n:],
                               cross_block_loop(grid, hurst), rtol=1e-13, atol=0.0)


def test_joint_cov_cholesky_large_grid():
    # PSD with jitter up to n = 512 for a rough and a smooth H
    for H in (0.1, 0.75):
        grid = TimeGrid(1.0, 512)
        cov = joint_cov_matrix(grid, Hurst(H))
        from modalbridge.kernel import cholesky_with_jitter
        L = cholesky_with_jitter(cov)
        assert np.all(np.isfinite(L))


def joint_paths(grid, hurst, seed, count):
    """Joint (B, B^H) node paths drawn from the Philox stream keyed seed."""
    return draw_joint_paths(grid, hurst, np.random.Generator(np.random.Philox(key=seed)), count)


def test_sample_joint_paths_determinism_and_brownian_identity():
    grid = TimeGrid(1.0, 8)
    b1, bh1 = joint_paths(grid, Hurst(0.3), seed=42, count=16)
    b2, bh2 = joint_paths(grid, Hurst(0.3), seed=42, count=16)
    assert np.array_equal(b1, b2) and np.array_equal(bh1, bh2)
    b, bh = joint_paths(grid, Hurst(0.5), seed=7, count=8)
    np.testing.assert_allclose(b, bh, atol=1e-10)


def test_sample_joint_paths_terminal_variance():
    # Monte Carlo check of Var(B^H_T) = T^(2H) within 3 standard errors
    H, T, n_paths = 0.3, 0.7, 100_000
    grid = TimeGrid(T, 16)
    _, bh = joint_paths(grid, Hurst(H), seed=123, count=n_paths)
    terminal = bh[:, -1]
    var = terminal.var()
    target = T ** (2 * H)
    se = target * math.sqrt(2.0 / (n_paths - 1))
    assert abs(var - target) <= 3.0 * se


def test_sample_joint_paths_cross_covariance():
    # Cov(B_t, B^H_T) should match the partial kernel integral within 3 s.e.
    H, T, n_paths = 0.7, 1.0, 100_000
    grid = TimeGrid(T, 8)
    hurst = Hurst(H)
    b, bh = joint_paths(grid, hurst, seed=321, count=n_paths)
    t_mid = grid.nodes[4]
    prod = b[:, 4] * bh[:, -1]
    est = prod.mean()
    se = prod.std(ddof=1) / math.sqrt(n_paths)
    target = kernel_partial_integral(t_mid, T, hurst)
    assert abs(est - target) <= 3.0 * se
