import math
import threading

import numpy as np
import pytest

from modalbridge.bridge import (CovBlocks, GaussianConditioner, condition_gaussian,
                                cov_blocks, modal_coeffs, modal_path, terminal_cov)
from modalbridge.driftspec import ModelSpec, parse_drift
from modalbridge.kernel import (Hurst, NumericalConditioningError, TimeGrid, autocovariance,
                                cholesky_with_jitter, kernel_partial_integral,
                                kernel_total_integral)

ZERO = parse_drift("0")


def zero_model(H, rho, T=1.0, x0=0.0, y0=0.0):
    return ModelSpec(Hurst(H), rho, x0, y0, T, ZERO, ZERO)


# -- conditioning ------------------------------------------------------------------

def test_independent_blocks():
    cov = np.diag([1.0, 2.0, 3.0])
    g = GaussianConditioner(np.array([1.0, -1.0, 0.5]), cov,
                            np.array([2]), np.array([9.0]))
    mean, cc = condition_gaussian(g)
    np.testing.assert_allclose(mean, [1.0, -1.0])
    np.testing.assert_allclose(cc, np.diag([1.0, 2.0]))


def test_textbook_bivariate():
    r = 0.35
    g = GaussianConditioner(np.zeros(2), np.array([[1.0, r], [r, 1.0]]),
                            np.array([1]), np.array([-1.2]))
    mean, cc = condition_gaussian(g)
    assert mean[0] == pytest.approx(r * -1.2, abs=1e-14)
    assert cc[0, 0] == pytest.approx(1 - r * r, abs=1e-14)


def test_condition_gaussian_validation():
    with pytest.raises(ValueError):
        GaussianConditioner(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]),
                            np.array([1]), np.array([0.0]))
    with pytest.raises(ValueError):
        GaussianConditioner(np.zeros(2), np.eye(2), np.array([0, 0]),
                            np.array([0.0, 0.0]))


def test_condition_gaussian_psd_output():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8))
    cov = a @ a.T + 0.1 * np.eye(8)
    g = GaussianConditioner(rng.normal(size=8), cov, np.array([1, 5, 7]),
                            rng.normal(size=3))
    _, cc = condition_gaussian(g)
    np.testing.assert_allclose(cc, cc.T)
    assert np.min(np.linalg.eigvalsh(cc)) > -1e-12


def test_condition_gaussian_vs_sampling_oracle():
    # 6x6 instance, empirical regression estimate within 3 s.e. (reduced-scale
    # version of the acceptance criterion)
    rng = np.random.Generator(np.random.Philox(key=77))
    a = rng.normal(size=(6, 6))
    cov = a @ a.T + 0.5 * np.eye(6)
    mu = rng.normal(size=6)
    y_obs = mu[4:] + 0.2 * rng.normal(size=2)
    mean, _ = condition_gaussian(GaussianConditioner(mu, cov, np.array([4, 5]), y_obs))
    L = np.linalg.cholesky(cov)
    batches, per = 40, 5000
    est = np.empty((batches, 4))
    for b in range(batches):
        z = rng.standard_normal((per, 6))
        s = mu + z @ L.T
        x, y = s[:, :4], s[:, 4:]
        xc, yc = x - x.mean(0), y - y.mean(0)
        beta = (xc.T @ yc / (per - 1)) @ np.linalg.inv(yc.T @ yc / (per - 1))
        est[b] = x.mean(0) + beta @ (y_obs - y.mean(0))
    se = est.std(0, ddof=1) / math.sqrt(batches)
    assert np.all(np.abs(est.mean(0) - mean) <= 3.0 * se)


def test_rank_deficient_observed_block_conditions_with_jitter():
    # the observed block [[1, 1], [1, 1]] is singular, so only the jittered factor exists
    cov = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    g = GaussianConditioner(np.zeros(3), cov, np.array([1, 2]), np.array([0.5, 0.5]))
    mean, cc = condition_gaussian(g)
    np.testing.assert_allclose(mean, [0.5], rtol=1e-12)
    np.testing.assert_allclose(cc, [[1.0]], rtol=1e-12)


def test_indefinite_matrix_raises():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericalConditioningError):
        cholesky_with_jitter(indefinite)
    cov = np.eye(3)
    cov[1:, 1:] = indefinite
    with pytest.raises(NumericalConditioningError):
        condition_gaussian(GaussianConditioner(np.zeros(3), cov, np.array([1, 2]),
                                               np.zeros(2)))


def _outcome_within(call, seconds=10.0):
    """The value or exception of call(), which must finish within the time limit."""
    box = []

    def run():
        try:
            box.append(call())
        except Exception as exc:  # handed back to the test
            box.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "call did not finish"
    return box[0]


def test_jitter_without_a_positive_trace_fails_at_once():
    # jitter scales with the trace: a zero trace once left the doubling loop
    # spinning forever
    out = _outcome_within(lambda: cholesky_with_jitter(np.zeros((2, 2))))
    assert isinstance(out, NumericalConditioningError)
    # observing the t = 0 node of a Brownian motion: a zero-variance observed block
    t = np.array([0.0, 0.5, 1.0])
    g = GaussianConditioner(np.zeros(3), np.minimum(t[:, None], t[None, :]),
                            np.array([0]), np.array([0.0]))
    assert isinstance(_outcome_within(lambda: condition_gaussian(g)),
                      NumericalConditioningError)


# -- covariance blocks ----------------------------------------------------------------

def test_terminal_cov_structure():
    m = zero_model(0.5, 0.4)
    np.testing.assert_allclose(terminal_cov(m), [[1.0, 0.4], [0.4, 1.0]])
    m = zero_model(0.75, 0.7, T=0.8)
    cov = terminal_cov(m)
    assert cov[0, 0] == pytest.approx(0.8)
    assert cov[1, 1] == pytest.approx(0.8 ** 1.5)
    assert cov[0, 1] == pytest.approx(0.7 * Hurst(0.75).kappa_H * 0.8 ** 1.25)
    det = np.linalg.det(cov)
    assert det == pytest.approx(0.8 ** (2 * 0.75 + 1) * m.rho_bar_H_sq, rel=1e-12)


def test_cov_blocks_brownian():
    m = zero_model(0.5, 0.3)
    grid = TimeGrid(1.0, 4)
    blocks = cov_blocks(m, grid)
    for i, t in enumerate(grid.nodes):
        np.testing.assert_allclose(blocks.sigma_tT[i],
                                   [[t, 0.3 * t], [0.3 * t, t]], atol=1e-12)


def test_cov_blocks_terminal_consistency():
    m = zero_model(0.75, 0.7)
    grid = TimeGrid(1.0, 8)
    blocks = cov_blocks(m, grid)
    np.testing.assert_allclose(blocks.sigma_tT[-1], blocks.sigma_T, rtol=1e-9)


def test_cov_blocks_grid_mismatch():
    m = zero_model(0.3, 0.0, T=1.0)
    with pytest.raises(ValueError):
        cov_blocks(m, TimeGrid(2.0, 8))


# -- modal path ------------------------------------------------------------------------

def test_straight_line_at_half():
    grid = TimeGrid(1.0, 100)
    for rho in (-0.9, 0.0, 0.7):
        mp = modal_path(zero_model(0.5, rho), grid, (1.0, 1.0))
        assert np.max(np.abs(mp.x_path - grid.nodes)) <= 1e-12
        assert np.max(np.abs(mp.y_path - grid.nodes)) <= 1e-12


def test_decoupling_at_rho_zero():
    grid = TimeGrid(1.0, 64)
    for H in (0.1, 0.3, 0.75):
        m11, m12, m21, m22 = modal_coeffs(zero_model(H, 0.0), grid)
        assert np.all(m12 == 0.0) and np.all(m21 == 0.0)
        np.testing.assert_allclose(m11, grid.nodes, atol=1e-14)
        np.testing.assert_allclose(
            m22, autocovariance(grid.nodes, 1.0, Hurst(H)), atol=1e-14)


def test_endpoint_pinning():
    grid = TimeGrid(1.0, 128)
    for H in (0.01, 0.25, 0.49, 0.75):
        for rho in (0.0, 0.7, -0.7, -0.9):
            mp = modal_path(zero_model(H, rho, x0=0.2, y0=-0.1), grid, (1.3, 0.9))
            assert abs(mp.x_path[0] - 0.2) <= 1e-12
            assert abs(mp.y_path[0] + 0.1) <= 1e-12
            assert abs(mp.x_path[-1] - 1.3) <= 1e-10
            assert abs(mp.y_path[-1] - 0.9) <= 1e-10
            assert abs(mp.m11[-1] - 1.0) <= 1e-10
            assert abs(mp.m12[-1]) <= 1e-10
            assert abs(mp.m21[-1]) <= 1e-10
            assert abs(mp.m22[-1] - 1.0) <= 1e-10


def test_midpoint_jump_small_H():
    grid = TimeGrid(1.0, 400)
    mp = modal_path(zero_model(0.01, 0.0), grid, (1.0, 1.0))
    y05 = float(np.interp(0.05, grid.nodes, mp.y_path))
    assert 0.45 < y05 < 0.55


def test_modal_path_matches_full_conditioning():
    # condition the 2(n+1)-node driftless pair on its terminal point; the
    # conditional means must equal the modal path node-wise
    H, rho, T = 0.35, 0.6, 0.8
    m = zero_model(H, rho, T=T, x0=0.3, y0=-0.2)
    n = 16
    grid = TimeGrid(T, n)
    t = grid.nodes[1:]
    hurst = Hurst(H)
    cov = np.empty((2 * n, 2 * n))
    cov[:n, :n] = np.minimum(t[:, None], t[None, :])
    cov[n:, n:] = autocovariance(t[:, None], t[None, :], hurst)
    cross = np.empty((n, n))
    for j in range(n):
        cross[:, j] = rho * kernel_partial_integral(np.minimum(t, t[j]), t[j], hurst)
    cov[:n, n:] = cross
    cov[n:, :n] = cross.T
    mean = np.concatenate([np.full(n, m.x0), np.full(n, m.y0)])
    endpoint = (0.9, 0.1)
    g = GaussianConditioner(mean, cov, np.array([n - 1, 2 * n - 1]),
                            np.array(endpoint))
    cond_mean, _ = condition_gaussian(g)
    mp = modal_path(m, grid, endpoint)
    np.testing.assert_allclose(cond_mean[:n - 1], mp.x_path[1:-1], atol=1e-8)
    np.testing.assert_allclose(cond_mean[n - 1:], mp.y_path[1:-1], atol=1e-8)


def test_modal_coeff_increment_bounds():
    # Hoelder-type increment bounds on the bridge coefficients
    T = 1.0
    grid = TimeGrid(T, 256)
    rng = np.random.default_rng(10)
    for H in (0.6, 0.75):
        m = zero_model(H, 0.5, T=T)
        m11, m12, m21, m22 = modal_coeffs(m, grid)
        t = grid.nodes
        idx = rng.integers(0, len(t), size=(40, 2))
        for i, j in idx:
            if i == j:
                continue
            i, j = min(i, j), max(i, j)
            dt_pow = math.sqrt(abs(t[j] - t[i]))
            c = 40.0 / m.rho_bar_H_sq
            assert abs(m11[j] - m11[i]) <= c * dt_pow / math.sqrt(T)
            assert abs(m12[j] - m12[i]) <= c * dt_pow / T ** H
            assert abs(m21[j] - m21[i]) <= c * dt_pow / math.sqrt(T)
            assert abs(m22[j] - m22[i]) <= c * abs(t[j] - t[i]) ** H / T ** H


def test_cached_modal_coeffs_are_read_only():
    grid = TimeGrid(1.0, 32)
    for H, rho in ((0.5, 0.3), (0.3, 0.0), (0.3, 0.4)):
        first = modal_coeffs(zero_model(H, rho), grid)
        for c in first:
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[1] = 1.0
        again = modal_coeffs(zero_model(H, rho), grid)
        assert all(a is b for a, b in zip(first, again))


def test_modal_coeff_cache_keys_on_rho_and_horizon():
    base = modal_coeffs(zero_model(0.3, 0.4, T=1.0), TimeGrid(1.0, 32))
    other_rho = modal_coeffs(zero_model(0.3, 0.5, T=1.0), TimeGrid(1.0, 32))
    other_T = modal_coeffs(zero_model(0.3, 0.4, T=2.0), TimeGrid(2.0, 32))
    for coeffs in (other_rho, other_T):
        assert any(not np.array_equal(a, b) for a, b in zip(base, coeffs))
    # m12 scales with T^(1/2 - H) at fixed t/T, so a T-blind cache would fail here
    np.testing.assert_allclose(other_T[1], base[1] * 2.0 ** (0.5 - 0.3), rtol=1e-12, atol=1e-14)
