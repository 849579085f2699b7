import math

import numpy as np
import pytest

from modalbridge.bridge import GaussianConditioner, condition_gaussian
from modalbridge.density import exact_timeonly_density, gaussian_prefactor
from modalbridge.driftspec import ModelSpec, parse_drift
from modalbridge.kernel import Hurst, NumericalConditioningError, TimeGrid
from modalbridge.mc import (BinEstimator, DensityEstimate, KdeEstimator, PathEnsemble,
                            SimConfig, _BridgeLevel, _worker_count, bridge_mc_density,
                            estimate_density_at, simulate_forward,
                            volterra_weight_matrix)

ZERO = parse_drift("0")


def zero_model(H, rho, T=1.0):
    return ModelSpec(Hurst(H), rho, 0.0, 0.0, T, ZERO, ZERO)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_paths=0, n_steps=8, seed=1)
    with pytest.raises(ValueError):
        SimConfig(n_paths=10, n_steps=1, seed=1)
    with pytest.raises(ValueError):
        SimConfig(n_paths=10 ** 9, n_steps=1000, seed=1)
    cfg = SimConfig(n_paths=10, n_steps=8, seed=1, chunk_size=4)
    assert cfg.chunks() == [(0, 4), (1, 4), (2, 2)]


def test_density_estimate_rejects_nan():
    with pytest.raises(ValueError):
        DensityEstimate(float("nan"), 0.1, 10)
    with pytest.raises(ValueError):
        DensityEstimate(0.1, float("nan"), 10)


def test_worker_count_warns_on_invalid_env(monkeypatch):
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("MODALBRIDGE_THREADS", bad)
        with pytest.warns(RuntimeWarning, match="MODALBRIDGE_THREADS"):
            assert _worker_count(None) == 1
    monkeypatch.setenv("MODALBRIDGE_THREADS", "3")
    assert _worker_count(None) == 3
    assert _worker_count(2) == 2


def test_estimator_validation():
    with pytest.raises(ValueError):
        BinEstimator(0.0, 0.1)
    with pytest.raises(ValueError):
        KdeEstimator(0.1, -0.1)


def test_forward_determinism_and_worker_invariance():
    m = zero_model(0.3, 0.4, T=0.5)
    cfg = SimConfig(n_paths=4000, n_steps=16, seed=13, chunk_size=512)
    a = simulate_forward(m, cfg)
    b = simulate_forward(m, cfg)
    c = simulate_forward(m, cfg, workers=4)
    assert np.array_equal(a.terminal_x, b.terminal_x)
    assert np.array_equal(a.terminal_y, b.terminal_y)
    assert np.array_equal(a.terminal_x, c.terminal_x)
    assert np.array_equal(a.terminal_y, c.terminal_y)


def test_forward_time_major_loop_matches_column_reference():
    # the Euler arithmetic is unchanged by the time-major layout: compare the
    # kept paths bit for bit with a column-wise loop over the same chunk's draws
    from modalbridge.driftspec import eval_drift
    from modalbridge.kernel import cholesky_with_jitter, draw_joint_paths, joint_cov_matrix
    from modalbridge.mc import _chunk_rng

    for H in (0.3, 0.5):
        m = ModelSpec(Hurst(H), 0.3, 0.1, -0.2, 0.25, parse_drift("0.5*sin(x) + y"),
                      parse_drift("cos(y) - x"))
        n, count = 16, 300
        grid = TimeGrid(m.T, n)
        ens = simulate_forward(m, SimConfig(n_paths=count, n_steps=n, seed=8),
                               keep_paths=True, warn_horizon=False)
        chol = None if H == 0.5 else cholesky_with_jitter(joint_cov_matrix(grid, m.hurst))
        rng = _chunk_rng(8, 0)
        b, bh = draw_joint_paths(grid, m.hurst, rng, count, chol=chol)
        dw = math.sqrt(grid.dt) * rng.standard_normal((count, n))
        x, y = np.full((count, n + 1), m.x0), np.full((count, n + 1), m.y0)
        drift2 = np.zeros(count)
        for i in range(n):
            t = grid.nodes[i]
            x[:, i + 1] = (x[:, i] + m.rho * (b[:, i + 1] - b[:, i]) + m.rho_bar * dw[:, i]
                           + eval_drift(m.h1, t, x[:, i], y[:, i]) * grid.dt)
            drift2 = drift2 + eval_drift(m.h2, t, x[:, i], y[:, i]) * grid.dt
            y[:, i + 1] = m.y0 + bh[:, i + 1] + drift2
        assert np.array_equal(ens.full_paths[0], x) and np.array_equal(ens.full_paths[1], y)
        assert np.array_equal(ens.terminal_x, x[:, -1])


def test_forward_brownian_covariance():
    T, rho = 1.0, 0.6
    m = zero_model(0.5, rho, T=T)
    n_paths = 100_000
    ens = simulate_forward(m, SimConfig(n_paths=n_paths, n_steps=16, seed=2))
    cov = np.cov(ens.terminal_x, ens.terminal_y)
    se = 3.0 * T * math.sqrt(2.0 / n_paths)
    assert abs(cov[0, 0] - T) <= se
    assert abs(cov[1, 1] - T) <= se
    assert abs(cov[0, 1] - rho * T) <= se


def test_forward_terminal_moments_rough():
    T, H, rho = 0.7, 0.3, 0.5
    m = zero_model(H, rho, T=T)
    n_paths = 100_000
    ens = simulate_forward(m, SimConfig(n_paths=n_paths, n_steps=32, seed=4))
    var_y = ens.terminal_y.var()
    cov_xy = np.cov(ens.terminal_x, ens.terminal_y)[0, 1]
    target_vy = T ** (2 * H)
    target_cxy = rho * Hurst(H).kappa_H * T ** (H + 0.5)
    assert abs(var_y - target_vy) <= 3.0 * target_vy * math.sqrt(2.0 / n_paths)
    assert abs(cov_xy - target_cxy) <= 4.0 * target_vy * math.sqrt(2.0 / n_paths)


def test_forward_constant_drift_means():
    mu, nu, T = 0.4, -0.3, 0.5
    m = ModelSpec(Hurst(0.4), 0.2, 1.0, -1.0, T,
                  parse_drift(f"{mu}"), parse_drift(f"{nu}"))
    n_paths = 50_000
    ens = simulate_forward(m, SimConfig(n_paths=n_paths, n_steps=32, seed=6))
    se_x = ens.terminal_x.std(ddof=1) / math.sqrt(n_paths)
    se_y = ens.terminal_y.std(ddof=1) / math.sqrt(n_paths)
    assert abs(ens.terminal_x.mean() - (1.0 + mu * T)) <= 3.0 * se_x
    assert abs(ens.terminal_y.mean() - (-1.0 + nu * T)) <= 3.0 * se_y


def test_forward_keep_paths_shapes():
    m = zero_model(0.5, 0.0, T=0.25)
    ens = simulate_forward(m, SimConfig(n_paths=50, n_steps=8, seed=1),
                           keep_paths=True)
    xs, ys = ens.full_paths
    assert xs.shape == (50, 9) and ys.shape == (50, 9)
    np.testing.assert_allclose(xs[:, -1], ens.terminal_x)


# -- density estimators --------------------------------------------------------------

def test_bin_estimator_point_mass():
    ens = PathEnsemble(terminal_x=np.zeros(100), terminal_y=np.zeros(100),
                       seed=0, model_fingerprint="")
    est = estimate_density_at(ens, (0.0, 0.0), BinEstimator(0.2, 0.5))
    assert est.value == pytest.approx(1.0 / 0.1)
    assert est.std_err == 0.0


def test_bin_estimator_zero_hits_upper_bound():
    ens = PathEnsemble(terminal_x=np.zeros(100), terminal_y=np.zeros(100),
                       seed=0, model_fingerprint="")
    est = estimate_density_at(ens, (10.0, 10.0), BinEstimator(0.2, 0.5))
    assert est.value == 0.0
    assert est.std_err == pytest.approx(1.0 / (100 * 0.1))


def test_bin_std_err_decreases_with_width():
    rng = np.random.default_rng(0)
    ens = PathEnsemble(terminal_x=rng.standard_normal(20000),
                       terminal_y=rng.standard_normal(20000),
                       seed=0, model_fingerprint="")
    widths = (0.1, 0.2, 0.4, 0.8)
    errs = [estimate_density_at(ens, (0.0, 0.0), BinEstimator(w, w)).std_err
            for w in widths]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_kde_estimator_standard_normal_peak():
    m = zero_model(0.5, 0.0, T=1.0)
    ens = simulate_forward(m, SimConfig(n_paths=200_000, n_steps=8, seed=9))
    est = estimate_density_at(ens, (0.0, 0.0), KdeEstimator(0.05, 0.05))
    peak = 1.0 / (2 * math.pi)
    assert abs(est.value - peak) <= 3.0 * est.std_err + 0.01 * peak


def test_drift_free_forward_agreement_endpoint_grid():
    # drift-free estimates match the prefactor on a grid of 5 endpoints
    T, H = 0.2, 0.4
    m = zero_model(H, 0.3, T=T)
    ens = simulate_forward(m, SimConfig(n_paths=150_000, n_steps=64, seed=12))
    sx, sy = math.sqrt(T), T ** H
    points = [(0.0, 0.0), (sx, 0.0), (0.0, sy), (-0.7 * sx, 0.7 * sy), (sx, -sy)]
    for point in points:
        est = estimate_density_at(ens, point, BinEstimator(0.1 * sx, 0.1 * sy))
        phi = gaussian_prefactor(point[0], point[1], m)
        assert abs(est.value - phi) <= 3.0 * est.std_err + 0.05 * phi


def test_estimate_density_validation():
    ens = PathEnsemble(terminal_x=np.zeros(1), terminal_y=np.zeros(1),
                       seed=0, model_fingerprint="")
    with pytest.raises(TypeError):
        estimate_density_at(ens, (0, 0), object())


# -- volterra weights ------------------------------------------------------------------

def test_volterra_weights_brownian_is_lower_triangular_ones():
    grid = TimeGrid(1.0, 8)
    w = volterra_weight_matrix(grid, Hurst(0.5))
    np.testing.assert_allclose(w, np.tril(np.ones((8, 8))))


def test_volterra_weights_reproduce_variance():
    # row sums against the exact total integrals, variances within tolerance
    H = 0.3
    grid = TimeGrid(1.0, 64)
    hurst = Hurst(H)
    w = volterra_weight_matrix(grid, hurst)
    dt = grid.dt
    var_direct = (w ** 2).sum(axis=1) * dt
    exact = grid.nodes[1:] ** (2 * H)
    assert np.max(np.abs(var_direct - exact) / exact) < 0.05
    # and cross covariance with B at the terminal node is matched exactly
    from modalbridge.kernel import kernel_partial_integral
    cross = w[-1].cumsum() * dt
    expect = np.array([kernel_partial_integral(t, 1.0, hurst)
                       for t in grid.nodes[1:]])
    np.testing.assert_allclose(cross, expect, rtol=1e-9, atol=1e-12)


# -- bridge estimator ---------------------------------------------------------------------

def test_bridge_zero_drift_is_exact_prefactor():
    m = zero_model(0.3, 0.5, T=0.5)
    endpoint = (0.2, -0.1)
    est = bridge_mc_density(m, endpoint, SimConfig(n_paths=500, n_steps=16, seed=3))
    assert est.value == pytest.approx(
        gaussian_prefactor(endpoint[0], endpoint[1], m), rel=1e-13)
    assert est.std_err == pytest.approx(0.0, abs=1e-13)


def test_bridge_timeonly_matches_exact():
    for H, rho in ((0.5, 0.0), (0.5, 0.7), (0.3, 0.4)):
        m = ModelSpec(Hurst(H), rho, 0.1, -0.3, 0.5,
                      parse_drift("0.2"), parse_drift("-0.1"))
        endpoint = (0.4, -0.6)
        est = bridge_mc_density(m, endpoint,
                                SimConfig(n_paths=20_000, n_steps=64, seed=15))
        exact = exact_timeonly_density(m, endpoint)
        assert abs(est.value - exact) <= 2.0 * (est.std_err + est.discretization_bias) \
            + 1e-10 * exact


def test_bridge_linear_drifts_vs_forward(tmp_path):
    # Example-4-style linear system with H > 1/2; forward MC as oracle
    m = ModelSpec(Hurst(0.7), 0.4, 0.0, 0.0, 0.25,
                  parse_drift("0.3*x + 0.1"), parse_drift("t*y - 0.2"),
                  holder_gamma=0.3)
    endpoint = (0.15, -0.2)
    bridge = bridge_mc_density(m, endpoint,
                               SimConfig(n_paths=40_000, n_steps=128, seed=18))
    ens = simulate_forward(m, SimConfig(n_paths=400_000, n_steps=128, seed=20))
    sx = math.sqrt(m.T)
    sy = m.T ** m.H
    forward = estimate_density_at(ens, endpoint,
                                  KdeEstimator(0.06 * sx, 0.06 * sy))
    allow = 3.0 * (bridge.std_err + bridge.discretization_bias + forward.std_err) \
        + 0.03 * forward.value
    assert abs(bridge.value - forward.value) <= allow


def test_bridge_general_rough_drifts_vs_forward():
    # state-dependent drifts with H < 1/2: the exact-density estimator must
    # agree with plain forward simulation (the approximation p_hat need not)
    m = ModelSpec(Hurst(0.4), 0.3, 0.0, 0.0, 0.25,
                  parse_drift("0.3*sin(x)"), parse_drift("0.3*cos(y)"))
    endpoint = (0.2, 0.15)
    bridge = bridge_mc_density(m, endpoint,
                               SimConfig(n_paths=40_000, n_steps=128, seed=77))
    ens = simulate_forward(m, SimConfig(n_paths=400_000, n_steps=128, seed=78),
                           warn_horizon=False)
    sx, sy = math.sqrt(m.T), m.T ** m.H
    forward = estimate_density_at(ens, endpoint,
                                  KdeEstimator(0.06 * sx, 0.06 * sy))
    allow = 3.0 * (bridge.std_err + bridge.discretization_bias + forward.std_err) \
        + 0.03 * forward.value
    assert abs(bridge.value - forward.value) <= allow


def test_bridge_transformed_drift_solves_defining_system():
    # along reconstructed bridge paths, the transformed integrand must map
    # back through the kernel transform to the running integral of the drift
    from modalbridge.fraccalc import GridFunction, apply_KH
    from modalbridge.mc import _BridgeLevel, _inverse_operator_matrix
    import numpy.random as npr

    m = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 0.5,
                  parse_drift("0.5*x + 0.2"), parse_drift("0.4*y - 0.1"))
    n = 256
    level = _BridgeLevel(m, n)
    grid = level.grid
    t = grid.nodes
    w = level.w_full
    inv_op = _inverse_operator_matrix(grid, m.hurst)
    rng = np.random.Generator(npr.Philox(key=42))
    incr = math.sqrt(grid.dt) * rng.standard_normal((4, 2 * n))
    level.condition(incr, np.array([0.3, -0.2]))
    db, dw = incr[:, :n], incr[:, n:]
    x = np.empty((4, n + 1))
    x[:, 0] = m.x0
    x[:, 1:] = m.x0 + np.cumsum(m.rho * db + m.rho_bar * dw, axis=1)
    y = np.empty((4, n + 1))
    y[:, 0] = m.y0
    y[:, 1:] = m.y0 + db @ w.T
    from modalbridge.driftspec import eval_drift
    tt = np.broadcast_to(t, (4, n + 1))
    g2 = np.asarray(eval_drift(m.h2, tt, x, y))
    h2_tilde = g2 @ inv_op.T
    lo = int(0.05 * n)
    for p in range(4):
        # terminal pinning of the reconstruction
        assert x[p, -1] == pytest.approx(0.3, abs=1e-8)
        assert y[p, -1] == pytest.approx(-0.2, abs=1e-8)
        image = apply_KH(GridFunction(grid, h2_tilde[p]), m.hurst).values
        running = np.concatenate([[0.0], np.cumsum(
            (g2[p, 1:] + g2[p, :-1]) * 0.5) * grid.dt])
        scale = np.max(np.abs(running)) + 1e-12
        assert np.max(np.abs(image[lo:] - running[lo:])) / scale < 2e-2


def test_bridge_determinism_and_worker_invariance():
    m = zero_model(0.35, 0.2, T=0.5)
    cfg = SimConfig(n_paths=3000, n_steps=16, seed=5, chunk_size=640)
    a = bridge_mc_density(m, (0.1, 0.2), cfg)
    b = bridge_mc_density(m, (0.1, 0.2), cfg, workers=3)
    assert a.value == b.value and a.std_err == b.std_err


def test_bridge_halving_bias_sanity():
    # for a linear system, halving the step should move the estimate by less
    # than the reported bias estimate in most seeds
    m = ModelSpec(Hurst(0.6), 0.3, 0.0, 0.0, 0.25,
                  parse_drift("0.5*x"), parse_drift("0.3*y"), holder_gamma=0.35)
    endpoint = (0.1, 0.1)
    hits = 0
    total = 5
    for seed in range(total):
        full = bridge_mc_density(m, endpoint,
                                 SimConfig(n_paths=8000, n_steps=64, seed=seed))
        half = bridge_mc_density(m, endpoint,
                                 SimConfig(n_paths=8000, n_steps=32, seed=seed))
        if abs(full.value - half.value) <= full.discretization_bias \
                + half.discretization_bias + 3.0 * (full.std_err + half.std_err):
            hits += 1
    assert hits >= 4


def _dense_bridge_oracle(m, grid, w_last, v):
    """Conditional law of the 2n increments from the dense (2n+2)-dim Gaussian."""
    n, dt = grid.n, grid.dt
    ix, iy = 2 * n, 2 * n + 1
    cov = np.zeros((2 * n + 2, 2 * n + 2))
    cov[:2 * n, :2 * n] = dt * np.eye(2 * n)
    cov[:n, ix] = cov[ix, :n] = m.rho * dt
    cov[n:2 * n, ix] = cov[ix, n:2 * n] = m.rho_bar * dt
    cov[:n, iy] = cov[iy, :n] = w_last * dt
    cov[ix, ix] = m.T
    cov[ix, iy] = cov[iy, ix] = m.rho * float(w_last.sum()) * dt
    cov[iy, iy] = float((w_last ** 2).sum()) * dt
    return condition_gaussian(GaussianConditioner(np.zeros(2 * n + 2), cov,
                                                  np.array([ix, iy]), v))


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_bridge_pathwise_conditioning_matches_dense_oracle(H):
    # no sampling: the in-place rank-2 correction is affine, so its mean is the
    # image of the zero draw and its covariance that of sqrt(dt) * identity rows
    m = ModelSpec(Hurst(H), 0.4, 0.1, -0.2, 0.5, ZERO, ZERO)
    n = 32
    level = _BridgeLevel(m, n)
    grid = level.grid
    v = np.array([0.3, -0.25])
    mean = np.zeros((1, 2 * n))
    level.condition(mean, v)
    rows = math.sqrt(grid.dt) * np.eye(2 * n)
    level.condition(rows, np.zeros(2))
    cond_mean, cond_cov = _dense_bridge_oracle(m, grid, level.w_full[-1], v)
    np.testing.assert_allclose(mean[0], cond_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rows.T @ rows, cond_cov, rtol=0, atol=1e-12)
    # the closed forms a^T G^-1 v and dt (I - a^T G^-1 a)
    a, g_inv = level.a, level.g_inv
    np.testing.assert_allclose(a.T @ g_inv @ v, cond_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grid.dt * (np.eye(2 * n) - a.T @ g_inv @ a), cond_cov,
                               rtol=0, atol=1e-12)


def test_bridge_odd_steps_worker_invariance():
    # n = 15: the half grid has 7 steps and the last normal of each block is unpaired
    m = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 0.5,
                  parse_drift("0.5*sin(x)"), parse_drift("0.3*cos(y)"))
    cfg = SimConfig(n_paths=3000, n_steps=15, seed=21, chunk_size=700)
    a = bridge_mc_density(m, (0.1, 0.2), cfg)
    for workers in (1, 2, 4):
        b = bridge_mc_density(m, (0.1, 0.2), cfg, workers=workers)
        assert (b.value, b.std_err, b.discretization_bias) == \
            (a.value, a.std_err, a.discretization_bias)
    assert a.value > 0 and math.isfinite(a.discretization_bias)
    assert abs(a.value - gaussian_prefactor(0.1, 0.2, m)) < 0.5 * a.value
    with pytest.raises(ValueError, match="half grid"):  # n = 3 has no 2-step half grid
        bridge_mc_density(m, (0.1, 0.2), SimConfig(n_paths=10, n_steps=3, seed=21))


@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
@pytest.mark.parametrize("n_steps", [4, 5])
def test_bridge_with_two_step_half_grid_matches_column_loop_operator(n_steps, monkeypatch):
    # the half grid has n = 2 steps, the smallest the H < 1/2 operator takes;
    # the reference operator is built column by column through invert_KH
    from modalbridge import mc
    from modalbridge.fraccalc import GridFunction, invert_KH

    def column_loop(grid, hurst):
        h0 = GridFunction(grid, np.zeros(grid.n + 1))
        return np.column_stack([invert_KH(h0, hurst, integrand=e).values
                                for e in np.eye(grid.n + 1)])

    m = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 0.5,
                  parse_drift("0.5*sin(x)"), parse_drift("0.3*cos(y)"))
    cfg = SimConfig(n_paths=2000, n_steps=n_steps, seed=8)
    a = bridge_mc_density(m, (0.1, 0.2), cfg)
    assert a.value > 0 and math.isfinite(a.discretization_bias)
    monkeypatch.setattr(mc, "_inverse_operator_matrix", column_loop)
    b = bridge_mc_density(m, (0.1, 0.2), cfg)
    assert b.value == pytest.approx(a.value, rel=1e-12)
    assert b.discretization_bias == pytest.approx(a.discretization_bias, rel=1e-9, abs=1e-15)


def test_bridge_overflow_raises_instead_of_nan():
    m = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 1.0, parse_drift("60"), ZERO)
    with pytest.raises(NumericalConditioningError):
        bridge_mc_density(m, (60.0, 0.0), SimConfig(n_paths=2000, n_steps=32, seed=0))
