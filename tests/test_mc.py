import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from modalbridge.bridge import GaussianConditioner, condition_gaussian
from modalbridge.density import exact_timeonly_density, gaussian_prefactor
from modalbridge.driftspec import ModelSpec, parse_drift
from modalbridge.kernel import Hurst, NumericalConditioningError, TimeGrid
from modalbridge import mc
from modalbridge.mc import (BinEstimator, DensityEstimate, KdeEstimator, PathEnsemble,
                            SimConfig, _BridgeLevel, _run_blocks, _worker_count,
                            bridge_mc_density, estimate_density_at, simulate_forward,
                            volterra_weight_matrix)
from modalbridge.opcache import OperatorCache

ZERO = parse_drift("0")


def zero_model(H, rho, T=1.0):
    return ModelSpec(Hurst(H), rho, 0.0, 0.0, T, ZERO, ZERO)


def _state_model(H):
    return ModelSpec(Hurst(H), 0.3, 0.1, -0.2, 0.25, parse_drift("0.5*sin(x) + y"),
                     parse_drift("cos(y) - x"))


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


def test_worker_count_defaults_to_usable_cores(monkeypatch):
    monkeypatch.delenv("MODALBRIDGE_THREADS", raising=False)
    assert _worker_count(None) == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _worker_count(None) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(None) == 1


def test_block_runner_keeps_order_and_bounds_blocks_in_flight(monkeypatch):
    # 5 chunks of 8192 paths, each 4 blocks of 2048; slow kernels let the
    # calling thread run ahead as far as the bound allows
    cfg = SimConfig(n_paths=5 * 8192, n_steps=2, seed=0, chunk_size=8192)
    block_rng = mc._block_rng
    for workers in (1, 2, 3):
        submitted, finished, ahead = [0], [0], []

        def counting_rng(seed, k, b):
            submitted[0] += 1
            ahead.append(submitted[0] - finished[0])
            return block_rng(seed, k, b)

        def kernel(k, rng, rows):
            time.sleep(0.002)
            finished[0] += 1
            return k, rng.standard_normal(), rows

        monkeypatch.setattr(mc, "_block_rng", counting_rng)
        out = _run_blocks(cfg, kernel, workers)
        assert [[(k, r) for k, _, r in chunk] for chunk in out] == [[(k, 2048)] * 4
                                                                    for k in range(5)]
        # block b of chunk k draws from the stream keyed seed XOR k, jumped b times
        assert [[z for _, z, _ in chunk] for chunk in out] == [
            [np.random.Generator(np.random.Philox(key=k).jumped(b)).standard_normal()
             for b in range(4)] for k in range(5)]
        assert max(ahead) <= 2 * workers + 1


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


def _node_noise(m, grid, normals):
    """Node noise [X | Y] per path from each block's (rows, 2n) normals: one
    time-major product per block with the Cholesky factor of the covariance of
    (rho B + rho_bar W, B^H), the joint (B, B^H) covariance with both cross
    blocks scaled by rho; on one OpenBLAS thread, as simulate_forward runs."""
    from modalbridge.kernel import joint_cov_matrix

    n = grid.n
    cov = joint_cov_matrix(grid, m.hurst)
    cov[:n, n:] *= m.rho
    cov[n:, :n] *= m.rho
    with mc._one_blas_thread():
        factor = np.linalg.cholesky(cov)
        return np.concatenate([(factor @ z.T).T for z in normals])


def _column_euler(m, grid, noise):
    """Kept (x, y) paths of a column-wise Euler loop over node noise rows
    [X noise | Y noise], each path's row of shape (2n,)."""
    from modalbridge.driftspec import eval_drift

    n, count = grid.n, len(noise)
    x, y = np.full((count, n + 1), m.x0), np.full((count, n + 1), m.y0)
    drift1, drift2 = np.zeros(count), np.zeros(count)
    for i in range(n):
        t = grid.nodes[i]
        drift1 = drift1 + eval_drift(m.h1, t, x[:, i], y[:, i]) * grid.dt
        drift2 = drift2 + eval_drift(m.h2, t, x[:, i], y[:, i]) * grid.dt
        x[:, i + 1] = (noise[:, i] + m.x0) + drift1
        y[:, i + 1] = (noise[:, n + i] + m.y0) + drift2
    return x, y


def test_forward_time_major_loop_matches_column_reference():
    # the Euler arithmetic is unchanged by the time-major layout: compare the
    # terminal points bit for bit with a column-wise loop over the same chunk's draws
    for H in (0.3, 0.5):
        m = _state_model(H)
        n, count = 16, 300
        grid = TimeGrid(m.T, n)
        ens = simulate_forward(m, SimConfig(n_paths=count, n_steps=n, seed=8),
                               warn_horizon=False)
        rng = mc._block_rng(8, 0, 0)
        noise = _node_noise(m, grid, [rng.standard_normal((count, 2 * n))])
        x, y = _column_euler(m, grid, noise)
        assert np.array_equal(ens.terminal_x, x[:, -1])
        assert np.array_equal(ens.terminal_y, y[:, -1])


@pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
def test_forward_factor_reproduces_the_noise_covariance(H):
    # F F^T is the covariance of (rho B + rho_bar W, B^H) at the nodes: Brownian
    # min(s, t), rho times the (B, B^H) cross block, and the fBm block
    from modalbridge.kernel import autocovariance, kernel_partial_integral

    grid = TimeGrid(0.7, 48)
    t = grid.nodes[1:]
    cross = np.column_stack([kernel_partial_integral(np.minimum(t, u), u, Hurst(H)) for u in t])
    for rho in (0.0, 0.4, -0.9):
        m = ModelSpec(Hurst(H), rho, 0.0, 0.0, grid.T, ZERO, ZERO)
        exact = np.block([[np.minimum(t[:, None], t[None, :]), rho * cross],
                          [rho * cross.T, autocovariance(t[:, None], t[None, :], m.hurst)]])
        f = mc._forward_factor(grid, m)
        assert not f.flags.writeable and mc._forward_factor(grid, m) is f
        assert np.max(np.abs(f @ f.T - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
def test_forward_zero_drift_terminal_law(H):
    # without drift, (X_T, Y_T) - (x0, y0) is Gaussian with variances T and
    # T^2H and covariance rho kappa_H T^(H+1/2); means and covariances of the
    # sample lie within 4 standard errors of these
    T, rho, count = 0.6, -0.45, 200_000
    m = ModelSpec(Hurst(H), rho, 0.3, -0.2, T, ZERO, ZERO)
    ens = simulate_forward(m, SimConfig(n_paths=count, n_steps=24, seed=31))
    vx, vy = T, T ** (2 * H)
    cxy = rho * m.hurst.kappa_H * T ** (H + 0.5)
    assert abs(ens.terminal_x.mean() - 0.3) <= 4.0 * math.sqrt(vx / count)
    assert abs(ens.terminal_y.mean() + 0.2) <= 4.0 * math.sqrt(vy / count)
    cov = np.cov(ens.terminal_x, ens.terminal_y)
    assert abs(cov[0, 0] - vx) <= 4.0 * vx * math.sqrt(2.0 / count)
    assert abs(cov[1, 1] - vy) <= 4.0 * vy * math.sqrt(2.0 / count)
    assert abs(cov[0, 1] - cxy) <= 4.0 * math.sqrt((vx * vy + cxy * cxy) / count)


def _substreams(seed, k, count):
    """(generator, rows) per row block of chunk k: blocks of 2048 rows, the last
    taking the remainder, and block b on the Philox stream keyed seed XOR k
    jumped b times."""
    full, rem = divmod(count, 2048)
    rows = [count] if full == 0 else [2048] * (full - 1) + [2048 + rem]
    return [(np.random.Generator(np.random.Philox(key=(seed ^ k) % 2 ** 64).jumped(b)), r)
            for b, r in enumerate(rows)]


def _single_stream(seed, k, count):
    """The whole chunk drawn at once from the stream keyed seed XOR k."""
    return [(np.random.Generator(np.random.Philox(key=(seed ^ k) % 2 ** 64)), count)]


def _whole_chunk_forward(m, cfg, streams):
    """simulate_forward's (x, y) paths: each chunk's block noise stacked, then one column loop."""
    n = cfg.n_steps
    grid = TimeGrid(m.T, n)
    xs, ys = [], []
    for k, count in cfg.chunks():
        noise = _node_noise(m, grid, [rng.standard_normal((r, 2 * n))
                                      for rng, r in streams(cfg.seed, k, count)])
        x, y = _column_euler(m, grid, noise)
        xs.append(x)
        ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


def _whole_chunk_bridge(m, endpoint, cfg, streams):
    """bridge_mc_density's (value, std_err, bias): each chunk's draws stacked, one pass."""
    n, nc = cfg.n_steps, cfg.n_steps // 2
    fine, coarse = _BridgeLevel(m, n), _BridgeLevel(m, nc)
    v = np.array([endpoint[0] - m.x0, endpoint[1] - m.y0])
    s = s2 = sc = 0
    for k, count in cfg.chunks():
        incr = np.concatenate([rng.standard_normal((r, 2 * n))
                               for rng, r in streams(cfg.seed, k, count)])
        incr *= math.sqrt(fine.grid.dt)
        pairs = incr.reshape(count, 2, n)[:, :, :2 * nc].reshape(count, 2, nc, 2)
        coarse_incr = (pairs[..., 0] + pairs[..., 1]).reshape(count, 2 * nc)
        coarse_incr *= math.sqrt(coarse.grid.dt / (2.0 * fine.grid.dt))
        w = fine.weights(m, incr, v, k)
        wc = coarse.weights(m, coarse_incr, v, k)
        s, s2, sc = s + float(w.sum()), s2 + float((w * w).sum()), sc + float(wc.sum())
    count = cfg.n_paths
    mean = s / count
    var = max(s2 / count - mean * mean, 0.0) * count / max(count - 1, 1)
    phi = gaussian_prefactor(endpoint[0] - m.x0, endpoint[1] - m.y0, m)
    return phi * mean, phi * math.sqrt(var / count), phi * abs(mean - sc / count)


def _assert_estimators_match(m, cfg, streams, workers_list):
    x, y = _whole_chunk_forward(m, cfg, streams)
    bridge = _whole_chunk_bridge(m, (0.1, 0.05), cfg, streams)
    for workers in workers_list:
        ens = simulate_forward(m, cfg, workers=workers, warn_horizon=False)
        assert np.array_equal(ens.terminal_x, x[:, -1])
        assert np.array_equal(ens.terminal_y, y[:, -1])
        est = bridge_mc_density(m, (0.1, 0.05), cfg, workers=workers)
        assert (est.value, est.std_err, est.discretization_bias) == bridge


@pytest.mark.parametrize("H", [0.3, 0.5])
def test_blocked_estimators_equal_whole_chunk_reference(H):
    # chunks of 5000 paths run as blocks of 2048 and 2952, each on its own
    # substream, the last chunk of 1000 as one block; the blocked run must
    # reproduce one pass over each chunk's stacked block draws
    cfg = SimConfig(n_paths=11000, n_steps=8, seed=17, chunk_size=5000)
    _assert_estimators_match(_state_model(H), cfg, _substreams, (1, 2, 4))


def test_single_block_chunks_draw_the_chunk_stream():
    # a chunk of at most 4095 paths is one block, and jump 0 is the chunk's
    # own stream: the output equals one whole-chunk draw from it
    cfg = SimConfig(n_paths=7000, n_steps=8, seed=17, chunk_size=4095)
    _assert_estimators_match(_state_model(0.3), cfg, _single_stream, (1, 2))


def test_block_error_is_the_same_at_any_worker_count():
    # log(x + 0.2) fails once a path passes below -0.2, in every block at its
    # own step: the error raised must be the first block's, after the pool ends
    from modalbridge.driftspec import DriftDomainError

    m = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 1.0, parse_drift("log(x + 0.2)"), ZERO)
    cfg = SimConfig(n_paths=4 * 2048, n_steps=32, seed=4)
    baseline = threading.active_count()
    for run in (lambda w: simulate_forward(m, cfg, workers=w, warn_horizon=False),
                lambda w: bridge_mc_density(m, (-0.1, 0.0), cfg, workers=w)):
        messages = []
        for workers in (1, 2):
            with pytest.raises(DriftDomainError) as info:
                run(workers)
            messages.append(str(info.value))
            assert threading.active_count() == baseline
        assert messages[0] == messages[1]
        assert "in chunk 0" in messages[0]


def _blas_threads():
    blas = mc._openblas_threads()
    if blas is None:
        pytest.skip("numpy links no OpenBLAS with a known thread-count setter")
    return blas


def test_blas_thread_count_is_one_inside_and_restored_after():
    from modalbridge.driftspec import DriftDomainError

    set_threads, get_threads = _blas_threads()
    before = get_threads()
    set_threads(2)
    try:
        with mc._one_blas_thread():
            assert get_threads() == 1
            with mc._one_blas_thread():
                assert get_threads() == 1
            assert get_threads() == 1
        assert get_threads() == 2
        m = _state_model(0.3)
        cfg = SimConfig(n_paths=4 * 2048, n_steps=8, seed=4)
        simulate_forward(m, cfg, workers=2, warn_horizon=False)
        assert get_threads() == 2
        bridge_mc_density(m, (0.1, 0.05), cfg, workers=1)
        assert get_threads() == 2
        bad = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 1.0, parse_drift("log(x + 0.2)"), ZERO)
        with pytest.raises(DriftDomainError):
            simulate_forward(bad, SimConfig(n_paths=4 * 2048, n_steps=32, seed=4),
                             workers=2, warn_horizon=False)
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_blas_thread_count_restored_after_concurrent_estimators():
    # more estimator threads than cores, with frequent switches: a lost update
    # of the entry count would leave OpenBLAS on one thread, or restore it early
    set_threads, get_threads = _blas_threads()
    before, interval = get_threads(), sys.getswitchinterval()
    set_threads(2)
    sys.setswitchinterval(1e-5)
    try:
        m = _state_model(0.3)
        cfgs = [SimConfig(n_paths=3 * 2048, n_steps=16, seed=s) for s in (5, 6, 7)]
        alone = [bridge_mc_density(m, (0.1, 0.05), cfg, workers=2) for cfg in cfgs]
        together = [None] * len(cfgs)

        def run(i):
            for _ in range(3):
                together[i] = bridge_mc_density(m, (0.1, 0.05), cfgs[i], workers=2)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert together == alone
        assert get_threads() == 2
    finally:
        sys.setswitchinterval(interval)
        set_threads(before)


def test_forward_output_does_not_depend_on_openblas_threads():
    # the forward's factor and noise product run on one BLAS thread; one
    # worker leaves the bridge's path-major products to the BLAS thread count,
    # whose bits do not depend on it: both outputs are the same whatever
    # OPENBLAS_NUM_THREADS says, with one worker and with the default count
    _blas_threads()
    script = (
        "import hashlib\n"
        "from modalbridge.driftspec import ModelSpec, parse_drift\n"
        "from modalbridge.kernel import Hurst\n"
        "from modalbridge.mc import SimConfig, bridge_mc_density, simulate_forward\n"
        "for H in (0.3, 0.7):\n"
        "    m = ModelSpec(Hurst(H), 0.3, 0.0, 0.0, 0.25, parse_drift('0.5*sin(x)'),\n"
        "                  parse_drift('0.5*cos(y)'), holder_gamma=0.3)\n"
        "    for workers in (1, None):\n"
        "        e = simulate_forward(m, SimConfig(16384, 128, 3), workers=workers,\n"
        "                             warn_horizon=False)\n"
        "        print(hashlib.sha256(e.terminal_x.tobytes() + e.terminal_y.tobytes()).hexdigest())\n"
        "        b = bridge_mc_density(m, (0.1, 0.05), SimConfig(16384, 256, 3), workers=workers)\n"
        "        print(repr((b.value, b.std_err, b.discretization_bias)))\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env.pop("MODALBRIDGE_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 8
    assert outputs[0] == outputs[1]


def test_one_worker_leaves_the_blas_thread_count():
    # a pool of workers runs its blocks on one BLAS thread; one worker runs
    # the bridge's blocks with the caller's count, and the forward's with one
    set_threads, get_threads = _blas_threads()
    before = get_threads()
    set_threads(2)
    seen = []
    try:
        cfg = SimConfig(n_paths=2 * 2048, n_steps=2, seed=0)
        for workers in (1, 2):
            _run_blocks(cfg, lambda k, rng, rows: seen.append(get_threads()), workers)
        assert seen == [2, 2, 1, 1]
        m = _state_model(0.3)
        forward = simulate_forward(m, cfg, workers=1, warn_horizon=False)
        assert get_threads() == 2
        assert np.array_equal(forward.terminal_x,
                              simulate_forward(m, cfg, workers=2, warn_horizon=False).terminal_x)
    finally:
        set_threads(before)


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


# -- density estimators --------------------------------------------------------------

def test_bin_estimator_point_mass():
    ens = PathEnsemble(terminal_x=np.zeros(100), terminal_y=np.zeros(100))
    est = estimate_density_at(ens, (0.0, 0.0), BinEstimator(0.2, 0.5))
    assert est.value == pytest.approx(1.0 / 0.1)
    assert est.std_err == 0.0


def test_bin_estimator_zero_hits_upper_bound():
    ens = PathEnsemble(terminal_x=np.zeros(100), terminal_y=np.zeros(100))
    est = estimate_density_at(ens, (10.0, 10.0), BinEstimator(0.2, 0.5))
    assert est.value == 0.0
    assert est.std_err == pytest.approx(1.0 / (100 * 0.1))


def test_bin_std_err_decreases_with_width():
    rng = np.random.default_rng(0)
    ens = PathEnsemble(terminal_x=rng.standard_normal(20000),
                       terminal_y=rng.standard_normal(20000))
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
    ens = PathEnsemble(terminal_x=np.zeros(1), terminal_y=np.zeros(1))
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
    from modalbridge.fraccalc import GridFunction, apply_KH, inverse_operator_matrix
    from modalbridge.mc import _BridgeLevel
    import numpy.random as npr

    m = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 0.5,
                  parse_drift("0.5*x + 0.2"), parse_drift("0.4*y - 0.1"))
    n = 256
    level = _BridgeLevel(m, n)
    grid = level.grid
    t = grid.nodes
    w = level.w_full
    inv_op = inverse_operator_matrix(grid, m.hurst)
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
def test_bridge_with_two_step_half_grid_matches_column_loop_operator(n_steps, monkeypatch,
                                                                    reference_invert_KH):
    # the half grid has n = 2 steps, the smallest the H < 1/2 operator takes;
    # the reference operator is built column by column through the pointwise route
    from modalbridge import mc
    from modalbridge.fraccalc import GridFunction

    def column_loop(grid, hurst):
        h0 = GridFunction(grid, np.zeros(grid.n + 1))
        return np.column_stack([reference_invert_KH(h0, hurst, integrand=e)
                                for e in np.eye(grid.n + 1)])

    m = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 0.5,
                  parse_drift("0.5*sin(x)"), parse_drift("0.3*cos(y)"))
    cfg = SimConfig(n_paths=2000, n_steps=n_steps, seed=8)
    a = bridge_mc_density(m, (0.1, 0.2), cfg)
    assert a.value > 0 and math.isfinite(a.discretization_bias)
    monkeypatch.setattr(mc, "inverse_operator_matrix", column_loop)
    monkeypatch.setattr(mc, "_level_cache", OperatorCache(8))  # build the levels anew
    b = bridge_mc_density(m, (0.1, 0.2), cfg)
    assert b.value == pytest.approx(a.value, rel=1e-12)
    assert b.discretization_bias == pytest.approx(a.discretization_bias, rel=1e-9, abs=1e-15)


def test_bridge_levels_are_cached_read_only_and_model_free(monkeypatch):
    # a level depends on (H, rho, T, n) only: a warm call with another drift
    # and start point reuses both levels and matches a cold call
    from modalbridge import mc

    builds = []

    def counting(grid, hurst):
        builds.append(grid.n)
        return volterra_weight_matrix(grid, hurst)

    monkeypatch.setattr(mc, "volterra_weight_matrix", counting)
    monkeypatch.setattr(mc, "_level_cache", OperatorCache(8))
    first = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 0.5, parse_drift("0.5*sin(x)"), ZERO)
    second = ModelSpec(Hurst(0.3), 0.4, 0.2, -0.1, 0.5, parse_drift("0.2"),
                       parse_drift("0.3*cos(y)"))
    cfg = SimConfig(n_paths=500, n_steps=16, seed=2)
    bridge_mc_density(first, (0.1, 0.2), cfg)
    warm = bridge_mc_density(second, (0.1, 0.2), cfg)
    assert sorted(builds) == [8, 16]
    level = mc._bridge_level(second, 16)
    for op in (level.w_full, level.a, level.g_inv, level.inv_op_t):
        assert not op.flags.writeable
    monkeypatch.setattr(mc, "_level_cache", OperatorCache(8))
    cold = bridge_mc_density(second, (0.1, 0.2), cfg)
    assert (warm.value, warm.std_err, warm.discretization_bias) == \
        (cold.value, cold.std_err, cold.discretization_bias)


def test_bridge_overflow_raises_instead_of_nan():
    m = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 1.0, parse_drift("60"), ZERO)
    with pytest.raises(NumericalConditioningError):
        bridge_mc_density(m, (60.0, 0.0), SimConfig(n_paths=2000, n_steps=32, seed=0))
