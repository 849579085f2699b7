import contextlib
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from modalbridge.bridge import GaussianConditioner, condition_gaussian
from modalbridge.density import exact_timeonly_density, gaussian_prefactor
from modalbridge import driftspec
from modalbridge.driftspec import ModelSpec, parse_drift, validate_assumptions
from modalbridge.kernel import Hurst, NumericalConditioningError, TimeGrid
from modalbridge import mc, opcache
from modalbridge.mc import (BinEstimator, DensityEstimate, KdeEstimator, PathEnsemble,
                            SimConfig, _BridgeLevel, _run_blocks, _worker_count,
                            bridge_mc_density, estimate_density_at, simulate_forward,
                            volterra_weight_matrix)

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
    # no product of the fields is bounded: a run too large for memory raises MemoryError
    assert SimConfig(n_paths=10 ** 6, n_steps=256, seed=1).n_paths == 10 ** 6
    # the seed alone keys the streams: no other field partitions the paths
    assert [f.name for f in dataclasses.fields(SimConfig)] == ["n_paths", "n_steps", "seed"]


@pytest.mark.parametrize("field, value", [("n_paths", 1e6), ("n_steps", 16.0),
                                          ("seed", 1.5), ("n_paths", True)])
def test_sim_config_refuses_a_field_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        SimConfig(**{"n_paths": 300, "n_steps": 16, "seed": 1, field: value})


def test_sim_config_reads_numpy_integers_as_ints():
    m = _state_model(0.3)
    cfg = SimConfig(n_paths=np.int64(300), n_steps=np.int64(16), seed=np.uint64(3))
    assert cfg == SimConfig(300, 16, 3) and type(cfg.n_paths) is int
    assert bridge_mc_density(m, (0.1, 0.05), cfg) == bridge_mc_density(m, (0.1, 0.05),
                                                                        SimConfig(300, 16, 3))
    assert np.array_equal(simulate_forward(m, cfg).terminal_x,
                          simulate_forward(m, SimConfig(300, 16, 3)).terminal_x)


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


def _stream(seed, b):
    """Block b's generator: SFC64 seeded by child b of the seed's SeedSequence."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


def test_block_streams_are_sfc64_children_of_the_seed_sequence():
    for seed in (0, 9, 2 ** 64 - 1):
        for b in (0, 1, 7):
            rng = mc._block_rng(seed, b)
            assert isinstance(rng.bit_generator, np.random.SFC64)
            assert np.array_equal(rng.standard_normal(16), _stream(seed, b).standard_normal(16))
    # the largest seed runs, and blocks 0 and 1 draw different first rows
    cfg = SimConfig(n_paths=2 * 2048, n_steps=4, seed=2 ** 64 - 1)
    rows = list(_run_blocks(cfg, 2048, lambda rng, m: rng.standard_normal(8), 1))
    assert len(rows) == 2 and not np.array_equal(rows[0], rows[1])


def test_block_runner_keeps_order_and_bounds_blocks_in_flight(monkeypatch):
    # 20 blocks of 2048 paths; slow kernels let the calling thread run ahead
    # as far as the bound allows
    cfg = SimConfig(n_paths=20 * 2048, n_steps=2, seed=9)
    block_rng = mc._block_rng
    for workers in (1, 2, 3):
        submitted, finished, ahead, index = [0], [0], [], {}

        def counting_rng(seed, b):
            submitted[0] += 1
            ahead.append(submitted[0] - finished[0])
            rng = block_rng(seed, b)
            index[rng] = b  # the block each generator serves
            return rng

        def kernel(rng, rows):
            time.sleep(0.002)
            finished[0] += 1
            return index[rng], rng.standard_normal(), rows

        monkeypatch.setattr(mc, "_block_rng", counting_rng)
        out = list(_run_blocks(cfg, 2048, kernel, workers))
        assert [(b, r) for b, _, r in out] == [(b, 2048) for b in range(20)]
        # block b draws from SFC64 seeded by child b of the seed's SeedSequence
        assert [z for _, z, _ in out] == [_stream(9, b).standard_normal() for b in range(20)]
        assert max(ahead) <= 2 * workers + 1


def test_estimator_validation():
    with pytest.raises(ValueError):
        BinEstimator(0.0, 0.1)
    with pytest.raises(ValueError):
        KdeEstimator(0.1, -0.1)


def test_forward_determinism_and_worker_invariance(monkeypatch):
    m = zero_model(0.3, 0.4, T=0.5)
    monkeypatch.setattr(mc, "_FORWARD_BLOCK_ROWS", 512)  # 7 blocks
    cfg = SimConfig(n_paths=4000, n_steps=16, seed=13)
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
    # terminal points bit for bit with a column-wise loop over the same block's draws
    for H in (0.3, 0.5):
        m = _state_model(H)
        n, count = 16, 300
        grid = TimeGrid(m.T, n)
        ens = simulate_forward(m, SimConfig(n_paths=count, n_steps=n, seed=8))
        rng = mc._block_rng(8, 0)
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


# rows per block of each estimator
_FORWARD_ROWS, _BRIDGE_ROWS = 2048, 256


def _substreams(seed, count, size):
    """(generator, rows) per row block of a run: blocks of size rows, the last
    taking the remainder, and block b on its own stream."""
    full, rem = divmod(count, size)
    rows = [count] if full == 0 else [size] * (full - 1) + [size + rem]
    return [(_stream(seed, b), r) for b, r in enumerate(rows)]


def _single_stream(seed, count, size):
    """The whole run drawn at once from block 0's stream."""
    return [(_stream(seed, 0), count)]


def _per_block_forward(m, cfg, streams):
    """simulate_forward's (x, y) paths: one column loop per block's noise, in block order."""
    n = cfg.n_steps
    grid = TimeGrid(m.T, n)
    paths = [_column_euler(m, grid, _node_noise(m, grid, [rng.standard_normal((r, 2 * n))]))
             for rng, r in streams(cfg.seed, cfg.n_paths, _FORWARD_ROWS)]
    return tuple(np.concatenate([p[j] for p in paths]) for j in (0, 1))


def _per_block_bridge(m, endpoint, cfg, streams):
    """bridge_mc_density's (value, std_err, bias): one pass per block, its
    centred sums merged in block order."""
    n, nc = cfg.n_steps, cfg.n_steps // 2
    fine, coarse = _BridgeLevel(m, n), _BridgeLevel(m, nc)
    v = np.array([endpoint[0] - m.x0, endpoint[1] - m.y0])
    total, mean, m2, sc = 0, 0.0, 0.0, 0.0
    for rng, count in streams(cfg.seed, cfg.n_paths, _BRIDGE_ROWS):
        incr = rng.standard_normal((count, 2 * n))
        incr *= math.sqrt(fine.grid.dt)
        pairs = incr.reshape(count, 2, n)[:, :, :2 * nc].reshape(count, 2, nc, 2)
        coarse_incr = (pairs[..., 0] + pairs[..., 1]).reshape(count, 2 * nc)
        coarse_incr *= math.sqrt(coarse.grid.dt / (2.0 * fine.grid.dt))
        w = fine.weights(m, incr, v)
        wc = coarse.weights(m, coarse_incr, v)
        # Chan, Golub & LeVeque's update by the block's mean and centred sum of squares
        block_mean = float(w.mean())
        delta = block_mean - mean
        mean += delta * (count / (total + count))
        m2 += float(np.square(w - block_mean).sum()) + delta * delta * (
            total * count / (total + count))
        total, sc = total + count, sc + float(wc.sum())
    var = m2 / max(total - 1, 1)
    phi = gaussian_prefactor(endpoint[0] - m.x0, endpoint[1] - m.y0, m)
    return phi * mean, phi * math.sqrt(var / total), phi * abs(mean - sc / total)


def _assert_forward_matches(m, cfg, streams, workers_list):
    x, y = _per_block_forward(m, cfg, streams)
    for workers in workers_list:
        ens = simulate_forward(m, cfg, workers=workers)
        assert np.array_equal(ens.terminal_x, x[:, -1])
        assert np.array_equal(ens.terminal_y, y[:, -1])


def _assert_bridge_matches(m, cfg, streams, workers_list):
    bridge = _per_block_bridge(m, (0.1, 0.05), cfg, streams)
    for workers in workers_list:
        est = bridge_mc_density(m, (0.1, 0.05), cfg, workers=workers)
        assert (est.value, est.std_err, est.discretization_bias) == bridge


@pytest.mark.parametrize("H", [0.3, 0.5])
def test_blocked_estimators_equal_per_block_reference(H):
    # 11000 paths run as forward blocks of 2048, the last of 2808, and as
    # bridge blocks of 256, the last of 504, each on its own substream;
    # the blocked run must reproduce one pass over each block's draws, with
    # the bridge's block sums added in block order
    m = _state_model(H)
    _assert_forward_matches(m, SimConfig(n_paths=11000, n_steps=8, seed=17), _substreams,
                            (1, 2, 4))
    # at n = 128, as the benchmark runs it, each forward block is filled in
    # 512-path chunks (the block of 2808 ends in one of 760)
    _assert_forward_matches(m, SimConfig(n_paths=11000, n_steps=128, seed=17), _substreams,
                            (1, 2))
    _assert_bridge_matches(m, SimConfig(n_paths=11000, n_steps=8, seed=17), _substreams,
                           (1, 2, 4))


@pytest.mark.parametrize("H", [0.3, 0.5])
@pytest.mark.parametrize("n_steps", [64, 256])
def test_bridge_blocks_match_per_block_reference_on_fine_grids(n_steps, H):
    # at fine grids the bridge still runs 256-row blocks, the last taking the
    # remainder; a path's weight depends on its own normals only, so the
    # blocked run must reproduce one pass over each block's draws
    m = _state_model(H)
    cfg = SimConfig(n_paths=11000, n_steps=n_steps, seed=17)
    _assert_bridge_matches(m, cfg, _substreams, (1, 2))


def test_single_block_run_draws_the_seed_stream():
    # a run of fewer than two blocks' rows (4095 forward paths, 511 bridge
    # paths) is one block: the output equals one whole-run draw from block
    # 0's stream, child 0 of the seed's SeedSequence, also where the block is
    # filled in 512-path chunks (1025 paths: 512 and 513; 4095: 512 x 6 and 1023)
    m = _state_model(0.3)
    _assert_forward_matches(m, SimConfig(n_paths=4095, n_steps=8, seed=17), _single_stream,
                            (1, 2))
    for count in (1025, 4095):
        _assert_forward_matches(m, SimConfig(n_paths=count, n_steps=128, seed=17),
                                _single_stream, (1, 2))
    _assert_bridge_matches(m, SimConfig(n_paths=511, n_steps=8, seed=17), _single_stream,
                           (1, 2))


def _traced_peak(run):
    """Peak bytes traced by tracemalloc while run() runs (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bridge_block_working_set_is_bounded():
    # numpy reports its buffers to tracemalloc.  At n = 256 one 256-row block
    # holds its increments (1.05 MB), the half-grid increments (0.52 MB) and
    # one level's paths x, y and drifts g1, g2 (0.53 MB each): 3.9 MB traced at
    # the peak.  A 2048-row block peaks at 29.6 MB, and a block of 1024 rows
    # would pass 8 MB too; the bound leaves twice the block's room for the
    # block results and the temporaries.  The levels (cached operators, not
    # per-block work) are built before tracing starts.
    m = _state_model(0.3)
    bridge_mc_density(m, (0.1, 0.05), SimConfig(16, 256, 3), workers=1)
    peak = _traced_peak(
        lambda: bridge_mc_density(m, (0.1, 0.05), SimConfig(8192, 256, 3), workers=1))
    assert peak <= 8e6


def test_forward_block_working_set_is_bounded():
    # a forward block holds its time-major noise, (2n, 2048) floats (4.19 MB at
    # n = 128), and the normals of one 512-path chunk (1.05 MB): 5.35 MB traced
    # at the peak over four blocks.  Drawing the block's normals whole would
    # hold them beside the noise, twice its size (8.49 MB).  The factor (a
    # cached operator, not per-block work) is built before tracing starts.
    m = _state_model(0.3)
    n = 128
    simulate_forward(m, SimConfig(16, n, 3), workers=1)
    peak = _traced_peak(lambda: simulate_forward(m, SimConfig(8192, n, 3), workers=1))
    assert peak <= 1.5 * (2 * n * 2048 * 8)


def test_forward_holds_its_output_and_the_blocks_in_flight():
    # the output, two float64 terminals per path (4.19 MB at 262144 paths), is
    # allocated before the first block and each block's terminals are copied
    # into it; joining the blocks' copies at the end held both, twice the output
    m = _state_model(0.3)
    simulate_forward(m, SimConfig(16, 4, 3), workers=1)
    cfg = SimConfig(262144, 4, 3)
    peak = _traced_peak(lambda: simulate_forward(m, cfg, workers=1))
    assert peak <= 1.25 * (2 * cfg.n_paths * 8)


def test_bridge_memory_does_not_grow_with_its_paths():
    # each block's sums are merged as they come: 8 times the paths add no
    # memory, where keeping one tuple of sums per block added 0.20 MB
    m = _state_model(0.3)

    def run(paths):
        return bridge_mc_density(m, (0.1, 0.05), SimConfig(paths, 4, 3), workers=1)

    run(16)
    small, large = _traced_peak(lambda: run(50_000)), _traced_peak(lambda: run(400_000))
    assert large - small <= 0.05e6


def test_forward_output_beyond_memory_raises_before_any_drift(monkeypatch):
    # 2**45 paths need two 256 TiB terminal arrays, beyond the 47-bit user
    # address space and any memory: the output is allocated first, so the
    # allocation fails before a block evaluates a drift
    calls = []
    eval_drift = mc.eval_drift
    monkeypatch.setattr(mc, "eval_drift", lambda *args: calls.append(1) or eval_drift(*args))
    with pytest.raises(MemoryError):
        simulate_forward(zero_model(0.3, 0.4), SimConfig(2 ** 45, 16, 1), workers=1)
    assert calls == []


def test_leaving_the_block_runner_early_unpins_blas_and_runs_no_more_blocks():
    # the runner yields its results; leaving it after the first closes it,
    # which shuts the pool down (blocks beyond those in flight never run) and
    # releases the process-wide OpenBLAS pin
    cfg = SimConfig(n_paths=20 * 2048, n_steps=2, seed=9)
    baseline = threading.active_count()
    pinned = 1 if mc._openblas_threads() else 0
    for workers in (1, 2):
        ran = []

        def kernel(rng, rows):
            time.sleep(0.002)
            ran.append(rows)
            return rows

        for rows in _run_blocks(cfg, 2048, kernel, workers):
            assert rows == 2048 and mc._blas_users == pinned
            break
        assert mc._blas_users == 0
        assert 1 <= len(ran) <= 2 * workers
        assert threading.active_count() == baseline


def test_block_error_is_the_same_at_any_worker_count():
    # log(x + 0.2) fails once a path passes below -0.2, and forward paths under
    # 50 x^2 + 1 overflow, in every block at its own step: the error raised
    # must be the first block's, after the pool ends.  Bridge weights under
    # exp(3000 x) overflow in every block, and block 0's sums report it with
    # no numpy warning leaving a block.  The forward's models also break its
    # assumption check, which warns.
    from modalbridge.driftspec import DriftDomainError

    m = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 1.0, parse_drift("log(x + 0.2)"), ZERO)
    blowup = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 1.0, parse_drift("50*x*x + 1"), ZERO)
    overflow = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 0.25, parse_drift(_OVERFLOWING), ZERO)
    cfg = SimConfig(n_paths=4 * 2048, n_steps=32, seed=4)
    baseline = threading.active_count()
    for error, run, labels, warning in (
            (DriftDomainError, lambda w: simulate_forward(m, cfg, workers=w), ("in block 0",),
             "points sampled in its sample box|Lipschitz quotient grows|contraction horizon"),
            (DriftDomainError, lambda w: bridge_mc_density(m, (-0.1, 0.0), cfg, workers=w),
             ("in block 0",), None),
            (NumericalConditioningError,
             lambda w: simulate_forward(blowup, cfg, workers=w), ("in block 0",),
             "contraction horizon"),
            (NumericalConditioningError,
             lambda w: bridge_mc_density(overflow, (0.5, 0.0), cfg, workers=w),
             ("non-finite sums", "in block 0"), None)):
        messages = []
        for workers in (1, 2):
            warns = (pytest.warns(RuntimeWarning, match=warning) if warning
                     else contextlib.nullcontext())
            with pytest.raises(error) as info, warns:
                run(workers)
            messages.append(str(info.value))
            assert threading.active_count() == baseline
        assert messages[0] == messages[1]
        for label in labels:
            assert label in messages[0]


def test_bridge_overflow_ends_the_run_with_the_blocks_in_flight(monkeypatch):
    # block 0's weights overflow, so the run stops with the blocks then in
    # flight, at most 2 x workers of its 32; each weighs two drifts on each of
    # its two grid levels
    overflow = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 0.25, parse_drift(_OVERFLOWING), ZERO)
    cfg = SimConfig(n_paths=4 * 2048, n_steps=32, seed=4)
    calls = []
    eval_drift = mc.eval_drift
    monkeypatch.setattr(mc, "eval_drift", lambda *args: calls.append(1) or eval_drift(*args))
    for workers in (1, 2):
        calls.clear()
        with pytest.raises(NumericalConditioningError, match="in block 0"):
            bridge_mc_density(overflow, (0.5, 0.0), cfg, workers=workers)
        assert 4 <= len(calls) <= 4 * 2 * workers


def test_store_lookups_run_on_the_calling_thread(monkeypatch):
    # lookups reorder the store's entries, so pool tasks must make none
    m = _state_model(0.3)
    cfg = SimConfig(n_paths=3 * 2048, n_steps=16, seed=6)
    lookups = []
    get = opcache.get

    def recording(partition, key, build):
        lookups.append((partition, threading.get_ident()))
        return get(partition, key, build)

    monkeypatch.setattr(opcache, "get", recording)
    bridge_mc_density(m, (0.1, 0.05), cfg, workers=2)
    simulate_forward(m, cfg, workers=2)
    assert {p for p, _ in lookups} >= {"volterra", "inverse_operator", "forward_factor", "nodes"}
    assert {ident for _, ident in lookups} == {threading.get_ident()}


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
        simulate_forward(m, cfg, workers=2)
        assert get_threads() == 2
        bridge_mc_density(m, (0.1, 0.05), cfg, workers=1)
        assert get_threads() == 2
        bad = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 1.0, parse_drift("log(x + 0.2)"), ZERO)
        with pytest.raises(DriftDomainError), pytest.warns(
                RuntimeWarning, match="sample box|Lipschitz quotient grows|contraction horizon"):
            simulate_forward(bad, SimConfig(n_paths=4 * 2048, n_steps=32, seed=4),
                             workers=2)
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
    # every block runs on one BLAS thread, and the forward's factor is built
    # on one; the bridge's levels are built with the caller's count, and the
    # bits of their products do not depend on it: both outputs are the same
    # whatever OPENBLAS_NUM_THREADS says, with one worker and with the default
    # count
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
        "        e = simulate_forward(m, SimConfig(16384, 128, 3), workers=workers)\n"
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


def test_blocks_run_on_one_blas_thread_at_any_worker_count():
    # one worker runs its blocks as a pool of several does, on one BLAS
    # thread, and the caller's count is restored after each run
    set_threads, get_threads = _blas_threads()
    before = get_threads()
    set_threads(2)
    seen = []
    try:
        cfg = SimConfig(n_paths=2 * 2048, n_steps=2, seed=0)
        for workers in (1, 2):
            list(_run_blocks(cfg, 2048, lambda rng, rows: seen.append(get_threads()), workers))
            assert get_threads() == 2
        assert seen == [1, 1, 1, 1]
        m = _state_model(0.3)
        forward = simulate_forward(m, cfg, workers=1)
        assert get_threads() == 2
        assert np.array_equal(forward.terminal_x,
                              simulate_forward(m, cfg, workers=2).terminal_x)
    finally:
        set_threads(before)


def test_forward_euler_loops_run_one_at_a_time(monkeypatch):
    # two blocks' Euler loops at once convoy on the GIL, so they take turns: a
    # block's 2n drift evaluations run without another block's between them
    n = 32
    idents = []
    evaluate = mc.eval_drift

    def recording(expr, t, x, y):
        idents.append(threading.get_ident())
        return evaluate(expr, t, x, y)

    monkeypatch.setattr(mc, "eval_drift", recording)
    simulate_forward(_state_model(0.3), SimConfig(n_paths=8 * 2048, n_steps=n, seed=2),
                     workers=2)
    runs = [len(list(calls)) for _, calls in itertools.groupby(idents)]
    assert sum(runs) == 8 * 2 * n
    assert all(r % (2 * n) == 0 for r in runs)


_OVERFLOWING = "exp(3000*x)"


def test_bridge_error_does_not_depend_on_the_callers_error_state():
    # blocks run on pool threads with numpy's overflow and invalid warnings
    # off at any worker count, so a caller's raising state changes no error type
    m = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 0.5, parse_drift(_OVERFLOWING), ZERO)
    for workers in (1, 2):
        with pytest.raises(NumericalConditioningError), \
                np.errstate(over="raise", invalid="raise"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            bridge_mc_density(m, (0.5, 0.0), SimConfig(512, 16, 1), workers=workers)


def test_forward_assumption_report_neither_raises_nor_leaks_numpy_warnings():
    # the report's samples of exp(3000 x) overflow: under a raising error
    # state the run fails on its own non-finite terminals, and under the
    # default one the relayed violations are its only RuntimeWarnings
    def model():  # a new instance samples its report again
        return ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 0.5, parse_drift(_OVERFLOWING), ZERO)

    cfg = SimConfig(n_paths=2048, n_steps=16, seed=1)
    with pytest.raises(NumericalConditioningError), \
            np.errstate(over="raise", invalid="raise"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        simulate_forward(model(), cfg)
    m = model()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalConditioningError):
            simulate_forward(m, cfg)
    messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert messages and messages == list(validate_assumptions(m).violations)


def _forward_warnings(m, cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ens = simulate_forward(m, cfg)
    return ens, [str(w.message) for w in caught if w.category is RuntimeWarning]


def test_forward_runs_past_a_drift_undefined_on_the_check_box():
    # the assumption check samples x within 15 sd of x0 = 0 and meets x < -1,
    # where sqrt(x + 1) is undefined, and reports on the other points (sqrt is
    # not Lipschitz at -1); no path at T = 0.01 goes below -0.31
    m = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 0.01, parse_drift("sqrt(x + 1)"), ZERO)
    ens, messages = _forward_warnings(m, SimConfig(n_paths=4096, n_steps=32, seed=1))
    assert ens.n_paths == 4096 and np.isfinite(ens.terminal_x).all()
    assert len(messages) == 2
    assert "points sampled in its sample box" in messages[0] and "sqrt of negative" in messages[0]
    assert "Lipschitz quotient grows" in messages[1]


def test_forward_skips_the_report_of_a_drift_undefined_on_the_whole_box():
    from modalbridge.driftspec import DriftDomainError

    m = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 0.01, parse_drift("log(-1 - x*x)"), ZERO)
    with pytest.raises(DriftDomainError, match="in block 0"), pytest.warns(
            RuntimeWarning, match="^assumption check skipped, drift undefined on its sample box"):
        simulate_forward(m, SimConfig(n_paths=2048, n_steps=8, seed=1))


def test_forward_runs_past_a_sample_box_that_floats_cannot_hold():
    # x0 +- 15 sqrt(T) rounds to x0: the report cannot sample the model's own
    # box, so one warning says why, and the run goes on (at x0 = 1.7e308 its
    # paths then overflow); a box a caller passes is still checked
    m = ModelSpec(Hurst(0.3), 0.3, 1e20, 0.0, 1e-10, parse_drift("0.1*x"), ZERO)
    ens, messages = _forward_warnings(m, SimConfig(n_paths=2048, n_steps=16, seed=1))
    assert ens.n_paths == 2048 and np.isfinite(ens.terminal_x).all()
    assert len(messages) == 1
    assert "assumption check skipped" in messages[0] and "lo < hi" in messages[0]
    top = ModelSpec(Hurst(0.3), 0.3, 1.7e308, 0.0, 1.0, parse_drift("0.1*x"), ZERO)
    with pytest.warns(RuntimeWarning, match="assumption check skipped"), \
            pytest.raises(NumericalConditioningError, match="overflow"):
        simulate_forward(top, SimConfig(n_paths=2048, n_steps=16, seed=1))
    with pytest.raises(ValueError, match="lo < hi"):
        validate_assumptions(m)


def test_bridge_refuses_an_endpoint_without_a_finite_displacement(monkeypatch):
    # 1e308 - (-1e308) is inf: the endpoint is refused, naming it, before any
    # drift is evaluated; a NaN endpoint too
    far = ModelSpec(Hurst(0.3), 0.5, -1e308, 0.0, 0.5, parse_drift("0.2*x"), ZERO)
    calls = []
    eval_drift = mc.eval_drift
    monkeypatch.setattr(mc, "eval_drift", lambda *args: calls.append(1) or eval_drift(*args))
    with pytest.raises(ValueError, match=r"endpoint \(1e\+308, 0\.0\)"):
        bridge_mc_density(far, (1e308, 0.0), SimConfig(512, 8, 1), workers=1)
    with pytest.raises(ValueError, match="endpoint"):
        bridge_mc_density(zero_model(0.3, 0.4), (math.nan, 0.0), SimConfig(512, 8, 1))
    assert calls == []


def test_forward_relays_the_report_for_a_linear_drift():
    # 3 x is Linear: its report's contraction horizon 1/6 is below T = 1
    m = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 1.0, parse_drift("3*x"), ZERO)
    report = validate_assumptions(m)
    assert any("contraction horizon" in v for v in report.violations)
    _, messages = _forward_warnings(m, SimConfig(n_paths=2048, n_steps=16, seed=1))
    assert messages == list(report.violations)


def test_forward_checks_assumptions_once_per_model(monkeypatch):
    # the report depends only on the model, so a second call relays the same
    # warnings without sampling again; a report that drops undefined points, too
    calls = []

    def counted(model):
        calls.append(model)
        return validate_assumptions(model)

    monkeypatch.setattr(driftspec, "validate_assumptions", counted)
    cfg = SimConfig(n_paths=2048, n_steps=16, seed=1)
    for h1, T in (("3*x", 1.0), ("sqrt(x + 1)", 0.01)):
        m = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, T, parse_drift(h1), ZERO)
        calls.clear()
        _, first = _forward_warnings(m, cfg)
        _, second = _forward_warnings(m, cfg)
        assert first and second == first
        assert calls == [m]
        same = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, T, parse_drift(h1), ZERO)
        assert same == m and hash(same) == hash(m) and repr(same) == repr(m)


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


def test_kde_at_a_far_point_is_zero_without_warnings():
    # the squared distance to every terminal overflows to inf, so each kernel
    # value is exp(-inf) = 0, and numpy's overflow warning stays inside
    ens = PathEnsemble(terminal_x=np.array([1e300, 2e300]), terminal_y=np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_density_at(ens, (0.0, 0.0), KdeEstimator(0.05, 0.05))
    assert (est.value, est.std_err) == (0.0, 0.0)


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


def test_bridge_std_err_of_equal_weights_is_rounding_level():
    # at H = 1/2 constant drifts give every path the same Girsanov weight up to
    # rounding, so the s.e. is rounding noise; raw sums, s2/n - mean^2, cancel
    # to 8e-11 relative here (or clip to 0), where centred sums give about 1e-17
    m = ModelSpec(Hurst(0.5), 0.7, 0.1, -0.3, 0.5, parse_drift("0.2"), parse_drift("-0.1"))
    est = bridge_mc_density(m, (0.4, -0.6), SimConfig(n_paths=20_000, n_steps=128, seed=15))
    assert est.std_err <= 1e-14 * est.value


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
    ens = simulate_forward(m, SimConfig(n_paths=400_000, n_steps=128, seed=78))
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
    inv_op = inverse_operator_matrix(grid, m.hurst)
    rng = np.random.Generator(npr.Philox(key=42))
    incr = math.sqrt(grid.dt) * rng.standard_normal((4, 2 * n))
    level.condition(incr, np.array([0.3, -0.2]))
    x, y = level.paths(m, incr)
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


def test_bridge_determinism_and_worker_invariance(monkeypatch):
    m = zero_model(0.35, 0.2, T=0.5)
    monkeypatch.setattr(mc, "_BRIDGE_BLOCK_ROWS", 640)  # 4 blocks
    cfg = SimConfig(n_paths=3000, n_steps=16, seed=5)
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


def test_bridge_odd_steps_worker_invariance(monkeypatch):
    # n = 15: the half grid has 7 steps and the last normal of each block is unpaired
    m = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 0.5,
                  parse_drift("0.5*sin(x)"), parse_drift("0.3*cos(y)"))
    monkeypatch.setattr(mc, "_BRIDGE_BLOCK_ROWS", 700)  # 4 blocks
    cfg = SimConfig(n_paths=3000, n_steps=15, seed=21)
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
    monkeypatch.setattr(mc, "inverse_operator_matrix", column_loop)  # each call builds its levels
    b = bridge_mc_density(m, (0.1, 0.2), cfg)
    assert b.value == pytest.approx(a.value, rel=1e-12)
    assert b.discretization_bias == pytest.approx(a.discretization_bias, rel=1e-9, abs=1e-15)


def test_bridge_levels_are_cached_read_only_and_model_free():
    # a level's stored operators depend on (H, T, n) only: a warm call with
    # another drift and start point reuses the Volterra weights of both grids
    # and matches a cold call
    opcache.clear()
    first = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 0.5, parse_drift("0.5*sin(x)"), ZERO)
    second = ModelSpec(Hurst(0.3), 0.4, 0.2, -0.1, 0.5, parse_drift("0.2"),
                       parse_drift("0.3*cos(y)"))
    cfg = SimConfig(n_paths=500, n_steps=16, seed=2)
    bridge_mc_density(first, (0.1, 0.2), cfg)
    warm = bridge_mc_density(second, (0.1, 0.2), cfg)
    assert opcache.stats()["volterra"] == {"builds": 2, "hits": 2, "evictions": 0,
                                           "bytes": (16 * 16 + 8 * 8) * 8}
    level = _BridgeLevel(second, 16)
    for op in (level.w_full, level.a, level.g_inv, level.inv_op_t):
        assert not op.flags.writeable
    opcache.clear()
    cold = bridge_mc_density(second, (0.1, 0.2), cfg)
    assert (warm.value, warm.std_err, warm.discretization_bias) == \
        (cold.value, cold.std_err, cold.discretization_bias)


def test_both_estimators_read_one_stored_volterra_matrix_per_grid():
    # the bridge's 128-step half grid and the 128-step forward factor's
    # covariance share one W, and no bridge level is stored
    m = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 0.25, parse_drift("0.5*sin(x)"),
                  parse_drift("0.5*cos(y)"))
    opcache.clear()
    bridge_mc_density(m, (0.1, 0.05), SimConfig(n_paths=2048, n_steps=256, seed=1))
    simulate_forward(m, SimConfig(n_paths=2048, n_steps=128, seed=1))
    stats = opcache.stats()
    assert stats["volterra"]["builds"] == 2 and stats["volterra"]["hits"] >= 1
    assert stats["kernel_profile"]["builds"] == 1
    assert "bridge_level" not in stats
    assert sum(part["bytes"] for part in stats.values()) <= 1.9e6


def test_bridge_level_views_the_stored_operators_and_refuses_writes():
    from modalbridge.fraccalc import inverse_operator_matrix

    m = _state_model(0.3)
    level = _BridgeLevel(m, 64)
    grid = TimeGrid(m.T, 64)
    assert np.shares_memory(level.w_full, volterra_weight_matrix(grid, m.hurst))
    assert np.shares_memory(level.inv_op_t, inverse_operator_matrix(grid, m.hurst))
    for op in (level.w_full, level.a, level.g_inv, level.inv_op_t):
        with pytest.raises(ValueError, match="read-only"):
            op[...] = 0.0


def test_bridge_overflow_raises_instead_of_nan():
    m = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 1.0, parse_drift("60"), ZERO)
    with pytest.raises(NumericalConditioningError):
        bridge_mc_density(m, (60.0, 0.0), SimConfig(n_paths=2000, n_steps=32, seed=0))


@pytest.mark.parametrize("H", [0.3, 0.7])
@pytest.mark.parametrize("n", [15, 64])
def test_bridge_stages_compose_to_weights(H, n):
    # weights is condition, then exp of log_weights, bit for bit; paths and
    # log_weights only read the conditioned rows, and the paths end at the endpoint
    m = ModelSpec(Hurst(H), 0.3, 0.1, -0.2, 0.25, parse_drift("0.5*sin(x) + y"),
                  parse_drift("cos(y) - x"), holder_gamma=0.3 if H > 0.5 else None)
    level = _BridgeLevel(m, n)
    endpoint = (0.2, -0.1)
    v = np.array([endpoint[0] - m.x0, endpoint[1] - m.y0])
    incr = math.sqrt(level.grid.dt) * np.random.default_rng(7).standard_normal((300, 2 * n))
    fresh = incr.copy()
    level.condition(incr, v)
    conditioned = incr.copy()
    x, y = level.paths(m, incr)
    np.testing.assert_allclose(x[:, -1], endpoint[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(y[:, -1], endpoint[1], rtol=0, atol=1e-12)
    log_w = level.log_weights(m, incr)
    assert np.array_equal(incr, conditioned)
    assert np.array_equal(np.exp(log_w), level.weights(m, fresh, v))
    assert np.array_equal(fresh, conditioned)


def test_bridge_log_weights_stay_finite_where_the_weights_overflow():
    # the overflow config: exponents near 2100, beyond exp's double range
    m = ModelSpec(Hurst(0.3), 0.4, 0.0, 0.0, 1.0, parse_drift("60"), ZERO)
    n = 32
    level = _BridgeLevel(m, n)
    v = np.array([60.0, 0.0])
    incr = math.sqrt(level.grid.dt) * np.random.default_rng(0).standard_normal((2000, 2 * n))
    fresh = incr.copy()
    level.condition(incr, v)
    log_w = level.log_weights(m, incr)
    assert np.isfinite(log_w).all() and log_w.min() > 709.8
    with np.errstate(over="ignore"):  # as in a block
        assert np.isinf(level.weights(m, fresh, v)).all()


def test_bridge_paths_die_before_the_transform():
    # log_weights holds x and y only until the drifts are evaluated, so one
    # 256-row block at n = 256 peaks near 4.1 arrays of the paths' (256, 257)
    # size (its increments exist before tracing starts); a stage taking x and
    # y as arguments would keep them through the inverse-transform product,
    # about 6.1 arrays.  The level and the drift plans are warmed first.
    m = ModelSpec(Hurst(0.3), 0.3, 0.0, 0.0, 0.25, parse_drift("0.5*sin(x)"),
                  parse_drift("0.5*cos(y)"))
    n, rows = 256, 256
    level = _BridgeLevel(m, n)
    v = np.array([0.1, 0.05])
    rng = np.random.default_rng(3)
    level.weights(m, math.sqrt(level.grid.dt) * rng.standard_normal((rows, 2 * n)), v)
    incr = math.sqrt(level.grid.dt) * rng.standard_normal((rows, 2 * n))
    peak = _traced_peak(lambda: level.weights(m, incr, v))
    assert peak < 4.5 * rows * (n + 1) * 8
