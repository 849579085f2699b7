"""Forward Monte Carlo, pointwise density estimation, and the bridge estimator.

Forward simulation reads the noise only through the pair (rho B + rho_bar W,
B^H) at the grid nodes.  That pair is an exact 2n-dimensional Gaussian (its
first half is a Brownian motion), drawn as one cached Cholesky factor of its
covariance times 2n normals per path, time-major; only the drift integrals are
discretized (Euler, left point, over the precomputed noise rows).

The bridge estimator conditions iid N(0, dt) driving increments on the
terminal point by a pathwise (Matheron) rank-2 correction, reconstructs paths
with Volterra weights, applies the inverse kernel transform to the sampled
drift integrand, and averages the Girsanov exponential; multiplied by the
Gaussian prefactor this estimates the exact joint density.  The same noise,
summed over adjacent step pairs, also runs on the grid of half the step
count; that coupled fine-minus-half-grid difference is the reported
discretization-bias estimate.

Both estimators run through one block runner.  Chunk k of a run with seed s
is cut into row blocks of _BLOCK_ROWS paths (the last one takes the
remainder), and block b draws its own numbers, inside its pool task, from
the counter-based Philox stream keyed s XOR k jumped b times (Salmon et al.,
SC 2011).  Jump 0 is the chunk's own stream, so a chunk small enough to be
one block draws exactly the numbers of one whole-chunk pass.  A chunk's sums
are taken over its concatenated block outputs, so the output depends on the
fixed block partition but is bit-identical at any worker count.  While a pool
of several workers runs the blocks, OpenBLAS runs one thread, so its threads
do not compete with the pool's; one worker leaves OpenBLAS its own thread
count: the bridge's path-major products give the same bits at any count.  The
forward's Cholesky factor and its time-major noise product do not, so the
forward runs OpenBLAS on one thread at any worker count, and no output
depends on OPENBLAS_NUM_THREADS.  The worker count is the ``workers``
argument, else MODALBRIDGE_THREADS, else the number of usable cores;
MODALBRIDGE_THREADS=1 runs every block on the calling thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .density import gaussian_prefactor
from .driftspec import DriftClass, DriftDomainError, ModelSpec, eval_drift, validate_assumptions
from .fraccalc import inverse_operator_matrix
from .kernel import (NumericalConditioningError, TimeGrid, cholesky_with_jitter,
                     joint_cov_matrix, volterra_weight_matrix)
from .opcache import OperatorCache

__all__ = [
    "BinEstimator",
    "KdeEstimator",
    "SimConfig",
    "PathEnsemble",
    "DensityEstimate",
    "BridgeDensityEstimate",
    "simulate_forward",
    "estimate_density_at",
    "bridge_mc_density",
    "volterra_weight_matrix",
]

_MAX_VALUES = 200_000_000  # n_steps * n_paths guard
# paths per pool task; each block draws its own substream, so results depend on
# this fixed partition (never on the worker count)
_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class BinEstimator:
    """Rectangular bin count centered at the query point."""

    width_x: float
    width_y: float

    def __post_init__(self) -> None:
        if not (self.width_x > 0.0 and self.width_y > 0.0):
            raise ValueError("bin widths must be positive")


@dataclass(frozen=True)
class KdeEstimator:
    """Product-Gaussian kernel density estimate."""

    bandwidth_x: float
    bandwidth_y: float

    def __post_init__(self) -> None:
        if not (self.bandwidth_x > 0.0 and self.bandwidth_y > 0.0):
            raise ValueError("bandwidths must be positive")


Estimator = Union[BinEstimator, KdeEstimator]


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo configuration; deterministic given (seed, chunk_size).

    Chunk k draws from the Philox stream keyed seed XOR k, one jumped
    substream per row block of the chunk, so the output is fixed by (seed,
    chunk_size) and the block partition, at any worker count.
    """

    n_paths: int
    n_steps: int
    seed: int
    chunk_size: int = 32768

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.n_paths * self.n_steps > _MAX_VALUES:
            raise ValueError(
                f"n_paths * n_steps = {self.n_paths * self.n_steps} exceeds the "
                f"memory budget guard {_MAX_VALUES}"
            )

    def chunks(self):
        """(chunk_index, chunk_length) pairs covering n_paths."""
        full, rem = divmod(self.n_paths, self.chunk_size)
        out = [(k, self.chunk_size) for k in range(full)]
        if rem:
            out.append((full, rem))
        return out


@dataclass(frozen=True)
class PathEnsemble:
    """Terminal samples of (X_T, Y_T), one entry per path in chunk order."""

    terminal_x: np.ndarray
    terminal_y: np.ndarray

    def __post_init__(self) -> None:
        if len(self.terminal_x) != len(self.terminal_y):
            raise ValueError("terminal arrays must have equal length")

    @property
    def n_paths(self) -> int:
        return len(self.terminal_x)


@dataclass(frozen=True)
class DensityEstimate:
    """Pointwise density estimate with its standard error."""

    value: float
    std_err: float
    n_effective: int

    def __post_init__(self) -> None:
        if not (self.value >= 0.0 and self.std_err >= 0.0):
            raise ValueError("estimate and standard error must be nonnegative, not NaN")


@dataclass(frozen=True)
class BridgeDensityEstimate(DensityEstimate):
    """Bridge estimate, with a grid-halving discretization-bias estimate."""

    discretization_bias: float = 0.0


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get("MODALBRIDGE_THREADS")
    if env:
        try:
            if int(env) >= 1:
                return int(env)
        except ValueError:
            pass
        warnings.warn(f"MODALBRIDGE_THREADS={env!r} is not a positive integer; "
                      "using 1 worker", RuntimeWarning)
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_rng(seed: int, k: int, b: int) -> np.random.Generator:
    """Block b of chunk k: the Philox stream keyed seed XOR k, jumped b times."""
    return np.random.Generator(np.random.Philox(key=(seed ^ k) & (2 ** 64 - 1)).jumped(b))


def _block_rows(m: int) -> list:
    """Row counts of the blocks that cover a chunk of m paths, in order.

    The last block also takes the remainder, so a block has at least
    _BLOCK_ROWS rows unless it is the whole chunk, and a chunk of fewer than
    2 * _BLOCK_ROWS paths is one block, which draws the chunk's own stream.
    """
    full, rem = divmod(m, _BLOCK_ROWS)
    if full == 0:
        return [m]
    return [_BLOCK_ROWS] * (full - 1) + [_BLOCK_ROWS + rem]


@functools.cache
def _openblas_threads():
    """(set, get) of the OpenBLAS thread count that numpy links, or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        try:
            set_threads = getattr(lib, f"{prefix}set_num_threads{suffix}")
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


# process-wide, as the OpenBLAS thread count itself is
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Run OpenBLAS with one thread inside the with-block, for the whole process.

    The count is process-wide, so entries are counted: the first sets it to 1,
    and the last restores the first one's count, also on an error.  Without a
    known OpenBLAS setter this does nothing.
    """
    global _blas_users, _blas_saved
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get_threads()
            set_threads(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_threads(_blas_saved)


def _run_blocks(config: SimConfig, kernel, workers: Optional[int]) -> list:
    """kernel(k, rng, rows) over the row blocks of every chunk; per chunk, its block results.

    Each block gets its own generator (_block_rng) and draws its numbers in
    the kernel.  One worker runs the blocks in order on the calling thread,
    with OpenBLAS free to thread its matmuls.  Otherwise the calling thread
    submits the blocks in chunk order to a pool with at most 2 x workers
    blocks in flight, with OpenBLAS on one thread.  A failing block raises in
    block order, after the pool has shut down, so the error is the same at
    any worker count.
    """
    def jobs():
        for k, m in config.chunks():
            for b, rows in enumerate(_block_rows(m)):
                yield k, _block_rng(config.seed, k, b), rows

    nw = _worker_count(workers)
    if nw == 1:
        done = [(k, kernel(k, rng, rows)) for k, rng, rows in jobs()]
    else:
        done, pending = [], deque()
        with _one_blas_thread():
            pool = ThreadPoolExecutor(max_workers=nw)
            try:
                for k, rng, rows in jobs():
                    pending.append((k, pool.submit(kernel, k, rng, rows)))
                    if len(pending) == 2 * nw:
                        k0, future = pending.popleft()
                        done.append((k0, future.result()))
                done.extend((k0, future.result()) for k0, future in pending)
            finally:
                pool.shutdown(cancel_futures=True)
    return [[r for _, r in group] for _, group in itertools.groupby(done, lambda d: d[0])]


# -- forward simulation ----------------------------------------------------------

def simulate_forward(model: ModelSpec, config: SimConfig,
                     workers: Optional[int] = None,
                     warn_horizon: bool = True) -> PathEnsemble:
    """Simulate (X_T, Y_T) under the drifted law.

    The noise pair (rho B + rho_bar W, B^H) is drawn exactly at the nodes, as
    one factor of its 2n-dimensional covariance times 2n normals per path;
    the drift integrals are left-point Euler sums added to it (the noise
    itself carries no discretization error).
    """
    if warn_horizon and model.drift_class is DriftClass.GENERAL:
        report = validate_assumptions(model)
        if model.T >= report.contraction_horizon:
            warnings.warn(
                f"T = {model.T:g} reaches the sampled contraction horizon "
                f"{report.contraction_horizon:.4g}; forward paths may be unreliable",
                RuntimeWarning,
            )
    grid = TimeGrid(model.T, config.n_steps)
    t = grid.nodes
    dt = grid.dt
    n = config.n_steps
    x0, y0 = float(model.x0), float(model.y0)

    def run_block(k, rng, m):
        z = rng.standard_normal((m, 2 * n))
        # time-major: row i (n + i) holds every path's X (Y) noise at node i + 1
        noise = factor @ z.T
        del z
        noise[:n] += x0
        noise[n:] += y0
        x, y = np.full(m, x0), np.full(m, y0)
        drift1, drift2 = np.zeros(m), np.zeros(m)
        for i in range(n):
            try:
                h1v = eval_drift(model.h1, t[i], x, y)
                h2v = eval_drift(model.h2, t[i], x, y)
            except DriftDomainError as exc:
                raise DriftDomainError(
                    f"drift evaluation failed at step {i} (t={t[i]:g}) in chunk {k}: {exc}"
                ) from exc
            drift1 += np.asarray(h1v) * dt
            drift2 += np.asarray(h2v) * dt
            x = np.add(noise[i], drift1, out=noise[i])
            y = np.add(noise[n + i], drift2, out=noise[n + i])
        return x.copy(), y.copy()  # rows of noise: copies let it go

    # the bits of the factor, and of a time-major product, depend on the BLAS
    # thread count, so the forward runs OpenBLAS on one thread at any worker count
    with _one_blas_thread():
        factor = _forward_factor(grid, model)  # here, so worker threads never touch the cache
        blocks = [r for chunk in _run_blocks(config, run_block, workers) for r in chunk]
    xs, ys = (np.concatenate([r[j] for r in blocks]) for j in (0, 1))
    return PathEnsemble(terminal_x=xs, terminal_y=ys)


_factor_cache = OperatorCache(4)


def _forward_factor(grid: TimeGrid, model: ModelSpec) -> np.ndarray:
    """Cached, read-only Cholesky factor of the node covariance of (rho B + rho_bar W, B^H).

    rho B + rho_bar W is a Brownian motion (rho^2 + rho_bar^2 = 1) whose
    covariance with B^H is rho times that of B, so this is the joint (B, B^H)
    covariance with both cross blocks scaled by rho; for |rho| < 1 it is
    positive definite at H = 1/2 as well.
    """
    def build():
        n = grid.n
        cov = joint_cov_matrix(grid, model.hurst)
        cov[:n, n:] *= model.rho
        cov[n:, :n] *= model.rho
        factor = cholesky_with_jitter(cov)
        factor.flags.writeable = False
        return factor
    return _factor_cache.get((model.H, model.rho, grid.T, grid.n), build)


# -- pointwise density estimation ---------------------------------------------------

def estimate_density_at(ensemble: PathEnsemble, point, estimator: Estimator) -> DensityEstimate:
    """Estimate the joint density of the terminal pair at one point.

    Bin: hits / (n * area) with binomial standard error; a zero-hit bin
    returns value 0 with the documented one-hit upper bound 1 / (n * area) as
    its standard error.  KDE: product-Gaussian kernel mean with the sample
    standard error of the kernel values.
    """
    if ensemble.n_paths == 0:
        raise ValueError("ensemble is empty")
    px, py = float(point[0]), float(point[1])
    n = ensemble.n_paths
    if isinstance(estimator, BinEstimator):
        area = estimator.width_x * estimator.width_y
        hits = int(np.count_nonzero(
            (np.abs(ensemble.terminal_x - px) <= 0.5 * estimator.width_x)
            & (np.abs(ensemble.terminal_y - py) <= 0.5 * estimator.width_y)
        ))
        p = hits / n
        if hits == 0:
            return DensityEstimate(0.0, 1.0 / (n * area), n)
        return DensityEstimate(p / area, math.sqrt(p * (1.0 - p) / n) / area, n)
    if isinstance(estimator, KdeEstimator):
        bx, by = estimator.bandwidth_x, estimator.bandwidth_y
        ux = (ensemble.terminal_x - px) / bx
        uy = (ensemble.terminal_y - py) / by
        vals = np.exp(-0.5 * (ux * ux + uy * uy)) / (2.0 * math.pi * bx * by)
        return DensityEstimate(float(vals.mean()),
                               float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
                               n)
    raise TypeError(f"unknown estimator {estimator!r}")


# -- bridge-measure estimator ---------------------------------------------------------

class _BridgeLevel:
    """The bridge estimator's operators on one grid of n steps, read-only.

    Before conditioning, the 2n increments [dB, dW] are iid N(0, dt).  The
    terminal point imposes two linear constraints a @ incr = v, with rows
    [rho, rho_bar] (for X_T) and [w_last, 0] (for Y_T, Volterra weights).
    The operators depend on (H, rho, T, n) only, so one level serves every
    drift and start point, and the pool's threads share it.
    """

    def __init__(self, model: ModelSpec, n: int):
        self.n, self.rho, self.rho_bar = n, model.rho, model.rho_bar
        self.grid = TimeGrid(model.T, n)
        self.w_full = volterra_weight_matrix(self.grid, model.hurst)
        self.a = np.zeros((2, 2 * n))
        self.a[0, :n], self.a[0, n:] = model.rho, model.rho_bar
        self.a[1, :n] = self.w_full[-1]
        self.g_inv = np.linalg.inv(self.a @ self.a.T)
        self.inv_op_t = np.ascontiguousarray(
            inverse_operator_matrix(self.grid, model.hurst)[:n].T)
        for op in (self.w_full, self.a, self.g_inv, self.inv_op_t):
            op.flags.writeable = False

    def condition(self, incr: np.ndarray, v: np.ndarray) -> None:
        """Pathwise (Matheron) conditioning in place: a row s ~ N(0, dt I) maps to
        s + a^T (a a^T)^-1 (v - a s), which has the exact conditional law."""
        incr += ((v - incr @ self.a.T) @ self.g_inv) @ self.a

    def weights(self, model: ModelSpec, incr: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
        """Girsanov weights of the rows of incr, conditioned here in place."""
        n, dt = self.n, self.grid.dt
        self.condition(incr, v)
        db, dw = incr[:, :n], incr[:, n:]
        x = np.zeros((len(incr), n + 1))
        np.multiply(db, self.rho, out=x[:, 1:])
        x[:, 1:] += self.rho_bar * dw
        np.cumsum(x, axis=1, out=x)
        x += model.x0
        y = np.zeros_like(x)
        np.matmul(db, self.w_full.T, out=y[:, 1:])
        y += model.y0
        tt = np.broadcast_to(self.grid.nodes, x.shape)
        try:
            g2 = np.asarray(eval_drift(model.h2, tt, x, y), dtype=float)
            g1 = np.asarray(eval_drift(model.h1, tt, x, y), dtype=float)
        except DriftDomainError as exc:
            raise DriftDomainError(f"bridge drift evaluation failed in chunk {k}: {exc}") from exc
        del x, y
        h2t = g2 @ self.inv_op_t
        h1t = np.multiply(h2t, -self.rho)
        h1t += g1[:, :n]
        h1t /= self.rho_bar
        del g1, g2
        dot = lambda p, q: np.einsum("ij,ij->i", p, q)
        expo = dot(h1t, dw) + dot(h2t, db) - 0.5 * dt * (dot(h1t, h1t) + dot(h2t, h2t))
        with np.errstate(over="ignore"):
            return np.exp(expo)


_level_cache = OperatorCache(8)


def _bridge_level(model: ModelSpec, n: int) -> _BridgeLevel:
    return _level_cache.get((model.H, model.rho, model.T, n), lambda: _BridgeLevel(model, n))


def bridge_mc_density(model: ModelSpec, endpoint, config: SimConfig,
                      workers: Optional[int] = None) -> BridgeDensityEstimate:
    """Bridge-measure Monte Carlo estimate of the exact joint density.

    Estimates phi * E[exp(Girsanov exponent)] under the terminal-pinned
    driftless law.  Each block also runs its noise, summed in adjacent pairs,
    on the grid of half the step count; the difference of the two estimates
    is the discretization-bias estimate.  Non-finite weight sums raise
    NumericalConditioningError.
    """
    n = config.n_steps
    nc = n // 2
    if nc < 2:
        raise ValueError(f"bridge needs n_steps >= 4 for its half grid, got {n}")
    fine, coarse = _bridge_level(model, n), _bridge_level(model, nc)
    v = np.array([endpoint[0] - model.x0, endpoint[1] - model.y0])

    def run_block(k, rng, m):
        incr = rng.standard_normal((m, 2 * n))
        incr *= math.sqrt(fine.grid.dt)
        # pairs within the dB and the dW half; an odd n leaves each half's last unpaired
        pairs = incr.reshape(m, 2, n)[:, :, :2 * nc].reshape(m, 2, nc, 2)
        coarse_incr = (pairs[..., 0] + pairs[..., 1]).reshape(m, 2 * nc)
        coarse_incr *= math.sqrt(coarse.grid.dt / (2.0 * fine.grid.dt))
        return fine.weights(model, incr, v, k), coarse.weights(model, coarse_incr, v, k)

    results = []
    for blocks in _run_blocks(config, run_block, workers):
        w, wc = (np.concatenate([b[j] for b in blocks]) for j in (0, 1))
        results.append((float(w.sum()), float((w * w).sum()), float(wc.sum())))
    s, s2, sc = (sum(r[j] for r in results) for j in range(3))
    if not all(math.isfinite(q) for q in (s, s2, sc)):
        raise NumericalConditioningError("bridge Girsanov weights overflow (non-finite sums)")
    count = config.n_paths
    mean = s / count
    var = max(s2 / count - mean * mean, 0.0) * count / max(count - 1, 1)
    phi = gaussian_prefactor(endpoint[0] - model.x0, endpoint[1] - model.y0, model)
    return BridgeDensityEstimate(value=phi * mean, std_err=phi * math.sqrt(var / count),
                                 n_effective=count,
                                 discretization_bias=phi * abs(mean - sc / count))
