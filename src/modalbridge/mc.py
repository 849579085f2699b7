"""Forward Monte Carlo, pointwise density estimation, and the bridge estimator.

Forward simulation reads the noise only through the pair (rho B + rho_bar W,
B^H) at the grid nodes.  That pair is an exact 2n-dimensional Gaussian (its
first half is a Brownian motion), drawn time-major as one cached Cholesky
factor of its covariance times 2n normals per path, a block's normals drawn in
row order in chunks of _NOISE_ROWS paths; only the drift integrals are
discretized (Euler, left point, over the precomputed noise rows).

The bridge estimator runs a grid level's stages: condition pins iid N(0, dt)
driving increments to the terminal point in place by a pathwise (Matheron)
rank-2 correction, paths rebuilds x and y with Volterra weights, and
log_weights applies the inverse kernel transform to the sampled drift
integrand and returns the Girsanov exponents; their mean exponential times
the Gaussian prefactor estimates the exact joint density.  The same noise,
summed over adjacent step pairs, also runs on the grid of half the step
count; that coupled difference is the discretization-bias estimate.

Both estimators run through one block runner.  A run with seed s is cut into
row blocks of its estimator's own size, the last one taking the remainder:
_FORWARD_BLOCK_ROWS paths for the forward, and fewer, _BRIDGE_BLOCK_ROWS, for
the bridge, whose block's arrays all exist at once.  Block b draws its own
numbers inside its pool task, from an SFC64 stream seeded by child b of the
SeedSequence of s, SeedSequence(s, spawn_key=(b,)), numpy's way to make
independent parallel streams: the bridge in one call, the forward in chunks of
_NOISE_ROWS paths in row order, which read the stream exactly as one call
would.  A run small enough to be one block draws block 0's stream in one
whole-run pass.  The run takes each block's results (the forward's terminal
points, the bridge's centred weight sums) in block order as they come, and
holds only its output and the blocks in flight (else MemoryError).  So the
output depends on the block partition, never on the worker count.  At every
worker count each block runs on a pool thread with numpy's overflow and
invalid warnings off and OpenBLAS on one thread; a block whose results are not
finite raises, naming its block, and the bridge also checks its merged sums.
Beyond the blocks only the forward's Cholesky factor is built with OpenBLAS
pinned, as its bits depend on the thread count, so no output depends on
OPENBLAS_NUM_THREADS.  The worker count is the ``workers`` argument, else
MODALBRIDGE_THREADS, else the number of usable cores.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import opcache
from .density import gaussian_prefactor
from .driftspec import DriftClass, DriftDomainError, ModelSpec, eval_drift
from .fraccalc import inverse_operator_matrix
from .kernel import (NumericalConditioningError, TimeGrid, cholesky_with_jitter,
                     joint_cov_matrix, volterra_weight_matrix)

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

# paths per pool task, per estimator; each block draws its own substream, so
# results depend on this fixed partition (never on the worker count)
_FORWARD_BLOCK_ROWS = 2048
# small, as a bridge block's arrays all exist at once (about 4 MB at n = 256)
_BRIDGE_BLOCK_ROWS = 256
# forward paths per noise draw and product; _row_counts keeps each chunk this
# wide, as OpenBLAS can round a narrower product differently
_NOISE_ROWS = 512


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
    """Monte Carlo configuration; deterministic given the seed.

    Row block b draws from an SFC64 stream seeded by child b of the seed's
    SeedSequence, so the output is fixed by the seed and the block partition,
    at any worker count.  A run too large for memory raises MemoryError.
    """

    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class PathEnsemble:
    """Terminal samples of (X_T, Y_T), one entry per path in block order."""

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


def _block_rng(seed: int, b: int) -> np.random.Generator:
    """Block b: an SFC64 stream seeded by child b of the seed's SeedSequence."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


def _row_counts(m: int, size: int) -> list:
    """Row counts of the parts of size rows that cover m rows, in order.

    The last part also takes the remainder, so a part has at least size rows
    unless it is the whole, and fewer than 2 * size rows are one part: one
    block, which draws block 0's stream.
    """
    full, rem = divmod(m, size)
    if full == 0:
        return [m]
    return [size] * (full - 1) + [size + rem]


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


def _run_blocks(config: SimConfig, block_rows: int, kernel, workers: Optional[int]):
    """Yield kernel(rng, rows) over the run's blocks of block_rows rows, in block order.

    Each block gets its own generator (_block_rng) and draws its numbers in
    the kernel.  The calling thread submits the blocks in order to a pool of
    one thread per worker, with at most 2 x workers blocks in flight and no
    other result kept; every block runs on a pool thread with OpenBLAS (pinned
    until the generator ends or closes) on one thread and numpy's overflow
    and invalid warnings off: a kernel raises on non-finite results.  Its
    DriftDomainError or NumericalConditioningError gets "in block b" added and
    raises in block order after the pool has shut down, so it is the same at
    any worker count; blocks not yet started then, or at a close, never run.
    """
    def task(b, rng, rows):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return kernel(rng, rows)
        except (DriftDomainError, NumericalConditioningError) as exc:
            raise type(exc)(f"{exc} in block {b}") from exc

    nw = _worker_count(workers)
    pending = deque()
    with _one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=nw)
        try:
            for b, rows in enumerate(_row_counts(config.n_paths, block_rows)):
                pending.append(pool.submit(task, b, _block_rng(config.seed, b), rows))
                if len(pending) == 2 * nw:
                    yield pending.popleft().result()
            yield from (future.result() for future in pending)
        finally:
            pool.shutdown(cancel_futures=True)


# -- forward simulation ----------------------------------------------------------

# one block's Euler loop at a time: its small numpy calls each release and
# retake the GIL, so two loops at once convoy and run slower than one
_euler_lock = threading.Lock()


def simulate_forward(model: ModelSpec, config: SimConfig,
                     workers: Optional[int] = None) -> PathEnsemble:
    """Simulate (X_T, Y_T) under the drifted law.

    The noise pair (rho B + rho_bar W, B^H) is drawn exactly at the nodes, as
    one factor of its 2n-dimensional covariance times 2n normals per path (a
    block holds its noise and the normals of one chunk of _NOISE_ROWS paths);
    the drift integrals are left-point Euler sums added to it (the noise
    itself carries no discretization error).  A state-dependent drift's
    :func:`validate_assumptions` violations, or the report's being skipped,
    are RuntimeWarnings on every call (the check runs once per model) and
    never stop the run.  An output too large for memory raises MemoryError
    before any drift is evaluated.  A block whose drift is undefined on its
    paths raises DriftDomainError, and one whose terminal values are not
    finite NumericalConditioningError, naming its block.
    """
    if model.drift_class is not DriftClass.TIME_ONLY:
        for v in model._assumption_warnings:  # checked once per model
            warnings.warn(v, RuntimeWarning, stacklevel=2)
    grid = TimeGrid(model.T, config.n_steps)
    t = grid.nodes
    dt = grid.dt
    n = config.n_steps
    x0, y0 = float(model.x0), float(model.y0)

    def run_block(rng, m):
        # time-major: row i (n + i) holds every path's X (Y) noise at node i + 1
        noise = np.empty((2 * n, m))
        lo = 0
        for rows in _row_counts(m, _NOISE_ROWS):
            part = noise[:, lo:lo + rows]
            np.matmul(factor, rng.standard_normal((rows, 2 * n)).T, out=part)
            part[:n] += x0
            part[n:] += y0
            lo += rows
        x, y = np.full(m, x0), np.full(m, y0)
        drift1, drift2 = np.zeros(m), np.zeros(m)
        with _euler_lock:  # non-finite terminals raise below
            for i in range(n):
                try:
                    h1v = eval_drift(model.h1, t[i], x, y)
                    h2v = eval_drift(model.h2, t[i], x, y)
                except DriftDomainError as exc:
                    raise DriftDomainError(
                        f"drift evaluation failed at step {i} (t={t[i]:g}): {exc}"
                    ) from exc
                drift1 += np.asarray(h1v) * dt
                drift2 += np.asarray(h2v) * dt
                x = np.add(noise[i], drift1, out=noise[i])
                y = np.add(noise[n + i], drift2, out=noise[n + i])
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise NumericalConditioningError("forward paths overflow (non-finite terminal values)")
        return x.copy(), y.copy()  # rows of noise: copies let it go

    xs, ys = np.empty(config.n_paths), np.empty(config.n_paths)
    factor = _forward_factor(grid, model)  # here, so pool tasks never look up the store
    blocks = _run_blocks(config, _FORWARD_BLOCK_ROWS, run_block, workers)
    for lo, (x, y) in zip(range(0, config.n_paths, _FORWARD_BLOCK_ROWS), blocks):
        xs[lo:lo + len(x)], ys[lo:lo + len(x)] = x, y  # the last block takes the remainder
    return PathEnsemble(terminal_x=xs, terminal_y=ys)


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
        with _one_blas_thread():  # the factor's bits depend on the BLAS thread count
            return cholesky_with_jitter(cov)
    return opcache.get("forward_factor", (model.H, model.rho, grid.T, grid.n), build)


# -- pointwise density estimation ---------------------------------------------------

def estimate_density_at(ensemble: PathEnsemble, point, estimator: Estimator) -> DensityEstimate:
    """Estimate the joint density of the terminal pair at one point.

    Bin: hits / (n * area) with binomial standard error; a zero-hit bin
    returns value 0 with the documented one-hit upper bound 1 / (n * area) as
    its standard error.  KDE: product-Gaussian kernel mean with the sample
    standard error of the kernel values, each 0 where it underflows.
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
        with np.errstate(over="ignore"):  # a far terminal's squared distance is inf
            ux = (ensemble.terminal_x - px) / bx
            uy = (ensemble.terminal_y - py) / by
            vals = np.exp(-0.5 * (ux * ux + uy * uy)) / (2.0 * math.pi * bx * by)
        return DensityEstimate(float(vals.mean()),
                               float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
                               n)
    raise TypeError(f"unknown estimator {estimator!r}")


# -- bridge-measure estimator ---------------------------------------------------------

class _BridgeLevel:
    """The bridge estimator's operators on one grid of n steps, read-only once stored.

    Before conditioning, the 2n increments [dB, dW] are iid N(0, dt).  The
    terminal point imposes two linear constraints a @ incr = v, with rows
    [rho, rho_bar] (for X_T) and [w_last, 0] (for Y_T, Volterra weights).
    The operators depend on (H, rho, T, n) only, so one level serves every
    drift and start point, and the pool's threads share it.  Its stages:
    condition pins the rows of incr in place, the only stage that writes its
    input; paths reads them into new arrays x and y; log_weights reads them,
    drops its paths before the inverse transform and returns the exponents.
    """

    def __init__(self, model: ModelSpec, n: int):
        self.n, self.rho, self.rho_bar = n, model.rho, model.rho_bar
        self.grid = TimeGrid(model.T, n)
        self.nodes = self.grid.nodes  # here, so pool tasks never look up the store
        self.w_full = volterra_weight_matrix(self.grid, model.hurst)
        self.a = np.zeros((2, 2 * n))
        self.a[0, :n], self.a[0, n:] = model.rho, model.rho_bar
        self.a[1, :n] = self.w_full[-1]
        self.g_inv = np.linalg.inv(self.a @ self.a.T)
        self.inv_op_t = np.ascontiguousarray(
            inverse_operator_matrix(self.grid, model.hurst)[:n].T)

    def condition(self, incr: np.ndarray, v: np.ndarray) -> None:
        """Pathwise (Matheron) conditioning in place: a row s ~ N(0, dt I) maps to
        s + a^T (a a^T)^-1 (v - a s), which has the exact conditional law.

        Row-local: a s comes from each row's own sums, rho sum(dB) + rho_bar
        sum(dW) and dB . w_last, and the 2 x 2 g_inv and the rank-2 update are
        applied by broadcasting.  So a row's result depends on its own values
        only, never on how many rows are conditioned together, as the rounding
        of an (m, 2n) x (2n, 2) matrix product can.
        """
        n = self.n
        db, dw = incr[:, :n], incr[:, n:]
        w_last = self.a[1, :n]
        r0 = v[0] - (self.rho * db.sum(axis=1) + self.rho_bar * dw.sum(axis=1))
        r1 = v[1] - np.einsum("ij,j->i", db, w_last)
        (g00, g01), (g10, g11) = self.g_inv
        c0 = (r0 * g00 + r1 * g10)[:, None]
        c1 = (r0 * g01 + r1 * g11)[:, None]
        db += c0 * self.rho + c1 * w_last
        dw += c0 * self.rho_bar

    def paths(self, model: ModelSpec, incr: np.ndarray) -> tuple:
        """The (rows, n+1) paths x and y of the rows of incr, which it only reads."""
        n = self.n
        db, dw = incr[:, :n], incr[:, n:]
        x = np.zeros((len(incr), n + 1))
        np.multiply(db, self.rho, out=x[:, 1:])
        x[:, 1:] += self.rho_bar * dw
        np.cumsum(x, axis=1, out=x)
        x += model.x0
        y = np.zeros_like(x)
        np.matmul(db, self.w_full.T, out=y[:, 1:])
        y += model.y0
        return x, y

    def log_weights(self, model: ModelSpec, incr: np.ndarray) -> np.ndarray:
        """Girsanov exponents of the rows of incr, which it only reads."""
        n, dt = self.n, self.grid.dt
        db, dw = incr[:, :n], incr[:, n:]
        x, y = self.paths(model, incr)
        tt = np.broadcast_to(self.nodes, x.shape)
        g2 = np.asarray(eval_drift(model.h2, tt, x, y), dtype=float)
        g1 = np.asarray(eval_drift(model.h1, tt, x, y), dtype=float)
        del x, y
        h2t = g2 @ self.inv_op_t
        h1t = np.multiply(h2t, -self.rho)
        h1t += g1[:, :n]
        h1t /= self.rho_bar
        del g1, g2
        dot = lambda p, q: np.einsum("ij,ij->i", p, q)
        return dot(h1t, dw) + dot(h2t, db) - 0.5 * dt * (dot(h1t, h1t) + dot(h2t, h2t))

    def weights(self, model: ModelSpec, incr: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Girsanov weights of the rows of incr: condition, then exp of log_weights."""
        self.condition(incr, v)
        return np.exp(self.log_weights(model, incr))


def _bridge_level(model: ModelSpec, n: int) -> _BridgeLevel:
    return opcache.get("bridge_level", (model.H, model.rho, model.T, n),
                        lambda: _BridgeLevel(model, n))


def _finite_sums(*sums) -> tuple:
    """sums, or NumericalConditioningError if one of these weight sums is not finite."""
    if not all(map(math.isfinite, sums)):
        raise NumericalConditioningError("bridge Girsanov weights overflow (non-finite sums)")
    return sums


def bridge_mc_density(model: ModelSpec, endpoint, config: SimConfig,
                      workers: Optional[int] = None) -> BridgeDensityEstimate:
    """Bridge-measure Monte Carlo estimate of the exact joint density.

    Estimates phi * E[exp(Girsanov exponent)] under the terminal-pinned
    driftless law.  Each block also runs its noise, summed in adjacent pairs,
    on the grid of half the step count; the difference of the two estimates
    is the discretization-bias estimate.  A block of _BRIDGE_BLOCK_ROWS rows
    draws its normals in one call, then conditions and weighs them on both
    levels, so a block in flight holds about 4 MB at n = 256.  Each block
    returns its row count, the mean of its w, the sum of squares of w about
    that mean and the sum of its half-grid w, each a pairwise sum over the
    block's own arrays; the run merges them as they come, in block order, by
    the pairwise update of Chan, Golub & LeVeque (1983), so the variance never
    comes from the cancelling difference of raw sums.  A block whose sums are
    not finite raises NumericalConditioningError naming it; non-finite merged
    sums too.  The endpoint is read first, by ModelSpec.displacement.
    """
    dx, dy = model.displacement(endpoint)
    n = config.n_steps
    nc = n // 2
    if nc < 2:
        raise ValueError(f"bridge needs n_steps >= 4 for its half grid, got {n}")
    fine, coarse = _bridge_level(model, n), _bridge_level(model, nc)
    v = np.array([dx, dy])

    def run_block(rng, m):
        incr = rng.standard_normal((m, 2 * n))
        incr *= math.sqrt(fine.grid.dt)
        # pairs within the dB and the dW half; an odd n leaves each half's last unpaired
        pairs = incr.reshape(m, 2, n)[:, :, :2 * nc].reshape(m, 2, nc, 2)
        coarse_incr = (pairs[..., 0] + pairs[..., 1]).reshape(m, 2 * nc)
        coarse_incr *= math.sqrt(coarse.grid.dt / (2.0 * fine.grid.dt))
        w = fine.weights(model, incr, v)
        wc = coarse.weights(model, coarse_incr, v)
        mean = float(w.mean())
        return (m, *_finite_sums(mean, float(np.square(w - mean).sum()), float(wc.sum())))

    count, mean, m2, sc = 0, 0.0, 0.0, 0.0
    for m, block_mean, block_m2, block_sc in _run_blocks(config, _BRIDGE_BLOCK_ROWS,
                                                         run_block, workers):
        # Chan, Golub & LeVeque's pairwise update of the count, mean and centred sum
        total = count + m
        delta = block_mean - mean
        mean += delta * (m / total)
        m2 += block_m2 + delta * delta * (count * m / total)
        count, sc = total, sc + block_sc
    _finite_sums(mean, m2, sc)  # finite blocks can still overflow when merged
    var = m2 / max(count - 1, 1)
    phi = gaussian_prefactor(dx, dy, model)
    return BridgeDensityEstimate(value=phi * mean, std_err=phi * math.sqrt(var / count),
                                 n_effective=count,
                                 discretization_bias=phi * abs(mean - sc / count))
