"""Forward Monte Carlo, pointwise density estimation, and the bridge estimator.

Forward simulation draws the exact joint Gaussian vector of (B, B^H) at the
grid nodes (Cholesky of the joint covariance), adds an independent Brownian
component, and discretizes only the drift integrals (Euler, left point, run
time-major over contiguous per-step state vectors).

The bridge estimator conditions iid N(0, dt) driving increments on the
terminal point by a pathwise (Matheron) rank-2 correction, reconstructs paths
with Volterra weights, applies the inverse kernel transform to the sampled
drift integrand, and averages the Girsanov exponential; multiplied by the
Gaussian prefactor this estimates the exact joint density.  The same noise,
summed over adjacent step pairs, also runs on the grid of half the step
count; that coupled fine-minus-half-grid difference is the reported
discretization-bias estimate.

Determinism: all sampling uses counter-based Philox streams; chunk k of a run
with seed s uses the stream keyed s XOR k, and chunk results are merged in
chunk order, so the worker count never changes the output.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .density import gaussian_prefactor
from .driftspec import DriftClass, DriftDomainError, ModelSpec, eval_drift, validate_assumptions
from .fraccalc import inverse_operator_matrix
from .kernel import (Hurst, NumericalConditioningError, TimeGrid, cholesky_with_jitter,
                     draw_joint_paths, joint_cov_matrix, volterra_weight_matrix)
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
    """Monte Carlo configuration; deterministic given (seed, chunk_size)."""

    n_paths: int
    n_steps: int
    seed: int
    estimator: Optional[Estimator] = None
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
    """Terminal samples of (X_T, Y_T), reproducible from (seed, model, config)."""

    terminal_x: np.ndarray
    terminal_y: np.ndarray
    seed: int
    model_fingerprint: str
    full_paths: Optional[tuple] = None

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


def _fingerprint(model: ModelSpec) -> str:
    return (f"H={model.H:.17g};rho={model.rho:.17g};x0={model.x0:.17g};"
            f"y0={model.y0:.17g};T={model.T:.17g};h1={model.h1.to_source()};"
            f"h2={model.h2.to_source()}")


def _chunk_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed ^ k) & (2 ** 64 - 1)))


def _map_chunks(run_chunk, config: SimConfig, workers: Optional[int]) -> list:
    """run_chunk over config.chunks(); results in chunk order at any worker count."""
    chunks = config.chunks()
    nw = _worker_count(workers)
    if nw > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=nw) as pool:
            return list(pool.map(run_chunk, chunks))
    return [run_chunk(c) for c in chunks]


# -- forward simulation ----------------------------------------------------------

def simulate_forward(model: ModelSpec, config: SimConfig,
                     workers: Optional[int] = None,
                     keep_paths: bool = False,
                     warn_horizon: bool = True) -> PathEnsemble:
    """Simulate (X_T, Y_T) under the drifted law.

    The (B, B^H) pair is drawn exactly at the nodes; W is an independent
    Brownian motion; the drift integrals are left-point Euler sums (the fBm
    term itself carries no discretization error).
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
    rho, rho_bar = model.rho, model.rho_bar
    chol = _joint_cholesky(grid, model.hurst)  # here, so worker threads never touch the cache

    def run_chunk(args):
        k, m = args
        rng = _chunk_rng(config.seed, k)
        b, bh = draw_joint_paths(grid, model.hurst, rng, m, chol=chol)
        # time-major: row i holds every path's value at node (or step) i
        b, bh = np.ascontiguousarray(b.T), np.ascontiguousarray(bh.T)
        dw = np.ascontiguousarray(rng.standard_normal((m, n)).T)
        dw *= math.sqrt(dt)
        x = np.full(m, float(model.x0))
        y = np.full(m, float(model.y0))
        drift2 = np.zeros(m)
        if keep_paths:
            xs, ys = np.empty((n + 1, m)), np.empty((n + 1, m))
            xs[0], ys[0] = x, y
        for i in range(n):
            try:
                h1v = eval_drift(model.h1, t[i], x, y)
                h2v = eval_drift(model.h2, t[i], x, y)
            except DriftDomainError as exc:
                raise DriftDomainError(
                    f"drift evaluation failed at step {i} (t={t[i]:g}) in chunk {k}: {exc}"
                ) from exc
            x = x + rho * (b[i + 1] - b[i]) + rho_bar * dw[i] + np.asarray(h1v) * dt
            drift2 = drift2 + np.asarray(h2v) * dt
            y = model.y0 + bh[i + 1] + drift2
            if keep_paths:
                xs[i + 1], ys[i + 1] = x, y
        if keep_paths:
            return xs.T, ys.T
        return x, y

    results = _map_chunks(run_chunk, config, workers)
    xs, ys = (np.concatenate([r[j] for r in results]) for j in (0, 1))
    if keep_paths:
        return PathEnsemble(terminal_x=xs[:, -1].copy(), terminal_y=ys[:, -1].copy(),
                            seed=config.seed, model_fingerprint=_fingerprint(model),
                            full_paths=(xs, ys))
    return PathEnsemble(terminal_x=xs, terminal_y=ys, seed=config.seed,
                        model_fingerprint=_fingerprint(model))


_chol_cache = OperatorCache(4)


def _joint_cholesky(grid: TimeGrid, hurst: Hurst) -> Optional[np.ndarray]:
    """Cached Cholesky factor of the joint (B, B^H) node covariance; None at H = 1/2."""
    if hurst.is_brownian:
        return None
    return _chol_cache.get((hurst.H, grid.T, grid.n),
                           lambda: cholesky_with_jitter(joint_cov_matrix(grid, hurst)))


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

_invop_cache = OperatorCache(4)


def _inverse_operator_matrix(grid: TimeGrid, hurst: Hurst) -> np.ndarray:
    """Read-only matrix of the integrand-mode inverse kernel transform on the grid."""
    def build():
        op = inverse_operator_matrix(grid, hurst)
        op.flags.writeable = False
        return op
    return _invop_cache.get((hurst.H, grid.T, grid.n), build)


class _BridgeLevel:
    """The bridge estimator's operators on one grid of n steps.

    Before conditioning, the 2n increments [dB, dW] are iid N(0, dt).  The
    terminal point imposes two linear constraints a @ incr = v, with rows
    [rho, rho_bar] (for X_T) and [w_last, 0] (for Y_T, Volterra weights).
    """

    def __init__(self, model: ModelSpec, n: int):
        self.model, self.n = model, n
        self.grid = TimeGrid(model.T, n)
        self.w_full = volterra_weight_matrix(self.grid, model.hurst)
        self.a = np.zeros((2, 2 * n))
        self.a[0, :n], self.a[0, n:] = model.rho, model.rho_bar
        self.a[1, :n] = self.w_full[-1]
        self.g_inv = np.linalg.inv(self.a @ self.a.T)
        self.inv_op_t = np.ascontiguousarray(
            _inverse_operator_matrix(self.grid, model.hurst)[:n].T)

    def condition(self, incr: np.ndarray, v: np.ndarray) -> None:
        """Pathwise (Matheron) conditioning in place: a row s ~ N(0, dt I) maps to
        s + a^T (a a^T)^-1 (v - a s), which has the exact conditional law."""
        incr += ((v - incr @ self.a.T) @ self.g_inv) @ self.a

    def weights(self, incr: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
        """Girsanov weights of the rows of incr, conditioned here in place."""
        model, n, dt = self.model, self.n, self.grid.dt
        self.condition(incr, v)
        db, dw = incr[:, :n], incr[:, n:]
        x = np.zeros((len(incr), n + 1))
        np.multiply(db, model.rho, out=x[:, 1:])
        x[:, 1:] += model.rho_bar * dw
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
        h1t = np.multiply(h2t, -model.rho)
        h1t += g1[:, :n]
        h1t /= model.rho_bar
        del g1, g2
        dot = lambda p, q: np.einsum("ij,ij->i", p, q)
        expo = dot(h1t, dw) + dot(h2t, db) - 0.5 * dt * (dot(h1t, h1t) + dot(h2t, h2t))
        with np.errstate(over="ignore"):
            return np.exp(expo)


def bridge_mc_density(model: ModelSpec, endpoint, config: SimConfig,
                      workers: Optional[int] = None) -> BridgeDensityEstimate:
    """Bridge-measure Monte Carlo estimate of the exact joint density.

    Estimates phi * E[exp(Girsanov exponent)] under the terminal-pinned
    driftless law.  Each chunk also runs its noise, summed in adjacent pairs,
    on the grid of half the step count; the difference of the two estimates
    is the discretization-bias estimate.  Non-finite weight sums raise
    NumericalConditioningError.
    """
    n = config.n_steps
    nc = n // 2
    if nc < 2:
        raise ValueError(f"bridge needs n_steps >= 4 for its half grid, got {n}")
    fine, coarse = _BridgeLevel(model, n), _BridgeLevel(model, nc)
    v = np.array([endpoint[0] - model.x0, endpoint[1] - model.y0])

    def run_chunk(args):
        k, m = args
        incr = _chunk_rng(config.seed, k).standard_normal((m, 2 * n))
        incr *= math.sqrt(fine.grid.dt)
        # pairs within the dB and the dW block; an odd n leaves each block's last unpaired
        pairs = incr.reshape(m, 2, n)[:, :, :2 * nc].reshape(m, 2, nc, 2)
        coarse_incr = (pairs[..., 0] + pairs[..., 1]).reshape(m, 2 * nc)
        coarse_incr *= math.sqrt(coarse.grid.dt / (2.0 * fine.grid.dt))
        w = fine.weights(incr, v, k)
        del incr, pairs  # free the fine level before the half grid runs (peak memory)
        wc = coarse.weights(coarse_incr, v, k)
        return float(w.sum()), float((w * w).sum()), float(wc.sum())

    results = _map_chunks(run_chunk, config, workers)
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
