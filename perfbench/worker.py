"""One benchmark process: set up, run timed units of one workload, check outputs.

``run.py`` starts this script in a fresh interpreter for every set-up it
measures, so import and warm-up costs are paid anew each time.  The protocol
is two stdout lines: ``ready`` once set-up is done (the parent times process
start to this line as ``setup_s``), then one JSON object with the unit and
reference timings, the check tally and, with ``--trace 1``, the per-layer
table.

The workload inputs are derived here from ``--seed``; the library receives
only the generated models, endpoints and Monte Carlo seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import modalbridge as mb  # noqa: E402

# -- workload definitions ---------------------------------------------------------

T = 0.25
RHO = 0.3
H1 = "0.5*sin(x)"
H2 = "0.5*cos(y)"
N_DENSITY = 512
DENSITY_HS = (0.2, 0.3, 0.4, 0.7)      # 3:1 rough-to-smooth endpoint mix
DENSITY_PER_H = 64                      # endpoints per H in one 256-endpoint batch
EXPECTED_ALPHA = {0.2: 0.4, 0.3: 0.6, 0.4: 0.8, 0.7: 3.0 - 4.0 * 0.7}
# fixed (unseeded) endpoints whose densities reference.json stores for this commit
DENSITY_ANCHORS = ((0.0, 0.0), (0.3, -0.2), (-0.4, 0.5), (0.6, 0.3))
TIMEONLY_DRIFTS = ("0.2", "-0.1")
# ROADMAP item 4: approx_density raises OverflowError here although the exact
# density (time-only drifts) is about 0.173.  The case is evaluated once per
# run and reported as a known defect, outside the attempted/failed tally, so
# that every counted operation of the workload is one that can succeed.
OVERFLOW_CASE = dict(H=0.3, rho=0.4, T=1.0, h1="60", h2="0", endpoint=(60.0, 0.0))

MC_H = 0.3
# One bridge call is one half-size chunk (the library's chunk is 32768 paths)
# and one forward call one chunk, so a run makes about a dozen of each: enough
# for the low-quantile call time that batch_s reports.  Compare throughput (path
# steps per second) with the 100k x 256 and 200k x 128 rows of ROADMAP item 1.
BRIDGE_PATHS, BRIDGE_STEPS = 16_384, 256
FORWARD_PATHS, FORWARD_STEPS = 32_768, 128
WARMUP_PATHS = 2048
# Seeded MC endpoints are drawn from these near-mode points, whose densities
# reference.json stores; near the mode the estimators' variance, and so the
# time-to-accuracy metrics, change little from seed to seed.
MC_CANDIDATES = ((0.0, 0.1), (-0.1, 0.0), (0.1, 0.0), (-0.1, 0.2),
                 (0.1, 0.2), (0.05, -0.05), (-0.05, 0.25), (0.15, 0.1))
KDE_FRACTION = 0.1        # KDE bandwidth as a share of each terminal s.d.
# MC checks allow 5 x (combined s.e. + bridge halving bias).  The KDE also
# carries an unreported smoothing bias of about -1% (about 0.6 of its s.e. at
# 200k paths), and comparing two commits makes thousands of these checks, so a
# 3 x rule fails by chance.
MC_MULTIPLE = 5.0

WORKLOADS = ("density_batch", "mc_estimators")


def make_model(H, h1=H1, h2=H2, rho=RHO, horizon=T):
    """Model of the workloads: x0 = y0 = 0; holder_gamma = H/2 above 1/2."""
    return mb.ModelSpec(mb.Hurst(H), rho, 0.0, 0.0, horizon, mb.parse_drift(h1),
                        mb.parse_drift(h2), holder_gamma=H / 2 if H > 0.5 else None)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def terminal_cov(model) -> np.ndarray:
    """Covariance of (X_T, Y_T) under the driftless law."""
    off = model.rho_H * model.T ** (model.H + 0.5)
    return np.array([[model.T, off], [off, model.T ** (2.0 * model.H)]])


def terminal_draws(model, rng, count: int) -> list:
    """Endpoints drawn from the model's driftless terminal law."""
    z = rng.standard_normal((count, 2)) @ np.linalg.cholesky(terminal_cov(model)).T
    return [(model.x0 + float(a), model.y0 + float(b)) for a, b in z]


def gaussian_density(model, endpoint) -> float:
    """Driftless terminal density, computed independently of the library."""
    cov = terminal_cov(model)
    d = np.array([endpoint[0] - model.x0, endpoint[1] - model.y0])
    quad = float(d @ np.linalg.solve(cov, d))
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))


def mc_seed(seed: int, *stream: int) -> int:
    return int(rng_for(seed, *stream).integers(1, 2 ** 62))


def kde_for(model):
    return mb.KdeEstimator(KDE_FRACTION * math.sqrt(model.T), KDE_FRACTION * model.T ** model.H)


def load_reference() -> dict:
    return json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


# -- outputs: checks and digest ----------------------------------------------------

class Tally:
    """Operations attempted, failed (raised or failed a check) and an output digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.raised = []
        self.mismatches = []
        self._digest = hashlib.sha256()

    def outcome(self, label: str, result, check) -> None:
        """Count one operation; ``check(result)`` returns an error text or None."""
        self.attempted += 1
        self._digest.update(f"{label}={output_fields(result)!r};".encode())
        if isinstance(result, Exception):
            self.failed += 1
            self.raised.append(f"{label}: {type(result).__name__}: {result}")
            return
        problem = check(result)
        if problem:
            self.failed += 1
            self.mismatches.append(f"{label}: {problem}")

    def note(self, label: str, result) -> None:
        """Record a result in the digest only; it is not an attempted operation."""
        self._digest.update(f"{label}={output_fields(result)!r};".encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def output_fields(result):
    """The numbers of one library result, as the digest records them."""
    if isinstance(result, Exception):
        return type(result).__name__
    if isinstance(result, mb.DensityApprox):
        return density_fields(result)
    if isinstance(result, mb.DensityEstimate):
        return estimate_fields(result)
    return result


def call(fn, *args, **kwargs):
    """Run one library call; an exception becomes the result so the run goes on."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none ends the run
        return exc


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def density_fields(d) -> tuple:
    return (d.phi, d.omega_full, d.omega_1, d.alpha, d.p_hat, d.p_hat_full)


def check_density(model, endpoint, alpha):
    """Internal consistency of one DensityApprox, and phi against our own Gaussian."""
    def check(d):
        vals = density_fields(d)
        if not all(math.isfinite(v) for v in vals if v != math.inf):
            return f"non-finite field in {vals}"
        if not (d.phi > 0.0 and d.p_hat > 0.0 and d.p_hat_full > 0.0):
            return f"non-positive density {vals}"
        if rel_err(d.p_hat, d.phi * math.exp(d.omega_1)) > 1e-12:
            return "p_hat != phi exp(omega_1)"
        if rel_err(d.p_hat_full, d.phi * math.exp(d.omega_full)) > 1e-12:
            return "p_hat_full != phi exp(omega_full)"
        if rel_err(d.phi, gaussian_density(model, endpoint)) > 1e-10:
            return f"phi {d.phi!r} != Gaussian {gaussian_density(model, endpoint)!r}"
        if abs(d.alpha - alpha) > 1e-12:
            return f"alpha {d.alpha} != {alpha}"
        return None
    return check


def check_timeonly(model, endpoint):
    """Criterion 6: p_hat_full equals the closed-form Gaussian density to 1e-8."""
    exact = mb.exact_timeonly_density(model, endpoint)

    def check(d):
        err = rel_err(d.p_hat_full, exact)
        return None if err <= 1e-8 else f"p_hat_full {d.p_hat_full!r} vs exact {exact!r}"
    return check


def check_positive_finite(value: float, std_err: float):
    if not (math.isfinite(value) and value > 0.0 and math.isfinite(std_err)):
        return f"estimate {value!r} (s.e. {std_err!r}) is not finite and positive"
    return None


def check_against(ref: dict):
    """Estimate within MC_MULTIPLE x (own s.e. + bias + reference s.e. + bias)."""
    def check(est):
        problem = check_positive_finite(est.value, est.std_err)
        if problem:
            return problem
        bias = getattr(est, "discretization_bias", 0.0)
        allow = MC_MULTIPLE * (est.std_err + bias + ref["std_err"] + ref["bias"])
        if abs(est.value - ref["value"]) > allow:
            return f"{est.value!r} vs reference {ref['value']!r} (allowed {allow:.3g})"
        return None
    return check


def check_agreement(bridge, forward):
    """Bridge and forward estimates within MC_MULTIPLE x (combined s.e. + bridge bias)."""
    def check(_):
        if isinstance(bridge, Exception) or isinstance(forward, Exception):
            return "an estimator raised"
        allow = MC_MULTIPLE * (bridge.std_err + forward.std_err + bridge.discretization_bias)
        if abs(bridge.value - forward.value) > allow:
            return f"bridge {bridge.value!r} vs forward {forward.value!r} (allowed {allow:.3g})"
        return None
    return check


def estimate_fields(est) -> tuple:
    return (est.value, est.std_err, est.n_effective, getattr(est, "discretization_bias", None))


# -- host-speed references --------------------------------------------------------
#
# Fixed computations that use no modalbridge code, timed between the workload's
# calls.  A shared host's speed drifts by a third over tens of minutes; timed
# in the same process and the same seconds as the workload, a reference slows
# with it, so the workload's time divided by the reference's is steady where
# either time alone is not.  Each matches the kind of work of one workload and
# uses no BLAS call, so BLAS threading cannot move it.

MC_REFERENCE_REPEAT = 8       # array references after each MC call


def python_reference() -> None:
    """Interpreter-bound work, like warm approx_density: a loop and small-array calls."""
    x = 0.0
    for j in range(20_000):
        x += j * 0.5
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(30):
        a = np.sqrt(a * a + 1.0) - 0.5


def array_reference() -> None:
    """Array-bound work, like an MC chunk: normal draws, a running sum and exp on 2 MB."""
    z = np.random.default_rng(0).standard_normal((1024, 256))
    np.cumsum(z, axis=1, out=z)
    np.exp(0.01 * z, out=z)
    z.sum()


def time_reference(reference, times: list, repeat: int = 1) -> None:
    clock = time.perf_counter
    for _ in range(repeat):
        t0 = clock()
        reference()
        times.append(clock() - t0)


# -- workloads -------------------------------------------------------------------

class DensityBatch:
    """Warm approx_density over seeded endpoints, 256 per unit."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.models = [make_model(H) for H in DENSITY_HS]
        self.timeonly = [make_model(H, *TIMEONLY_DRIFTS) for H in (0.3, 0.7)]
        self.latencies_ms = [[] for _ in self.models]    # per model, per endpoint
        self.reference_s = []
        self.known_defects = []

    def setup(self) -> None:
        for model in self.models + self.timeonly:
            mb.approx_density(model, (0.1, 0.1), n=N_DENSITY)

    def endpoints(self, unit: int) -> list:
        rng = rng_for(self.seed, 1, unit)
        draws = [terminal_draws(m, rng, DENSITY_PER_H) for m in self.models]
        return [(k, draws[k][i]) for i in range(DENSITY_PER_H) for k in range(len(self.models))]

    def unit(self, index: int, tally: Tally) -> dict:
        """256 endpoints, a python_reference after each round of one endpoint per H."""
        work = self.endpoints(index)
        results = []
        clock = time.perf_counter
        wall = 0.0
        for k, endpoint in work:
            t0 = clock()
            results.append(call(mb.approx_density, self.models[k], endpoint, n=N_DENSITY))
            t1 = clock()
            self.latencies_ms[k].append((t1 - t0) * 1e3)
            wall += t1 - t0
            if k == len(self.models) - 1:
                time_reference(python_reference, self.reference_s)
        for i, ((k, endpoint), result) in enumerate(zip(work, results)):
            model = self.models[k]
            tally.outcome(f"density[{index}.{i}]", result,
                          check_density(model, endpoint, EXPECTED_ALPHA[model.H]))
        return {"wall_s": wall, "endpoints": len(work)}

    def finish(self, tally: Tally) -> None:
        """Stored anchors and time-only exactness, once per run; the overflow probe."""
        reference = load_reference()["density_anchors"]
        for model in self.models:
            for endpoint in DENSITY_ANCHORS:
                ref = reference[f"{model.H}:{endpoint[0]},{endpoint[1]}"]
                result = call(mb.approx_density, model, endpoint, n=N_DENSITY)
                tally.outcome(f"anchor H={model.H} {endpoint}", result, matches_reference(ref))
        rng = rng_for(self.seed, 3)
        for model in self.timeonly:
            for endpoint in terminal_draws(model, rng, 4):
                result = call(mb.approx_density, model, endpoint, n=N_DENSITY)
                tally.outcome(f"timeonly H={model.H} {endpoint}", result,
                              check_timeonly(model, endpoint))
        case = OVERFLOW_CASE
        model = make_model(case["H"], case["h1"], case["h2"], case["rho"], case["T"])
        result = call(mb.approx_density, model, case["endpoint"], n=N_DENSITY)
        tally.note("overflow case", result)
        problem = (f"{type(result).__name__}: {result}" if isinstance(result, Exception)
                   else check_timeonly(model, case["endpoint"])(result))
        if problem:
            self.known_defects.append(f"ROADMAP item 4 overflow case: {problem}")

    def summary(self) -> dict:
        return {"latencies_ms": self.latencies_ms, "reference_s": self.reference_s,
                "known_defects": self.known_defects}


class McEstimators:
    """Rounds of one bridge and one forward + KDE call at one seeded endpoint."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.model = make_model(MC_H)
        index = int(rng_for(seed, 7).integers(len(MC_CANDIDATES)))
        self.point = MC_CANDIDATES[index]
        self.reference = load_reference()["mc"][f"{self.point[0]},{self.point[1]}"]
        self.health = {"bridge": [], "forward": []}
        self.reference_s = []

    def setup(self) -> None:
        mb.bridge_mc_density(self.model, self.point,
                             mb.SimConfig(WARMUP_PATHS, BRIDGE_STEPS, mc_seed(self.seed, 8)))
        ens = mb.simulate_forward(self.model,
                                  mb.SimConfig(WARMUP_PATHS, FORWARD_STEPS, mc_seed(self.seed, 9)))
        mb.estimate_density_at(ens, self.point, kde_for(self.model))

    def unit(self, index: int, tally: Tally) -> dict:
        """One round; array_reference timings follow each of its two calls."""
        clock = time.perf_counter
        t0 = clock()
        bridge = call(mb.bridge_mc_density, self.model, self.point,
                      mb.SimConfig(BRIDGE_PATHS, BRIDGE_STEPS, mc_seed(self.seed, 10, index)))
        bridge_s = clock() - t0
        time_reference(array_reference, self.reference_s, MC_REFERENCE_REPEAT)
        t0 = clock()
        ensemble = call(mb.simulate_forward, self.model,
                        mb.SimConfig(FORWARD_PATHS, FORWARD_STEPS, mc_seed(self.seed, 11, index)))
        forward = (ensemble if isinstance(ensemble, Exception)
                   else call(mb.estimate_density_at, ensemble, self.point, kde_for(self.model)))
        forward_s = clock() - t0
        del ensemble
        time_reference(array_reference, self.reference_s, MC_REFERENCE_REPEAT)
        for route, est, wall, steps in (("bridge", bridge, bridge_s, BRIDGE_PATHS * BRIDGE_STEPS),
                                        ("forward", forward, forward_s,
                                         FORWARD_PATHS * FORWARD_STEPS)):
            tally.outcome(f"{route} round {index}", est, check_against(self.reference))
            self.health[route].append(_health(est) | {"wall_s": wall, "path_steps": steps})
        tally.outcome(f"agreement round {index}", None, check_agreement(bridge, forward))
        return {"wall_s": bridge_s + forward_s, "pieces": {"bridge": bridge_s, "forward": forward_s},
                "bridge_path_steps": BRIDGE_PATHS * BRIDGE_STEPS,
                "forward_path_steps": FORWARD_PATHS * FORWARD_STEPS}

    def finish(self, tally: Tally) -> None:
        pass

    def summary(self) -> dict:
        return {"point": self.point, "reference_s": self.reference_s} | self.health


def matches_reference(ref: dict):
    def check(d):
        for name, value in zip(("phi", "p_hat", "p_hat_full"), (d.phi, d.p_hat, d.p_hat_full)):
            if rel_err(value, ref[name]) > 1e-9:
                return f"{name} {value!r} vs stored {ref[name]!r}"
        return None
    return check


def _health(est) -> dict:
    """Relative s.e. and bias of an estimate; empty when it has none (raised or not > 0)."""
    if isinstance(est, Exception) or not est.value > 0:
        return {}
    return {"rse": est.std_err / est.value,
            "bias_rel": getattr(est, "discretization_bias", 0.0) / est.value}


WORKLOAD_CLASSES = {"density_batch": DensityBatch, "mc_estimators": McEstimators}


# -- process entry ----------------------------------------------------------------

def machine_facts() -> dict:
    import platform

    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "blas_name": blas.get("name"), "blas_version": blas.get("version")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, default=0.0,
                   help="start another unit while it is expected to end within this many seconds")
    p.add_argument("--min-units", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="record spans and write them to .perfbench_out/ at the end")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    work = WORKLOAD_CLASSES[args.workload](args.seed)
    work.setup()
    print("ready", flush=True)

    tally = Tally()
    units = []
    clock = time.perf_counter
    started = clock()
    last = 0.0                # real time of the last unit, references and checks included
    while len(units) < args.min_units or (
            units and clock() - started + last <= args.budget):
        t0 = clock()
        units.append(work.unit(len(units), tally))
        last = clock() - t0

    layers = None
    if tracer is not None:
        tracer.stop()
        layers = tracer.summary()
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    if units:
        work.finish(tally)
    out = {"units": units, "attempted": tally.attempted, "failed": tally.failed,
           "raised": tally.raised[:20], "mismatches": tally.mismatches[:20],
           "digest": tally.digest, "layers": layers,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "facts": machine_facts()}
    if units:
        out.update(work.summary())
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
