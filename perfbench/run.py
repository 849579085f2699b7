"""modalbridge benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload density_batch --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 2

Run from the repository root.  Every measurement happens in a fresh worker
process (``worker.py``), started one at a time, so the load is one closed-loop
caller; workers run without ``MODALBRIDGE_THREADS`` (the library's single
worker), whatever the calling environment sets, and with ``PYTHONHASHSEED=0``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same fixed
work once untraced and once traced, checks that both give bit-identical
outputs, and reports the per-layer metrics with the tracing overhead.  The
last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a fuller report, with the machine facts, is written to
``.perfbench_out/``.  The exit code is 0 when every check passed, 1 when an
output failed its check, 2 when the benchmark could not run.

This file uses only the standard library; the workers import the package
from ``src/``.  METRICS.md records why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("density_batch", "mc_estimators")
# end-to-end metrics, reported on every workload: name -> unit
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "batch_rel": "ratio"}
SETUPS = 5                    # set-ups per run, for the setup_s median
RUN_DEADLINE_S = 170.0        # a run must end within 180 s
# untraced: fewest units a run measures; traced: the fixed units both passes run
MIN_UNITS = {"density_batch": 4, "mc_estimators": 4}
TRACE_UNITS = {"density_batch": 4, "mc_estimators": 2}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# per-layer metrics beyond the span table: exact work counts, estimator health
EXTRA_LAYERS = ("mc.bridge.path_steps", "mc.forward.path_steps", "density.endpoints",
                "mc.bridge.rse", "mc.bridge.bias_rel", "mc.forward.kde_rse")
# relative s.e. targets of the time-to-accuracy figures
RSE_TARGET = {"bridge": 1e-4, "forward": 1e-2}
# batch_s and reference_s read each piece of work at this quantile of its timings
FAST_QUANTILE = 0.02


def per_layer_names() -> list:
    return list(tracing.summarize([])) + list(EXTRA_LAYERS) + ["trace.overhead_s"]


def layer_unit(name: str) -> str:
    if name.endswith(("self_s", "overhead_s")):
        return "s"
    return "ratio" if name.endswith(("reuse", "rse", "bias_rel")) else "count"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Workers:
    """Starts worker processes one at a time and always reaps them."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "MODALBRIDGE_THREADS"}
        self.env["PYTHONHASHSEED"] = "0"    # same dict and set layouts in every worker

    def run(self, *extra: str) -> dict:
        """One worker; returns its result with ``setup_s`` and ``total_s`` added."""
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=self.env)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        total_s = time.perf_counter() - start
        lines = rest.strip().splitlines()
        if first.strip() != "ready" or proc.returncode != 0 or not lines:
            late = " after the run deadline" if time.monotonic() > self.deadline else ""
            raise BenchError(f"worker {' '.join(extra)} exited with {proc.returncode}{late}")
        try:
            out = json.loads(lines[-1])
        except ValueError as exc:
            raise BenchError(f"worker {' '.join(extra)} printed no result: {exc}") from exc
        out["setup_s"] = setup_s
        out["total_s"] = total_s
        return out


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced run: a measuring worker for ``seconds`` between set-up-only workers.

    The set-ups are split before and after the measuring worker, so that their
    median does not hang on the host's speed in a single few-second window.
    """
    workers = Workers(workload, seed)
    before = [workers.run()["setup_s"] for _ in range((SETUPS - 1) // 2)]
    measured = [workers.run("--min-units", str(MIN_UNITS[workload]), "--budget", str(seconds))]
    after = [workers.run()["setup_s"] for _ in range(SETUPS - 1 - len(before))]
    return measured, before + [measured[0]["setup_s"]] + after


def traced(workload: str, seed: int) -> tuple:
    """The same fixed work untraced, then traced."""
    workers = Workers(workload, seed)
    units = ["--min-units", str(TRACE_UNITS[workload])]
    return workers.run(*units), workers.run(*units, "--trace", "1")


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def batch_seconds(workload: str, workers: list) -> tuple:
    """(batch_s, samples): one unit of work, each piece at its FAST_QUANTILE time.

    A shared host's speed switches between a fast state and one up to 40%
    slower for seconds at a time.  Contention only adds time, so a low
    quantile of many short timings of the same piece of work reads the
    program's speed in the fast state, where a median reads the share of the
    run the host spent slow.  Below 75 timings the quantile is the minimum.
    Pieces: each endpoint of a density unit (per H; endpoints of one H cost
    about the same) and each bridge and forward call of an MC round.
    """
    if workload == "density_batch":
        per_h = [[x for w in workers for x in w["latencies_ms"][k]]
                 for k in range(len(workers[0]["latencies_ms"]))]
        unit = workers[0]["units"][0]["endpoints"] // len(per_h)
        return (unit * sum(percentile(lat, FAST_QUANTILE) for lat in per_h) / 1e3,
                sum(len(lat) for lat in per_h))
    times = {}
    for w in workers:
        for u in w["units"]:
            for key, t in u["pieces"].items():
                times.setdefault(key, []).append(t)
    return (sum(percentile(ts, FAST_QUANTILE) for ts in times.values()),
            sum(len(ts) for ts in times.values()))


def workload_figures(workload: str, workers: list) -> list:
    """The workload's own figures: (name, value, unit, samples)."""
    rows = []
    walls = [u["wall_s"] for w in workers for u in w["units"]]
    if workload == "density_batch":
        lat = [x for w in workers for per_h in w["latencies_ms"] for x in per_h]
        rows += [("density_eps", len(lat) / sum(walls), "1/s", len(lat)),
                 ("density_ms_p50", percentile(lat, 0.50), "ms", len(lat)),
                 ("density_ms_p99", percentile(lat, 0.99), "ms", len(lat))]
    else:
        for route, target in RSE_TARGET.items():
            calls = [c for w in workers for c in w[route] if "rse" in c]
            rows.append((f"{route}_msteps_per_s",
                         median([c["path_steps"] / 1e6 / c["wall_s"] for c in calls]),
                         "1/s", len(calls)))
            rows.append((f"{route}_tts_s",
                         median([c["wall_s"] * (c["rse"] / target) ** 2 for c in calls]),
                         "s", len(calls)))
    return rows


def layer_extras(result: dict) -> dict:
    """Exact work counts and estimator health ratios of the traced pass."""
    extras = dict.fromkeys(EXTRA_LAYERS, 0)
    for key, field in (("mc.bridge.path_steps", "bridge_path_steps"),
                       ("mc.forward.path_steps", "forward_path_steps"),
                       ("density.endpoints", "endpoints")):
        extras[key] = sum(u.get(field, 0) for u in result["units"])
    bridge = [c for c in result.get("bridge", []) if "rse" in c]
    forward = [c for c in result.get("forward", []) if "rse" in c]
    if bridge:
        extras["mc.bridge.rse"] = median([c["rse"] for c in bridge])
        extras["mc.bridge.bias_rel"] = median([c["bias_rel"] for c in bridge])
    if forward:
        extras["mc.forward.kde_rse"] = median([c["rse"] for c in forward])
    return extras


def machine_facts(worker_facts: dict) -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count(),
             "MODALBRIDGE_THREADS": os.environ.get("MODALBRIDGE_THREADS")}
    facts.update(worker_facts)
    facts.update({var: os.environ.get(var) for var in BLAS_THREAD_VARS})
    return facts


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (result line dict, report dict)."""
    OUT_DIR.mkdir(exist_ok=True)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        plain, with_trace = traced(workload, seed)
        workers = [plain, with_trace]
        identical = plain["digest"] == with_trace["digest"]
        overhead = (sum(u["wall_s"] for u in with_trace["units"])
                    - sum(u["wall_s"] for u in plain["units"]))
        metrics = dict(with_trace["layers"])
        metrics.update(layer_extras(with_trace))
        metrics["trace.overhead_s"] = overhead
        rows = [(name, metrics[name], layer_unit(name), 1) for name in per_layer_names()]
        report["outputs_identical"] = identical
        report["untraced_wall_s"] = sum(u["wall_s"] for u in plain["units"])
    else:
        workers, setups = measure(workload, seed, seconds)
        walls = [u["wall_s"] for w in workers for u in w["units"]]
        rss = [w["peak_rss_mb"] for w in workers]
        batch_s, pieces = batch_seconds(workload, workers)
        refs = [t for w in workers for t in w["reference_s"]]
        reference_s = percentile(refs, FAST_QUANTILE)
        rows = [("setup_s", median(setups), "s", len(setups)),
                ("peak_rss_mb", median(rss), "MB", len(rss)),
                ("batch_rel", batch_s / reference_s, "ratio", pieces)]
        identical = True
        report["unit_wall_s"] = walls
        figures = [("batch_s", batch_s, "s", pieces),
                   ("reference_s", reference_s, "s", len(refs))]
        report["figures"] = [dict(zip(("name", "value", "unit", "samples"), r))
                             for r in figures + workload_figures(workload, workers)]
        report["batch_s_median_units"] = median(walls)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    mismatches = [m for w in workers for m in w["mismatches"]]
    raised = [m for w in workers for m in w["raised"]]
    report["known_defects"] = sorted({d for w in workers for d in w.get("known_defects", [])})
    if not identical:
        mismatches.append("traced outputs differ from untraced outputs")
    correct = not mismatches
    report.update({"metrics": [dict(zip(("name", "value", "unit", "samples"), r)) for r in rows],
                   "failed_frac": failed / attempted if attempted else 0.0,
                   "raised": raised, "mismatches": mismatches,
                   "machine": machine_facts(workers[-1]["facts"])})
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}}
    return line, report


def print_report(report: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}")
    for row in report["metrics"] + report.get("figures", []):
        print(f"  {row['name']:<36} {row['value']:>14.6g} {row['unit']:<6} (n={row['samples']})")
    print(f"  {'failed_frac':<36} {report['failed_frac']:>14.6g} ratio")
    if report["trace"]:
        print(f"  outputs identical traced/untraced: {report['outputs_identical']}")
    for text in report["raised"][:5] + report["mismatches"][:5]:
        print(f"  ! {text}")
    for text in report["known_defects"]:
        print(f"  known defect (not counted as failed): {text}")
    print(f"  machine {json.dumps(report['machine'], sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "modalbridge" / "__init__.py").is_file():
        print(f"perfbench: no modalbridge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            line, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        print_report(report)
        (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1) + "\n")
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
