import importlib
import importlib.util
import os
import pathlib
import pkgutil
import subprocess
import sys

import modalbridge


def test_every_exported_name_resolves():
    modules = [modalbridge] + [importlib.import_module(f"modalbridge.{info.name}")
                               for info in pkgutil.iter_modules(modalbridge.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    # the bridge estimator and the joint covariance share one Volterra builder
    assert modalbridge.mc.volterra_weight_matrix is modalbridge.kernel.volterra_weight_matrix


def test_every_benchmark_tracer_target_resolves():
    # the benchmark's tracer wraps each TARGETS name found with getattr, so a
    # deleted name would break its traced runs
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, names in tracing.TARGETS.items():
        module = importlib.import_module(f"modalbridge.{mod}")
        for name in names:
            assert hasattr(module, name), f"modalbridge.{mod}.{name}"


NO_SCIPY_SCRIPT = """
import sys
import modalbridge as mb
from modalbridge.kernel import kernel_alt

for H in (0.3, 0.7):
    model = mb.ModelSpec(mb.Hurst(H), 0.3, 0.0, 0.0, 0.25, mb.parse_drift("0.5*sin(x)"),
                         mb.parse_drift("0.5*cos(y)"), holder_gamma=H / 2 if H > 0.5 else None)
    assert mb.approx_density(model, (0.1, 0.05), n=64).p_hat > 0.0
    assert kernel_alt(1.0, [0.2, 0.7], model.hurst).shape == (2,)
    config = mb.SimConfig(n_paths=256, n_steps=16, seed=1)
    assert mb.bridge_mc_density(model, (0.1, 0.05), config, workers=1).value > 0.0
    ensemble = mb.simulate_forward(model, config, workers=1)
    mb.estimate_density_at(ensemble, (0.1, 0.05), mb.KdeEstimator(0.05, 0.05))
try:
    mb.hyp2f1(1.0, 1.0, 2.0, -1.0)
except ValueError as exc:
    print(type(exc).__name__)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_import_builds_and_estimators_load_no_scipy():
    # numpy is the only runtime dependency: a hyp2f1 call outside the
    # kernel's family raises instead of loading scipy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ValueError", "[]"]
