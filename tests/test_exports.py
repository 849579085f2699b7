import importlib
import importlib.util
import pathlib
import pkgutil

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
