import importlib
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
