"""Call spans around the public functions of the modalbridge modules.

The wrappers are installed from outside the package: each wrapped object is
replaced in every ``modalbridge`` module namespace that binds it, so calls
between modules (``density`` calling ``invert_KH``, ``mc`` calling
``eval_drift``) are traced as well as the benchmark's own calls.  Callees that
the library imports at call time (``kernel.kernel_profile`` importing
``SingularProfile``, ``mc._sample_joint_chunk`` importing the kernel
samplers) are looked up in their defining module and so reach the wrapper too.

Spans are kept in memory as ``[name, start, end, parent]`` and summarised, or
written out, when the run ends.  The span stack assumes one calling thread,
which holds because the benchmark runs the library with its default single
worker.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

# Defining module -> wrapped public names.  These are the layers' entry points:
# the operator builders, the per-call kernels and the public estimators.
TARGETS = {
    "special": ("hyp2f1",),
    "profiles": ("SingularProfile", "product_integrate"),
    "kernel": ("kernel_profile", "kernel_partial_integral", "joint_cov_matrix",
               "cholesky_with_jitter", "draw_joint_paths"),
    "fraccalc": ("invert_KH",),
    "driftspec": ("eval_drift",),
    "bridge": ("modal_path", "condition_gaussian"),
    "density": ("drift_functionals", "approx_density"),
    "mc": ("volterra_weight_matrix", "bridge_mc_density", "simulate_forward",
           "estimate_density_at"),
}


def span_names() -> list:
    return [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]


def package_modules() -> list:
    """Every module of the modalbridge package, imported."""
    import modalbridge
    for info in pkgutil.iter_modules(modalbridge.__path__):
        importlib.import_module(f"modalbridge.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "modalbridge" or name.startswith("modalbridge.")]


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans = []
        self._stack = []
        self._restore = []
        self._on = False

    def wrap(self, name: str, target):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self._on:
                return target(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return target(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        traced.__name__ = getattr(target, "__name__", name)
        traced.__qualname__ = getattr(target, "__qualname__", name)
        traced.__doc__ = target.__doc__
        traced.__wrapped__ = target
        traced.span_name = name
        return traced

    def install(self) -> None:
        """Replace each target in every package namespace that binds it; start recording."""
        modules = package_modules()
        for modname, names in TARGETS.items():
            home = sys.modules[f"modalbridge.{modname}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self.wrap(f"{modname}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._restore.append((mod, key, original))
        self._on = True

    def bindings(self) -> list:
        """(module name, attribute) pairs the install replaced."""
        return [(mod.__name__, key) for mod, key, _ in self._restore]

    def stop(self) -> None:
        self._on = False

    def uninstall(self) -> None:
        self._on = False
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def summary(self) -> dict:
        return summarize(self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict:
    """Per-layer calls and self time; kernel_profile reuse from its build children."""
    calls = dict.fromkeys(span_names(), 0)
    self_s = dict.fromkeys(span_names(), 0.0)
    for (name, *_), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own
    out = {}
    for name in span_names():
        count = "builds" if name == "profiles.SingularProfile" else "calls"  # a class call builds
        out[f"{name}.{count}"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    profile_calls = calls["kernel.kernel_profile"]
    builds = sum(1 for name, _, _, parent in spans
                 if name == "profiles.SingularProfile" and parent >= 0
                 and spans[parent][0] == "kernel.kernel_profile")
    out["kernel.kernel_profile.reuse"] = 1.0 - builds / profile_calls if profile_calls else 0.0
    return out
