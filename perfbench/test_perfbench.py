"""Self-tests of the benchmark: tracing arithmetic, wrapper coverage, names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_on_nested_tree():
    # a[0,10] -> b[1,4] -> c[2,3];  a -> d[5,9] -> e[6,7]
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["d", 5.0, 9.0, 0], ["e", 6.0, 7.0, 3]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]


def test_self_times_count_overlapping_children_once():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0], ["d", 9.0, 12.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summary_counts_and_profile_reuse():
    spans = [["kernel.kernel_profile", 0.0, 5.0, -1],
             ["profiles.SingularProfile", 1.0, 4.0, 0],
             ["kernel.kernel_profile", 6.0, 6.5, -1],
             ["profiles.SingularProfile", 7.0, 8.0, -1]]
    out = tracing.summarize(spans)
    assert out["kernel.kernel_profile.calls"] == 2
    assert out["kernel.kernel_profile.self_s"] == pytest.approx(2.0 + 0.5)
    assert out["profiles.SingularProfile.builds"] == 2
    assert out["profiles.SingularProfile.self_s"] == pytest.approx(4.0)
    assert out["kernel.kernel_profile.reuse"] == pytest.approx(0.5)


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_every_binding_is_the_wrapper(tracer):
    originals = {id(getattr(sys.modules[mod], key).__wrapped__) for mod, key in tracer.bindings()}
    for mod in tracing.package_modules():
        for key, value in vars(mod).items():
            assert id(value) not in originals, f"{mod.__name__}.{key} escapes the trace"
    bound = set(tracer.bindings())
    # the namespaces each name must be replaced in, beyond the package root
    expected = {"eval_drift": ("driftspec", "density", "mc"),
                "invert_KH": ("fraccalc", "density", "mc"),
                "kernel_profile": ("kernel", "fraccalc", "mc"),
                "product_integrate": ("profiles", "fraccalc"),
                "SingularProfile": ("profiles", "fraccalc"),
                "modal_path": ("bridge", "density"),
                "condition_gaussian": ("bridge", "mc")}
    for name, modules in expected.items():
        for mod in modules:
            assert (f"modalbridge.{mod}", name) in bound
            assert getattr(sys.modules[f"modalbridge.{mod}"], name).span_name.endswith(name)
    for name in tracing.span_names():
        mod, attr = name.split(".")
        assert getattr(sys.modules[f"modalbridge.{mod}"], attr).span_name == name


def _small_outputs():
    import modalbridge as mb
    import worker
    out = []
    for H in (0.33, 0.71):
        model = worker.make_model(H)
        for endpoint in ((0.1, 0.2), (-0.3, 0.05)):
            out.append(worker.density_fields(mb.approx_density(model, endpoint, n=64)))
        est = mb.bridge_mc_density(model, (0.0, 0.1), mb.SimConfig(512, 16, 5))
        out.append(worker.estimate_fields(est))
        ens = mb.simulate_forward(model, mb.SimConfig(512, 16, 6))
        out.append(worker.estimate_fields(
            mb.estimate_density_at(ens, (0.0, 0.1), worker.kde_for(model))))
    return repr(out)


def test_traced_outputs_are_bit_identical():
    # traced first, so the traced pass is the one that builds the operators
    t = tracing.Tracer()
    t.install()
    try:
        traced = _small_outputs()
    finally:
        t.uninstall()
    assert _small_outputs() == traced
    names = {span[0] for span in t.spans}
    assert {"density.approx_density", "mc.bridge_mc_density", "driftspec.eval_drift",
            "fraccalc.invert_KH", "kernel.cholesky_with_jitter"} <= names


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == run.per_layer_names()
    assert [m["unit"] for m in spec["per_layer"]] == [run.layer_unit(n) for n in per_layer]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_percentile_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 0.5) == 500
    assert run.percentile(values, 0.99) == 990


def test_batch_seconds_sums_lower_decile_pieces():
    # a slow phase doubles some timings; the low quantile ignores them
    rounds = [{"pieces": {"bridge": 1.0 + 0.01 * i, "forward": 2.0}} for i in range(9)]
    rounds.append({"pieces": {"bridge": 2.0, "forward": 4.0}})
    assert run.batch_seconds("mc_estimators", [{"units": rounds}]) == (3.0, 20)
    density = {"units": [{"endpoints": 8}],
               "latencies_ms": [[1.0] * 90 + [5.0] * 10, [10.0] * 90 + [50.0] * 10]}
    assert run.batch_seconds("density_batch", [density]) == (pytest.approx(4 * 11e-3), 200)
