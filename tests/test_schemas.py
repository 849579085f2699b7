"""CLI JSON outputs validate against the published schemas in schemas/.

A minimal structural checker covers the subset of JSON Schema the published
documents use (type, required, additionalProperties, enum/const, numeric
bounds, items, oneOf); no third-party validator is needed.
"""

import json
import os

import pytest

from modalbridge.cli import main

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "schemas")

MODEL = {"H": 0.3, "rho": 0.5, "x0": 0.0, "y0": 0.0, "T": 0.5,
         "h1": "0.2", "h2": "-0.1"}


def check(instance, schema, where="$"):
    if "const" in schema:
        assert instance == schema["const"], f"{where}: expected {schema['const']}"
        return
    if "oneOf" in schema:
        for sub in schema["oneOf"]:
            try:
                check(instance, sub, where)
                return
            except AssertionError:
                continue
        raise AssertionError(f"{where}: no oneOf branch matched {instance!r}")
    if "enum" in schema:
        assert instance in schema["enum"], f"{where}: {instance!r} not in enum"
        return
    kind = schema.get("type")
    if kind == "object":
        assert isinstance(instance, dict), f"{where}: expected object"
        for key in schema.get("required", ()):
            assert key in instance, f"{where}: missing {key}"
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = set(instance) - set(props)
            assert not extra, f"{where}: unexpected keys {sorted(extra)}"
        for key, sub in props.items():
            if key in instance:
                check(instance[key], sub, f"{where}.{key}")
    elif kind == "array":
        assert isinstance(instance, list), f"{where}: expected array"
        if "minItems" in schema:
            assert len(instance) >= schema["minItems"], f"{where}: too few items"
        if "maxItems" in schema:
            assert len(instance) <= schema["maxItems"], f"{where}: too many items"
        for i, item in enumerate(instance):
            check(item, schema["items"], f"{where}[{i}]")
    elif kind == "number":
        assert isinstance(instance, (int, float)) and not isinstance(instance, bool)
        if "minimum" in schema:
            assert instance >= schema["minimum"], f"{where}: below minimum"
        if "exclusiveMinimum" in schema:
            assert instance > schema["exclusiveMinimum"], f"{where}: not above bound"
    elif kind == "integer":
        assert isinstance(instance, int) and not isinstance(instance, bool)
        if "minimum" in schema:
            assert instance >= schema["minimum"]
        if "maximum" in schema:
            assert instance <= schema["maximum"]
    elif kind == "boolean":
        assert isinstance(instance, bool), f"{where}: expected boolean"
    elif kind == "string":
        assert isinstance(instance, str), f"{where}: expected string"


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_to_json(tmp_path, args, filename):
    out = str(tmp_path / "out")
    assert main([*args, "--out", out]) == 0
    with open(os.path.join(out, filename), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_density_output_schema(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": MODEL,
                               "density": {"n": 64,
                                           "endpoints": [[0.1, 0.2], [0.0, 0.0]]}}))
    payload = run_to_json(tmp_path, ["density", "--config", str(cfg)], "density.json")
    check(payload, load_schema("density.schema.json"))


def test_simulate_output_schema(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": MODEL,
        "simulate": {"n_paths": 500, "n_steps": 8, "point": [0.0, 0.0],
                     "estimator": {"type": "bin", "width_x": 0.2, "width_y": 0.2}},
    }))
    payload = run_to_json(tmp_path, ["simulate", "--config", str(cfg), "--seed", "1"],
                          "simulate.json")
    check(payload, load_schema("simulate.schema.json"))


def test_simulate_past_an_undefined_assumption_check_is_schema_valid(tmp_path):
    # the check's sample box reaches x < -1, where sqrt(x + 1) is undefined,
    # but no path does: the run warns and writes its estimate
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"H": 0.3, "rho": 0.3, "x0": 0.0, "y0": 0.0, "T": 0.01,
                  "h1": "sqrt(x + 1)", "h2": "0"},
        "simulate": {"n_paths": 4096, "n_steps": 32, "point": [0.0, 0.0],
                     "estimator": {"type": "kde", "bandwidth_x": 0.01, "bandwidth_y": 0.01}},
    }))
    with pytest.warns(RuntimeWarning, match="assumption check skipped"):
        payload = run_to_json(tmp_path, ["simulate", "--config", str(cfg), "--seed", "1"],
                              "simulate.json")
    check(payload, load_schema("simulate.schema.json"))


def test_bridge_mc_output_schema(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": MODEL,
        "bridge_mc": {"n_paths": 400, "n_steps": 8, "endpoint": [0.1, 0.0]},
    }))
    payload = run_to_json(tmp_path, ["bridge-mc", "--config", str(cfg), "--seed", "1"],
                          "bridge_mc.json")
    check(payload, load_schema("bridge_mc.schema.json"))


def test_validation_output_schema(tmp_path):
    payload = run_to_json(tmp_path, ["validate", "--quick"], "validation.json")
    check(payload, load_schema("validation.schema.json"))


# each command's smallest valid config, with every optional key given, and the
# JSON file it writes (kernel and modal-path write CSV)
_SMALLEST = {
    "kernel": ({"kernel": {"H": 0.3, "t_values": [1.0], "s_fractions": [0.5]}}, None),
    "modal-path": ({"model": dict(MODEL, holder_gamma=0.2),
                    "modal_path": {"n": 8, "endpoint": [0.1, 0.0]}}, None),
    "density": ({"model": dict(MODEL, holder_gamma=0.2),
                 "density": {"n": 8, "endpoints": [[0.1, 0.0]]}}, "density.json"),
    "simulate": ({"model": dict(MODEL, holder_gamma=0.2),
                  "simulate": {"n_paths": 8, "n_steps": 4, "point": [0.1, 0.0], "seed": 1,
                               "emit_terminals": True,
                               "estimator": {"type": "kde", "bandwidth_x": 0.2,
                                             "bandwidth_y": 0.2}}}, "simulate.json"),
    "bridge-mc": ({"model": dict(MODEL, holder_gamma=0.2),
                   "bridge_mc": {"n_paths": 8, "n_steps": 4, "endpoint": [0.1, 0.0],
                                 "seed": 1}}, "bridge_mc.json"),
}
_SWEEP_VALUES = (None, True, "s", [], {}, float("nan"), float("inf"), -1, 1.5, 1e30,
                 "+".join(["x"] * 3000), "(" * 500 + "x" + ")" * 500, 10 ** 12)


def _key_paths(block, prefix=()):
    """The key path of every key of block and of every block nested in it."""
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _with_value(config, path, value):
    """A deep copy of config with the key at path set to value."""
    config = json.loads(json.dumps(config))
    block = config
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    return config


@pytest.mark.parametrize("command", sorted(_SMALLEST))
def test_config_sweep_exits_with_a_documented_code(tmp_path, capsys, command):
    # every key set to each value of the sweep: the command exits 0, 2, 3 or 4
    # without a traceback, and an exit-0 JSON output passes its schema
    config, output = _SMALLEST[command]
    schema = load_schema(output.replace(".json", ".schema.json")) if output else None
    cases = [(path, value) for path in _key_paths(config) for value in _SWEEP_VALUES]
    for i, (path, value) in enumerate(cases):
        cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}"
        cfg.write_text(json.dumps(_with_value(config, path, value)), encoding="utf-8")
        case = f"{command} {'.'.join(path)} = {value!r}"
        try:
            code = main([command, "--config", str(cfg), "--out", str(out)])
        except Exception as exc:  # noqa: BLE001 - the failure names the case
            pytest.fail(f"{case} raised {exc!r}")
        assert code in (0, 2, 3, 4), case
        assert "Traceback" not in capsys.readouterr().err, case
        if code == 0 and output:
            with open(out / output, "r", encoding="utf-8") as fh:
                check(json.load(fh), schema)
        elif code == 0:
            assert any(out.iterdir()), case
