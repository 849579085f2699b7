import math
import pickle
import sys
import threading

import numpy as np
import pytest

from modalbridge.driftspec import (DriftClass, DriftDomainError, ExprSyntaxError,
                                   ModelSpec, classify_drift, eval_drift,
                                   model_from_dict, parse_drift,
                                   validate_assumptions)
from modalbridge.kernel import Hurst

ZERO = parse_drift("0")


def model(h1, h2, H=0.3, rho=0.5, T=1.0, **kw):
    return ModelSpec(Hurst(H), rho, 0.0, 0.0, T, parse_drift(h1), parse_drift(h2), **kw)


# -- parsing ---------------------------------------------------------------------

def test_parse_basic_shape():
    e = parse_drift("0.5*x + sin(t)")
    assert e.free_vars() == {"x", "t"}
    assert eval_drift(e, math.pi / 2, 2.0, 0.0) == pytest.approx(2.0)


def test_power_right_associative():
    assert eval_drift(parse_drift("2^3^2"), 0, 0, 0) == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert eval_drift(parse_drift("-2^2"), 0, 0, 0) == -4.0
    assert eval_drift(parse_drift("2^-3"), 0, 0, 0) == 0.125


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_drift("x + * y")
    assert err.value.offset == 4
    assert err.value.expected


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse_drift("x + z")
    with pytest.raises(ExprSyntaxError):
        parse_drift("foo(t)")


def test_empty_and_trailing():
    with pytest.raises(ExprSyntaxError):
        parse_drift("   ")
    with pytest.raises(ExprSyntaxError):
        parse_drift("1 2")


@pytest.mark.parametrize("deepest,too_deep", [
    ("-" * 63 + "x", "-" * 64 + "x"),
    ("+".join(["x"] * 64), "+".join(["x"] * 65)),
    ("^".join(["x"] * 64), "^".join(["x"] * 65)),
    ("sin(" * 63 + "x" + ")" * 63, "sin(" * 64 + "x" + ")" * 64),
    ("(" * 64 + "x" + ")" * 64, "(" * 65 + "x" + ")" * 65),
])
def test_depth_bound_is_64(deepest, too_deep):
    # 64 levels (nodes, or nested parentheses) parse, and print to a source that parses back
    expr = parse_drift(deepest)
    assert parse_drift(expr.to_source()).ast == expr.ast
    with pytest.raises(ExprSyntaxError, match="expression tree deeper than 64"):
        parse_drift(too_deep)


@pytest.mark.parametrize("source", [
    "+".join(["x"] * 3000), "(" * 500 + "x" + ")" * 500, "-" * 2000 + "x"])
def test_a_long_source_fails_at_the_bound_not_the_recursion_limit(source):
    with pytest.raises(ExprSyntaxError, match="expression tree deeper than 64"):
        parse_drift(source)


def test_whitespace_insensitive():
    a = parse_drift("1+2 * x")
    b = parse_drift(" 1 + 2*x ")
    assert a.ast == b.ast


def test_printer_round_trip_stability():
    sources = [
        "0.5*x + sin(t)*y - 2/(1+t)^2",
        "-x^2 + tanh(y)",
        "exp(-t)*(x - y)",
        "sqrt(abs(y)) + log(1 + t)",
        "2^3^2 - t/3/4",
    ]
    for src in sources:
        p1 = parse_drift(src)
        p2 = parse_drift(p1.to_source())
        assert p1.ast == p2.ast


def test_eval_matches_python_reference():
    # table-driven reference: same expressions evaluated with plain python
    cases = {
        "x": lambda t, x, y: x,
        "sin(t)*y": lambda t, x, y: math.sin(t) * y,
        "x + y*t - 1.5": lambda t, x, y: x + y * t - 1.5,
        "exp(x/4) - cos(y)": lambda t, x, y: math.exp(x / 4) - math.cos(y),
        "tanh(x)*abs(y)": lambda t, x, y: math.tanh(x) * abs(y),
        "2*x^2 - y^3": lambda t, x, y: 2 * x ** 2 - y ** 3,
        "(x + y)/(2 + t)": lambda t, x, y: (x + y) / (2 + t),
    }
    rng = np.random.default_rng(17)
    for src, ref in cases.items():
        expr = parse_drift(src)
        for _ in range(100):
            t, x, y = rng.uniform(-2, 2, 3)
            got = eval_drift(expr, t, x, y)
            want = ref(t, x, y)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_eval_vectorized():
    expr = parse_drift("x*y + t")
    t = np.linspace(0, 1, 5)
    x = np.arange(5.0)
    y = np.full(5, 2.0)
    np.testing.assert_allclose(eval_drift(expr, t, x, y), x * y + t)


def _random_expr(rng, depth=0):
    """Random expression source over (t, x, y) with safe function domains."""
    leaves = ["t", "x", "y", f"{rng.uniform(-3, 3):.3f}"]
    if depth >= 3 or rng.random() < 0.3:
        return rng.choice(leaves)
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "neg", "fn"])
    a = _random_expr(rng, depth + 1)
    b = _random_expr(rng, depth + 1)
    if kind == "add":
        return f"({a} + {b})"
    if kind == "sub":
        return f"({a} - {b})"
    if kind == "mul":
        return f"({a} * {b})"
    if kind == "div":
        return f"({a} / (2 + abs({b})))"
    if kind == "pow":
        return f"(abs({a}) + 1)^{rng.integers(1, 3)}"
    if kind == "neg":
        return f"(-{a})"
    fn = rng.choice(["sin", "cos", "tanh", "exp"])
    inner = f"({a})/4" if fn == "exp" else a
    return f"{fn}({inner})"


def test_eval_agrees_with_python_eval_on_random_expressions():
    # 100 random expressions x 100 random points against an independent
    # evaluator (python eval of the canonical printed source)
    env_fns = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
               "log": math.log, "sqrt": math.sqrt, "abs": abs,
               "tanh": math.tanh}
    rng = np.random.default_rng(123)
    for _ in range(100):
        src = _random_expr(rng)
        expr = parse_drift(src)
        pysrc = expr.to_source().replace("^", "**")
        for _ in range(100):
            t, x, y = rng.uniform(-2.0, 2.0, 3)
            want = eval(pysrc, {"__builtins__": {}},
                        dict(env_fns, t=t, x=x, y=y))
            got = eval_drift(expr, t, x, y)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_domain_errors_not_nan():
    with pytest.raises(DriftDomainError):
        eval_drift(parse_drift("log(x)"), 0.0, -1.0, 0.0)
    with pytest.raises(DriftDomainError):
        eval_drift(parse_drift("sqrt(y)"), 0.0, 0.0, -2.0)
    with pytest.raises(DriftDomainError):
        eval_drift(parse_drift("1/x"), 0.0, 0.0, 1.0)
    with pytest.raises(DriftDomainError):
        eval_drift(parse_drift("x^0.5"), 0.0, -4.0, 0.0)
    # array path: one bad entry anywhere raises
    with pytest.raises(DriftDomainError):
        eval_drift(parse_drift("log(x)"), 0.0, np.array([1.0, -0.5, 2.0]), 0.0)


# -- the compiled evaluator against the tree-walk reference ----------------------

# every node type, all 7 functions, and "^" with scalar and array exponents
COMPILED_CASES = [
    "1.5", "t", "x", "y", "-x", "--y", "x + y", "x - t", "x * y", "x / (2 + t)",
    "sin(x)", "cos(y)", "exp(x / 4)", "log(2 + t)", "sqrt(abs(y))", "abs(x)", "tanh(y)",
    "x ^ 2", "(t - 2) ^ 3", "abs(x) ^ 0.5", "abs(x) ^ y", "2 ^ y", "(1 + t) ^ -x",
    "0.5*sin(x) - cos(y)*t + log(1 + x^2) / (3 + tanh(y))",
]


def _inputs(rng):
    """(t, x, y) triples: Python floats, a numpy scalar time with state arrays (the
    forward Euler step), equal-shape arrays (the density and bridge grids), and
    shapes that broadcast."""
    m = 5
    t = np.linspace(0.0, 1.0, m)
    x, y = rng.uniform(-2.0, 2.0, (2, m))
    return [
        (0.3, -1.25, 0.75),
        (t[2], x, y),
        (t, x, y),
        (t, x[:, None] + 0.0 * t, y[:, None] + 0.0 * t),
        (t, x[:, None], 0.5),
        (np.float64(0.5), np.float64(-0.4), np.float64(1.1)),
    ]


def _same_result(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("src", COMPILED_CASES)
def test_compiled_evaluator_matches_tree_walk_bit_for_bit(src, reference_eval_drift):
    expr = parse_drift(src)
    for t, x, y in _inputs(np.random.default_rng(7)):
        _same_result(eval_drift(expr, t, x, y), reference_eval_drift(expr, t, x, y))


DOMAIN_ERRORS = [
    ("log(x)", 0.0, -1.0, 0.0, "log of nonpositive value -1"),
    ("log(x)", 0.0, np.array([1.0, -0.5, 2.0]), 0.0, "log of nonpositive value -0.5"),
    ("log(x - y)", 0.0, 1.0, 1.0, "log of nonpositive value 0"),
    ("sqrt(y)", 0.0, 0.0, -2.0, "sqrt of negative value -2"),
    ("sqrt(y)", 0.0, 0.0, np.array([4.0, 0.0, -0.25]), "sqrt of negative value -0.25"),
    ("1/x", 0.0, 0.0, 1.0, "division by zero (denominator 0)"),
    ("x/(y - 1)", 0.0, np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0]),
     "division by zero (denominator 0)"),
    ("x/0", 0.0, 3.0, 0.0, "division by zero (denominator 0)"),
    ("x^0.5", 0.0, -4.0, 0.0, "negative base under non-integer power (-4, 0.5)"),
    ("10^x", 0.0, 400.0, 0.0, "power overflow: overflow encountered in power"),
    ("x^(-1)", 0.0, 0.0, 0.0, "power overflow: divide by zero encountered in power"),
    ("x^y", 0.0, np.array([2.0, 0.0]), np.array([1.0, -2.0]),
     "power overflow: divide by zero encountered in power"),
]


@pytest.mark.parametrize("src, t, x, y, message", DOMAIN_ERRORS)
def test_domain_error_messages_word_for_word(src, t, x, y, message, reference_eval_drift):
    expr = parse_drift(src)
    for evaluate in (eval_drift, reference_eval_drift):
        with pytest.raises(DriftDomainError) as err:
            evaluate(expr, t, x, y)
        assert str(err.value) == message


@pytest.mark.parametrize("src, x, y, point", [
    pytest.param("x^y", np.array([1.0, -2.0, -3.0]), np.array([0.5, 2.0, 0.5]), "-3, 0.5",
                 id="x^y-x0-y0"),
    pytest.param("(-2)^y", 0.0, np.array([2.0, 1.5]), "-2, 1.5", id="(-2)^y-0.0-y1"),
    # base and exponent of different shapes: the point is read off their broadcast
    pytest.param("x^y", np.array([[1.0], [-3.0]]), np.array([2.0, 0.5]), "-3, 0.5",
                 id="x^y-broadcast"),
])
def test_negative_base_under_an_array_exponent_raises(src, x, y, point, reference_eval_drift):
    # the message names the first entry whose base is negative under a
    # non-integer power, not the first negative base
    expr = parse_drift(src)
    for evaluate in (eval_drift, reference_eval_drift):
        with pytest.raises(DriftDomainError) as err:
            evaluate(expr, 0.0, x, y)
        assert str(err.value) == f"negative base under non-integer power ({point})"


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
def test_domain_error_of_the_first_failing_operand_wins(op, reference_eval_drift):
    # operands run left to right, so the log fails before the sqrt is reached
    expr = parse_drift(f"log(x) {op} sqrt(y)")
    for evaluate in (eval_drift, reference_eval_drift):
        with pytest.raises(DriftDomainError, match="^log of nonpositive value -1$"):
            evaluate(expr, 0.0, -1.0, -4.0)


def test_result_types_broadcasting_and_aliasing():
    # a scalar input gives a Python float, also for a constant drift
    assert type(eval_drift(parse_drift("x + 1"), 0.0, 2.0, 0.0)) is float
    assert type(eval_drift(parse_drift("2.5"), 0.0, 0.0, 0.0)) is float
    assert type(eval_drift(parse_drift("x"), 0.0, np.array(1.5), 0.0)) is float
    assert type(eval_drift(parse_drift("x"), np.float64(0.0), np.array(1.5), np.zeros(()))) is float
    x = np.linspace(-1.0, 1.0, 6)
    y = np.zeros(6)
    # a constant or t-only drift broadcasts to the state's shape, as a fresh array
    const = eval_drift(parse_drift("2.5"), 0.1, x, y)
    assert const.shape == (6,) and const.flags.writeable and np.all(const == 2.5)
    t = np.linspace(0.0, 1.0, 4)
    timed = eval_drift(parse_drift("sin(t)"), t, np.zeros((3, 1)), 0.0)
    assert timed.shape == (3, 4)
    np.testing.assert_array_equal(timed, np.broadcast_to(np.sin(t), (3, 4)))
    # the drift x returns its input, as the tree walk did: callers must not write into it
    assert eval_drift(parse_drift("x"), 0.1, x, y) is x
    # a narrower input is broadcast into a new array, whichever input widens it
    t0, grid = np.float64(0.1), np.zeros((2, 6))
    for wide, narrow in ((eval_drift(parse_drift("x"), grid, x, y), x),
                         (eval_drift(parse_drift("y"), t0, grid, y), y),
                         (eval_drift(parse_drift("x"), t0, x, grid), x)):
        assert wide.shape == (2, 6) and not np.shares_memory(wide, narrow)


def test_plan_is_not_part_of_equality_and_survives_pickling():
    a, b = parse_drift("0.5*x + sin(t)"), parse_drift("0.5*x + sin(t)")
    assert callable(a.plan)
    assert a == b and hash(a) == hash(b) and a.plan is not b.plan
    assert "plan" not in repr(a)
    again = pickle.loads(pickle.dumps(a))
    assert again == a and eval_drift(again, 1.0, 2.0, 0.0) == eval_drift(a, 1.0, 2.0, 0.0)


def test_threads_share_one_plan_bit_for_bit():
    expr = parse_drift("0.5*sin(x) - cos(y)*t + log(1 + x^2) / (3 + tanh(y)) + abs(y)^0.5")
    rng = np.random.default_rng(11)
    inputs = [(rng.uniform(0.0, 1.0), rng.uniform(-3.0, 3.0, 257), rng.uniform(-3.0, 3.0, 257))
              for _ in range(16)]
    want = [eval_drift(expr, *args).tobytes() for args in inputs]
    errors, wrong = [], []

    def worker(w):
        try:
            for rep in range(200):
                i = (w + rep) % len(inputs)
                if eval_drift(expr, *inputs[i]).tobytes() != want[i]:
                    wrong.append(i)
        except Exception as exc:  # recorded; the assertion below reports it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and wrong == []


# -- classification ---------------------------------------------------------------

def test_classify_time_only():
    assert model("sin(t)", "2").drift_class is DriftClass.TIME_ONLY


def test_classify_linear():
    assert model("t*x + y + 1", "x - 2*y").drift_class is DriftClass.LINEAR
    assert model("x/(1+t)", "exp(t)*y").drift_class is DriftClass.LINEAR


def test_classify_general():
    assert model("sin(x)", "2").drift_class is DriftClass.GENERAL
    assert model("x*y", "0").drift_class is DriftClass.GENERAL
    assert model("x^2", "0").drift_class is DriftClass.GENERAL
    assert model("1/(1+x)", "0").drift_class is DriftClass.GENERAL


_TIME_ONLY, _LINEAR, _GENERAL = DriftClass.TIME_ONLY, DriftClass.LINEAR, DriftClass.GENERAL


@pytest.mark.parametrize("source,expected", [
    ("3", _TIME_ONLY), ("t", _TIME_ONLY), ("sin(t)^2/(1+t)", _TIME_ONLY),
    ("x", _LINEAR), ("y", _LINEAR), ("-x", _LINEAR), ("-(x - y)", _LINEAR),
    ("x*t", _LINEAR), ("t*x", _LINEAR), ("x*y", _GENERAL), ("t*(2*x)", _LINEAR),
    ("x*(t*y)", _GENERAL), ("2*x*t", _LINEAR),
    ("x/t", _LINEAR), ("t/x", _GENERAL), ("x/2/(1+t)", _LINEAR), ("(x+y)/(t+1)", _LINEAR),
    ("x/(1+y)", _GENERAL), ("(x*y)/2", _GENERAL),
    ("2^x", _GENERAL), ("x^2", _GENERAL), ("x^t", _GENERAL), ("t^x", _GENERAL),
    ("t^2*x", _LINEAR), ("exp(t)*y", _LINEAR), ("sin(t)*x + cos(t)", _LINEAR),
    ("abs(x)", _GENERAL), ("exp(t*x)", _GENERAL), ("x - sin(x)", _GENERAL),
    ("-sin(y)", _GENERAL), ("sqrt(t)*(x + y)", _LINEAR),
    ("(x+1)*(t+1)", _LINEAR), ("(x+1)*(y+1)", _GENERAL),
])
def test_classification_table(source, expected):
    # every node kind, and state on either side of *, / and ^, in either drift
    assert model(source, "0").drift_class is expected
    assert model("0", source).drift_class is expected


def test_classify_drift_function():
    m = model("sin(t)", "1")
    assert classify_drift(m) is DriftClass.TIME_ONLY


def test_time_only_constant_in_state():
    m = model("sin(t) + 2", "exp(-t)")
    rng = np.random.default_rng(0)
    base = eval_drift(m.h1, 0.3, 0.0, 0.0)
    for _ in range(20):
        x, y = rng.normal(size=2) * 10
        assert eval_drift(m.h1, 0.3, x, y) == base


# -- model validation ----------------------------------------------------------------

def test_model_invariants():
    with pytest.raises(ValueError):
        ModelSpec(Hurst(0.3), 1.0, 0, 0, 1.0, ZERO, ZERO)
    with pytest.raises(ValueError):
        ModelSpec(Hurst(0.3), 0.0, 0, 0, -1.0, ZERO, ZERO)


def test_holder_gamma_required_for_rough_state_drifts():
    with pytest.raises(ValueError):
        model("x", "y", H=0.7)
    m = model("x", "y", H=0.7, holder_gamma=0.3)
    assert m.holder_gamma == 0.3
    with pytest.raises(ValueError):
        model("x", "y", H=0.7, holder_gamma=0.1)  # below H - 1/2
    # TimeOnly drifts need no declaration
    assert model("sin(t)", "1", H=0.7).drift_class is DriftClass.TIME_ONLY


def test_model_from_dict_strict():
    cfg = {"H": 0.3, "rho": 0.2, "x0": 0.0, "y0": 0.0, "T": 1.0,
           "h1": "0", "h2": "0"}
    m = model_from_dict(cfg)
    assert m.H == 0.3
    with pytest.raises(ValueError):
        model_from_dict({**cfg, "bogus": 1})
    with pytest.raises(ValueError):
        model_from_dict({k: v for k, v in cfg.items() if k != "T"})


# -- assumption report ------------------------------------------------------------------

def test_constant_drifts_report():
    r = validate_assumptions(model("1", "1", T=0.5), ((-1, 1), (-1, 1)))
    assert r.lipschitz_estimate == 0.0
    assert math.isinf(r.contraction_horizon)
    assert not r.violations


def test_linear_drift_lipschitz_estimate():
    r = validate_assumptions(model("3*x", "0", T=0.1), ((-1, 1), (-1, 1)))
    assert r.lipschitz_estimate == pytest.approx(3.0, rel=0.02)
    assert r.contraction_horizon == pytest.approx(1.0 / 6.0, rel=0.02)


def test_sqrt_drift_triggers_refinement_warning():
    r = validate_assumptions(model("1", "sqrt(abs(y))", T=0.1), ((-1, 1), (-1, 1)))
    assert any("spacing shrinks" in v for v in r.violations)


def test_horizon_warning():
    r = validate_assumptions(model("3*x", "0", T=1.0), ((-1, 1), (-1, 1)))
    assert any("contraction horizon" in v for v in r.violations)
