"""Drift expressions: parsing, evaluation, classification, assumption checks.

Grammar (whitespace-insensitive)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := primary ("^" factor)?          # right-associative
    primary := number | ident | ident "(" expr ")" | "(" expr ")"

Variables are t, x, y; functions are sin, cos, exp, log, sqrt, abs, tanh.
"^" binds tighter than unary minus ("-x^2" is -(x^2)), and its exponent may
itself be signed ("2^-3").  Evaluation is IEEE double and vectorizes over
numpy arrays; domain violations (log of a nonpositive value, sqrt of a
negative one, a negative base under a non-integer power, division by zero)
raise :class:`DriftDomainError` instead of propagating NaNs.

Each expression is compiled once, when it is parsed, into a plan: a tree of
closures, one per node, that calls the node's ufunc and domain check
directly.  :func:`eval_drift` runs the plan, so an evaluation pays no tree
walk or node dispatch, only its ufuncs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .kernel import Hurst

__all__ = [
    "DriftExpr",
    "DriftClass",
    "ModelSpec",
    "AssumptionReport",
    "ExprSyntaxError",
    "DriftDomainError",
    "parse_drift",
    "eval_drift",
    "classify_drift",
    "validate_assumptions",
    "model_from_dict",
]

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh")
_VARIABLES = ("t", "x", "y")
_MAX_DEPTH = 64  # levels of an expression tree, and of nested parentheses


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected=()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected one of: {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


class DriftDomainError(ValueError):
    """Evaluation hit a function outside its domain."""


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


def _free_vars(node: Node, acc: set) -> set:
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, Neg):
        _free_vars(node.operand, acc)
    elif isinstance(node, Call):
        _free_vars(node.arg, acc)
    elif isinstance(node, BinOp):
        _free_vars(node.left, acc)
        _free_vars(node.right, acc)
    return acc


@dataclass(frozen=True)
class DriftExpr:
    """A parsed drift expression over (t, x, y), with its compiled evaluation plan.

    The plan is built once, when the expression is made, and only read
    afterwards, so threads can share an expression.
    """

    ast: Node
    source: str = ""
    plan: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", _compile(self.ast))

    def __reduce__(self):
        return DriftExpr, (self.ast, self.source)

    def free_vars(self) -> frozenset:
        return frozenset(_free_vars(self.ast, set()))

    def to_source(self) -> str:
        return _print(self.ast)

    def __call__(self, t, x, y):
        return eval_drift(self, t, x, y)


def _print(node: Node) -> str:
    """Canonical fully-parenthesized rendering; parse(print(.)) is stable."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_print(node.operand)})"
    if isinstance(node, Call):
        return f"{node.fn}({_print(node.arg)})"
    return f"({_print(node.left)} {node.op} {_print(node.right)})"


# -- tokenizer / parser ---------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(src: str):
    tokens = []  # (kind, text, offset)
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_e = False
            while j < len(src) and (src[j].isdigit() or src[j] == "."
                                    or (src[j] in "eE" and not seen_e)
                                    or (src[j] in "+-" and j > i and src[j - 1] in "eE")):
                if src[j] in "eE":
                    seen_e = True
                j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {text!r}", i) from None
            tokens.append(("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent that bounds the tree as it grows, so its recursion stays shallow.

    Each rule takes `level`, the number of nodes known to lie above the
    subtree it parses, and returns the subtree with its depth.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.groups = 0  # parentheses open at the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}",
                                  off, expected=(op,))
        return self.advance()

    def bounded(self, level: int, depth: int) -> int:
        """depth, unless level + depth or the open parentheses exceed _MAX_DEPTH."""
        if level + depth > _MAX_DEPTH or self.groups > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression tree deeper than {_MAX_DEPTH}", self.peek()[2])
        return depth

    def parse(self) -> Node:
        node, _ = self.expr(0)
        kind, text, off = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"trailing input {text!r}", off,
                                  expected=("+", "-", "*", "/", "^", "end of input"))
        return node

    def expr(self, level: int):
        node, depth = self.term(level)
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right, d = self.term(level + 1)
                node, depth = BinOp(text, node, right), self.bounded(level, 1 + max(depth, d))
            else:
                return node, depth

    def term(self, level: int):
        node, depth = self.factor(level)
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right, d = self.factor(level + 1)
                node, depth = BinOp(text, node, right), self.bounded(level, 1 + max(depth, d))
            else:
                return node, depth

    def factor(self, level: int):
        self.bounded(level, 1)  # every recursion passes here
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            operand, d = self.factor(level + 1)
            return Neg(operand), 1 + d
        return self.power(level)

    def power(self, level: int):
        base, depth = self.primary(level)
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent, d = self.factor(level + 1)
            return BinOp("^", base, exponent), self.bounded(level, 1 + max(depth, d))
        return base, depth

    def primary(self, level: int):
        kind, text, off = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text)), 1
        if kind == "ident":
            self.advance()
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in _FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", off,
                                          expected=_FUNCTIONS)
                arg, d = self.group(level + 1)
                return Call(text, arg), 1 + d
            if text not in _VARIABLES:
                raise ExprSyntaxError(f"unknown identifier {text!r}", off,
                                      expected=_VARIABLES)
            return Var(text), 1
        if kind == "op" and text == "(":
            return self.group(level)
        raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", off,
                              expected=("number", "identifier", "("))

    def group(self, level: int):
        """The expression in the parentheses that open at the current token."""
        self.advance()
        self.groups += 1
        node, depth = self.expr(level)
        self.expect_op(")")
        self.groups -= 1
        return node, depth


def parse_drift(source: str) -> DriftExpr:
    """Parse a drift expression over the variables t, x, y."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    return DriftExpr(_Parser(_tokenize(source)).parse(), source)


# -- evaluation -----------------------------------------------------------------

def _bad_example(mask, *vals):
    """Each of vals, broadcast to the shape of mask, read at mask's first true entry."""
    idx = np.argmax(mask)
    return ", ".join(f"{np.broadcast_to(v, np.shape(mask)).flat[idx]:g}" for v in vals)


def _compile(node: Node):
    """The plan of node: a closure f(t, x, y) that runs the node's ufuncs.

    Operands are evaluated left to right, each with its domain check before
    the ufunc that needs it.  A variable's plan returns the input itself and
    a constant's the Python float.
    """
    if isinstance(node, Num):
        value = node.value
        return lambda t, x, y: value
    if isinstance(node, Var):
        return _VAR_PLANS[node.name]
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda t, x, y: -operand(t, x, y)
    if isinstance(node, Call):
        return _compile_call(node.fn, _compile(node.arg))
    left, right = _compile(node.left), _compile(node.right)
    if node.op == "+":
        return lambda t, x, y: left(t, x, y) + right(t, x, y)
    if node.op == "-":
        return lambda t, x, y: left(t, x, y) - right(t, x, y)
    if node.op == "*":
        return lambda t, x, y: left(t, x, y) * right(t, x, y)
    if node.op == "/":
        def divide(t, x, y):
            num, den = left(t, x, y), right(t, x, y)
            bad = np.asarray(den) == 0.0
            if bad.any():
                raise DriftDomainError(f"division by zero (denominator {_bad_example(bad, den)})")
            return num / den
        return divide

    def power(t, x, y):  # node.op == "^"
        base, expo = left(t, x, y), right(t, x, y)
        lneg = np.asarray(base) < 0.0
        if lneg.any():
            r = np.asarray(expo, dtype=float)
            bad = lneg & (r != np.floor(r))
            if np.any(bad):
                raise DriftDomainError(
                    f"negative base under non-integer power ({_bad_example(bad, base, expo)})"
                )
        with np.errstate(over="raise", divide="raise"):
            try:
                return np.power(np.asarray(base, dtype=float), expo)
            except FloatingPointError as exc:
                raise DriftDomainError(f"power overflow: {exc}") from None
    return power


_VAR_PLANS = {"t": lambda t, x, y: t, "x": lambda t, x, y: x, "y": lambda t, x, y: y}


# functions with a domain: the comparison with 0 that marks a bad argument, and the error text
_DOMAINS = {"log": (np.less_equal, "log of nonpositive value"),
            "sqrt": (np.less, "sqrt of negative value")}


def _compile_call(fn: str, arg):
    ufunc = getattr(np, fn)
    if fn not in _DOMAINS:
        return lambda t, x, y: ufunc(arg(t, x, y))
    outside, message = _DOMAINS[fn]

    def checked(t, x, y):
        a = arg(t, x, y)
        bad = outside(np.asarray(a), 0.0)
        if bad.any():
            raise DriftDomainError(f"{message} {_bad_example(bad, a)}")
        return ufunc(a)
    return checked


_FLOAT64 = np.dtype(np.float64)


def eval_drift(expr: DriftExpr, t, x, y):
    """Evaluate a drift at (t, x, y); broadcasts over numpy arrays.

    Runs the plan compiled at parse time.  A scalar result is a Python float.
    An array result may be one of the inputs itself (the drift ``x``) or a
    read-only view, so callers never write into it.
    """
    out = expr.plan(t, x, y)
    if type(out) is np.ndarray and out.dtype is _FLOAT64 and out.ndim:
        # returned as is when no input widens it: each input's shape is a
        # trailing part of the result's (a numpy scalar's (), or the nodes
        # under a batch of paths)
        shape = out.shape
        nd = len(shape)
        try:
            if (shape[nd - t.ndim:] == t.shape and shape[nd - x.ndim:] == x.shape
                    and shape[nd - y.ndim:] == y.shape):
                return out
        except AttributeError:  # an input that is not a numpy array or scalar
            pass
    shape = np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(y))
    if shape == ():
        return float(out)
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


# -- classification ---------------------------------------------------------------

class DriftClass(str, Enum):
    TIME_ONLY = "TimeOnly"
    LINEAR = "Linear"
    GENERAL = "General"


def _stateless(node: Node) -> bool:
    return not _free_vars(node, set()) & {"x", "y"}


def _is_linear(node: Node) -> bool:
    """True when node has the form alpha(t) * x + beta(t) * y + gamma(t)."""
    if _stateless(node) or isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return _is_linear(node.operand)
    if not isinstance(node, BinOp):  # a Call of the state
        return False
    if node.op in "+-":
        return _is_linear(node.left) and _is_linear(node.right)
    if node.op == "*":
        return ((_stateless(node.left) and _is_linear(node.right))
                or (_stateless(node.right) and _is_linear(node.left)))
    # "^" of the state is never linear
    return node.op == "/" and _stateless(node.right) and _is_linear(node.left)


def classify_exprs(h1: DriftExpr, h2: DriftExpr) -> DriftClass:
    if _stateless(h1.ast) and _stateless(h2.ast):
        return DriftClass.TIME_ONLY
    if _is_linear(h1.ast) and _is_linear(h2.ast):
        return DriftClass.LINEAR
    return DriftClass.GENERAL


# -- model -------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Full problem instance for the coupled Brownian / fBm system.

    A ValueError unless rho lies in (-1, 1) with 1 - (rho kappa_H)^2 >= 1e-10,
    x0 and y0 are finite, T is positive and finite, and holder_gamma is None or
    in (0, 1/2), and in (H - 1/2, 1/2) for a state-dependent drift with H > 1/2.
    """

    hurst: Hurst
    rho: float
    x0: float
    y0: float
    T: float
    h1: DriftExpr
    h2: DriftExpr
    holder_gamma: Optional[float] = None
    drift_class: DriftClass = field(init=False)

    def __post_init__(self) -> None:
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise ValueError(f"x0 and y0 must be finite, got {self.x0}, {self.y0}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        rho_h = self.rho * self.hurst.kappa_H
        if 1.0 - rho_h ** 2 < 1e-10:
            raise ValueError(
                f"degenerate correlation: 1 - (rho kappa_H)^2 = {1 - rho_h ** 2:.3e} < 1e-10"
            )
        object.__setattr__(self, "drift_class", classify_exprs(self.h1, self.h2))
        if self.holder_gamma is not None and not 0.0 < self.holder_gamma < 0.5:
            raise ValueError(f"holder_gamma must lie in (0, 1/2), got {self.holder_gamma}")
        if self.hurst.H > 0.5 and self.drift_class is not DriftClass.TIME_ONLY:
            g = self.holder_gamma
            if g is None or not (self.hurst.H - 0.5 < g < 0.5):
                raise ValueError(
                    "state-dependent drifts with H > 1/2 require holder_gamma in "
                    f"(H - 1/2, 1/2) = ({self.hurst.H - 0.5}, 0.5), got {g}"
                )

    def displacement(self, endpoint) -> tuple:
        """(x - x0, y - y0) of the endpoint (x, y) as floats; a ValueError
        naming the endpoint if either is not finite (a NaN endpoint, or one
        too far from (x0, y0) for a float)."""
        dx, dy = float(endpoint[0]) - self.x0, float(endpoint[1]) - self.y0
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise ValueError(f"endpoint ({endpoint[0]}, {endpoint[1]}) has no finite "
                             f"displacement from (x0, y0) = ({self.x0}, {self.y0})")
        return dx, dy

    @property
    def H(self) -> float:
        return self.hurst.H

    @property
    def rho_bar(self) -> float:
        return math.sqrt(1.0 - self.rho ** 2)

    @property
    def rho_H(self) -> float:
        return self.rho * self.hurst.kappa_H

    @property
    def rho_bar_H_sq(self) -> float:
        return 1.0 - self.rho_H ** 2

    @cached_property
    def _assumption_warnings(self) -> tuple:
        """The forward simulation's warnings for this model: the violations of
        validate_assumptions, or one saying why the check was skipped: the
        DriftDomainError that ends it, or a default sample box that floats
        cannot hold (x0 + 15 sqrt(T) rounding to x0, say).  The report depends
        only on the model, so it is computed once per instance (kept in the
        instance's __dict__, outside the fields, so equality and hashing are
        unchanged)."""
        try:
            _check_box(default_sample_box(self))
        except ValueError as exc:
            return (f"assumption check skipped, default {exc}",)
        try:
            return validate_assumptions(self).violations
        except DriftDomainError as exc:
            return (f"assumption check skipped, drift undefined on its sample box: {exc}",)


def json_number(value, where: str, kind=float):
    """A JSON number as kind (float or int); a ValueError naming where for a
    boolean, a string, null, an int too large for a float, or a fraction as int."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        number = kind(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{where} must be a number, got {value!r}") from None
    if kind is int and number != value:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return number


def model_from_dict(cfg: dict) -> ModelSpec:
    """Build a ModelSpec from a plain dict: the reader of the CLI config's 'model' block.

    An unknown or missing key is a ValueError; h1 and h2 must be strings, and
    each number (holder_gamma may also be null) is read by json_number.
    """
    unknown = set(cfg) - {"H", "rho", "x0", "y0", "T", "h1", "h2", "holder_gamma"}
    if unknown:
        raise ValueError(f"unknown model keys: {sorted(unknown)}")
    missing = {"H", "rho", "x0", "y0", "T", "h1", "h2"} - set(cfg)
    if missing:
        raise ValueError(f"missing model keys: {sorted(missing)}")
    for key in ("h1", "h2"):
        if not isinstance(cfg[key], str):
            raise ValueError(f"{key} must be a drift expression string, got {cfg[key]!r}")
    H, rho, x0, y0, T = (json_number(cfg[key], key) for key in ("H", "rho", "x0", "y0", "T"))
    gamma = cfg.get("holder_gamma")
    return ModelSpec(Hurst(H), rho, x0, y0, T, parse_drift(cfg["h1"]), parse_drift(cfg["h2"]),
                     None if gamma is None else json_number(gamma, "holder_gamma"))


def classify_drift(model: ModelSpec) -> DriftClass:
    """Drift class of the model (TimeOnly / Linear / General)."""
    return model.drift_class


# -- assumption checks ---------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionReport:
    """Sampled estimates of the regularity constants; advisory only."""

    lipschitz_estimate: float
    linear_growth_estimate: float
    contraction_horizon: float
    violations: tuple

    def __str__(self) -> str:
        lines = [
            f"Lipschitz estimate L ~ {self.lipschitz_estimate:.4g}",
            f"linear growth estimate K ~ {self.linear_growth_estimate:.4g}",
            f"contraction horizon 1/(2L) ~ {self.contraction_horizon:.4g}",
        ]
        for v in self.violations:
            lines.append(f"warning: {v}")
        return "\n".join(lines)


def default_sample_box(model: ModelSpec):
    """Default state box: x0 +- 15 sqrt(T), y0 +- 15 T^H."""
    rx = 15.0 * math.sqrt(model.T)
    ry = 15.0 * model.T ** model.H
    return ((model.x0 - rx, model.x0 + rx), (model.y0 - ry, model.y0 + ry))


def _check_box(box) -> None:
    """A ValueError unless the sample box ((x_lo, x_hi), (y_lo, y_hi)) is finite with lo < hi."""
    (x_lo, x_hi), (y_lo, y_hi) = box
    if not (np.isfinite([x_lo, x_hi, y_lo, y_hi]).all() and x_lo < x_hi and y_lo < y_hi):
        raise ValueError(f"sample_box must be finite with lo < hi, got {box}")


_ASSUMPTION_SAMPLES = 400  # points per sampled quotient, from a fixed stream


@np.errstate(all="ignore")  # a sample's overflow is a quotient's inf or nan, never an error
def validate_assumptions(model: ModelSpec, sample_box=None) -> AssumptionReport:
    """Estimate the Lipschitz / linear-growth constants by sampled quotients.

    The estimates are lower bounds of the true constants, so violations are
    reported as warnings and never rejected.  A Lipschitz quotient that keeps
    growing as the probe spacing shrinks (e.g. sqrt-type drifts) is flagged,
    as is T at or beyond the contraction horizon 1/(2 L), and (for H > 1/2)
    a sampled t-Hoelder quotient of h2 exceeding the declared envelope.  A
    drift undefined somewhere on the sample box raises DriftDomainError; any
    other floating-point error on the way neither raises nor warns, whatever
    the caller's numpy error state.
    """
    if sample_box is None:
        sample_box = default_sample_box(model)
    _check_box(sample_box)
    (x_lo, x_hi), (y_lo, y_hi) = sample_box
    rng = np.random.Generator(np.random.Philox(key=0))
    ts = rng.uniform(0.0, model.T, _ASSUMPTION_SAMPLES)
    xs = rng.uniform(x_lo, x_hi, _ASSUMPTION_SAMPLES)
    ys = rng.uniform(y_lo, y_hi, _ASSUMPTION_SAMPLES)
    violations = []

    # Lipschitz quotients at a ladder of spacings; growth under refinement is a
    # warning.  Each finer level re-probes around the worst points of the
    # previous one, so quotient blow-ups on thin singular sets are found too.
    scale = max(x_hi - x_lo, y_hi - y_lo)
    spacings = scale * np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    ladder = []
    px, py, pt = xs, ys, ts
    for d in spacings:
        dx = rng.uniform(-d, d, len(px))
        dy = rng.uniform(-d, d, len(px))
        denom = np.abs(dx) + np.abs(dy)
        worst = 0.0
        worst_q = None
        for h in (model.h1, model.h2):
            v0 = np.asarray(eval_drift(h, pt, px, py))
            v1 = np.asarray(eval_drift(h, pt, np.clip(px + dx, x_lo, x_hi),
                                       np.clip(py + dy, y_lo, y_hi)))
            q = np.nan_to_num(np.abs(v1 - v0) / denom)
            if worst_q is None or q.max() > worst_q.max():
                worst_q = q
            worst = max(worst, float(q.max()))
        ladder.append(worst)
        # children of the worst points, perturbed at the current scale
        top = np.argsort(worst_q)[-max(8, len(px) // 10):]
        kids = 4
        cx = np.repeat(px[top], kids) + rng.uniform(-d, d, kids * len(top))
        cy = np.repeat(py[top], kids) + rng.uniform(-d, d, kids * len(top))
        ct = np.repeat(pt[top], kids)
        px = np.concatenate([xs, np.clip(cx, x_lo, x_hi)])
        py = np.concatenate([ys, np.clip(cy, y_lo, y_hi)])
        pt = np.concatenate([ts, ct])
    lipschitz = max(ladder)
    if ladder[-1] > 3.0 * ladder[0] and ladder[-1] > 1e-8:
        violations.append(
            "sampled Lipschitz quotient grows as the probe spacing shrinks "
            f"({ladder[0]:.3g} at coarse vs {ladder[-1]:.3g} at fine); "
            "the drift may not be Lipschitz on this box"
        )

    growth = 0.0
    for h in (model.h1, model.h2):
        vals = np.abs(np.asarray(eval_drift(h, ts, xs, ys)))
        growth = max(growth, float(np.max(vals / (1.0 + np.abs(xs) + np.abs(ys)))))

    horizon = math.inf if lipschitz == 0.0 else 1.0 / (2.0 * lipschitz)
    if model.T >= horizon:
        violations.append(
            f"T = {model.T:g} is not below the sampled contraction horizon "
            f"1/(2L) ~ {horizon:.4g}; existence/uniqueness is not guaranteed"
        )

    if model.H > 0.5 and model.holder_gamma is not None:
        gma = model.holder_gamma
        dts = model.T * np.array([1e-1, 1e-3, 1e-5])
        worst_ratio = 0.0
        base = None
        for d in dts:
            t2 = np.clip(ts + d, 0.0, model.T)
            v0 = np.asarray(eval_drift(model.h2, ts, xs, ys))
            v1 = np.asarray(eval_drift(model.h2, t2, xs, ys))
            q = float(np.max(np.abs(v1 - v0) / np.maximum(t2 - ts, 1e-300) ** gma))
            if base is None:
                base = q
            worst_ratio = max(worst_ratio, q)
        if base is not None and worst_ratio > 3.0 * max(base, 1e-12) and worst_ratio > 1e-8:
            violations.append(
                f"sampled t-Hoelder quotient of h2 at gamma={gma:g} grows under "
                f"refinement (up to {worst_ratio:.3g}); the declared exponent may be too large"
            )

    return AssumptionReport(
        lipschitz_estimate=lipschitz,
        linear_growth_estimate=growth,
        contraction_horizon=horizon,
        violations=tuple(violations),
    )
