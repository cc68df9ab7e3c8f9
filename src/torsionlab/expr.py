"""Scalar expressions in x, y with exact first and second derivatives.

Differentiation is second-order forward mode: every node evaluates to a
``Jet2`` carrying value, gradient and symmetric Hessian, so derivatives are
exact up to rounding (no symbolic rewriting, no finite differences).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
    "select": 3,
}

COMPARISON_OPS = ("<=", ">=", "==", "!=", "<", ">")


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    name: str  # variable or the built-in constant "pi"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int  # non-negative integer literal


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


@dataclass(frozen=True)
class Compare:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Select:
    cond: Compare
    then: "Expr"
    other: "Expr"


Expr = object  # union of the node classes above (Compare only inside Select)


# --- second-order jets -----------------------------------------------------

class Jet2:
    """Value, gradient and symmetric Hessian of a function of (x, y).

    Fields are floats or numpy arrays; the arithmetic is elementwise.
    Treat jets as immutable: compiled expressions share their constants.
    """

    __slots__ = ("f", "fx", "fy", "fxx", "fxy", "fyy")

    def __init__(self, f, fx=0.0, fy=0.0, fxx=0.0, fxy=0.0, fyy=0.0):
        self.f = f
        self.fx = fx
        self.fy = fy
        self.fxx = fxx
        self.fxy = fxy
        self.fyy = fyy

    def __repr__(self):
        return (f"Jet2({self.f!r}, grad=({self.fx!r}, {self.fy!r}), "
                f"hess=({self.fxx!r}, {self.fxy!r}, {self.fyy!r}))")

    def __add__(self, o):
        return Jet2(self.f + o.f, self.fx + o.fx, self.fy + o.fy,
                    self.fxx + o.fxx, self.fxy + o.fxy, self.fyy + o.fyy)

    def __sub__(self, o):
        return Jet2(self.f - o.f, self.fx - o.fx, self.fy - o.fy,
                    self.fxx - o.fxx, self.fxy - o.fxy, self.fyy - o.fyy)

    def __neg__(self):
        return Jet2(-self.f, -self.fx, -self.fy, -self.fxx, -self.fxy, -self.fyy)

    def __mul__(self, o):
        return Jet2(
            self.f * o.f,
            self.fx * o.f + self.f * o.fx,
            self.fy * o.f + self.f * o.fy,
            self.fxx * o.f + 2.0 * self.fx * o.fx + self.f * o.fxx,
            self.fxy * o.f + self.fx * o.fy + self.fy * o.fx + self.f * o.fxy,
            self.fyy * o.f + 2.0 * self.fy * o.fy + self.f * o.fyy,
        )

    def chain(self, g0, g1, g2):
        """Compose with a scalar function given by g(u), g'(u), g''(u)."""
        return Jet2(
            g0,
            g1 * self.fx,
            g1 * self.fy,
            g1 * self.fxx + g2 * self.fx * self.fx,
            g1 * self.fxy + g2 * self.fx * self.fy,
            g1 * self.fyy + g2 * self.fy * self.fy,
        )


# --- tokenizer -------------------------------------------------------------

_TOK_NUM = "num"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_EOF = "eof"


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal '{lit}'", i)
            tokens.append((_TOK_NUM, lit, i, value))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOK_IDENT, text[i:j], i, None))
            i = j
            continue
        for op in COMPARISON_OPS:
            if text.startswith(op, i):
                tokens.append((_TOK_OP, op, i, None))
                i += len(op)
                break
        else:
            if c in "+-*/^(),":
                tokens.append((_TOK_OP, c, i, None))
                i += 1
            else:
                raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append((_TOK_EOF, "", n, None))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    """Recursive descent; precedence: comparison < +- < */ < unary - < ^."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off, _ = self.peek()
        if kind != _TOK_OP or val != op:
            raise ExprSyntaxError(f"expected '{op}'", off)
        return self.advance()

    def parse(self):
        node = self.comparison()
        kind, val, off, _ = self.peek()
        if kind != _TOK_EOF:
            raise ExprSyntaxError(f"unexpected trailing input '{val}'", off)
        if isinstance(node, Compare):
            raise ExprSyntaxError(
                "comparisons are only allowed inside select(...)", 0)
        return node

    def comparison(self):
        left = self.sum()
        kind, val, off, _ = self.peek()
        if kind == _TOK_OP and val in COMPARISON_OPS:
            self.advance()
            right = self.sum()
            return Compare(val, left, right)
        return left

    def sum(self):
        node = self.product()
        while True:
            kind, val, _, _ = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.advance()
                node = BinOp(val, node, self.product())
            else:
                return node

    def product(self):
        node = self.unary()
        while True:
            kind, val, _, _ = self.peek()
            if kind == _TOK_OP and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _, _ = self.peek()
        if kind == _TOK_OP and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, off, _ = self.peek()
        if kind == _TOK_OP and val == "^":
            self.advance()
            kind, lit, off, value = self.peek()
            if kind != _TOK_NUM or value is None or value != int(value):
                raise ExprSyntaxError("exponent must be an integer literal", off)
            self.advance()
            return Pow(base, int(value))
        return base

    def atom(self):
        kind, val, off, value = self.advance()
        if kind == _TOK_NUM:
            return Num(value)
        if kind == _TOK_OP and val == "(":
            node = self.comparison()
            self.expect_op(")")
            return node
        if kind == _TOK_IDENT:
            nkind, nval, _, _ = self.peek()
            if nkind == _TOK_OP and nval == "(":
                return self.call(val, off)
            if val == "pi":
                return Name("pi")
            if val in self.variables:
                return Name(val)
            raise UnknownIdentifier(val, off)
        raise ExprSyntaxError(
            "unexpected end of input" if kind == _TOK_EOF else f"unexpected '{val}'",
            off)

    def call(self, func: str, off: int):
        if func not in FUNCTIONS:
            raise UnknownIdentifier(func, off)
        self.expect_op("(")
        args = [self.comparison()]
        while True:
            kind, val, o2, _ = self.peek()
            if kind == _TOK_OP and val == ",":
                self.advance()
                args.append(self.comparison())
            else:
                break
        self.expect_op(")")
        arity = FUNCTIONS[func]
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{func} takes {arity} argument(s), got {len(args)}", off)
        if func == "select":
            cond, then, other = args
            if not isinstance(cond, Compare):
                raise ExprSyntaxError(
                    "select condition must be a comparison", off)
            if isinstance(then, Compare) or isinstance(other, Compare):
                raise ExprSyntaxError(
                    "select branches must be numeric expressions", off)
            return Select(cond, then, other)
        for a in args:
            if isinstance(a, Compare):
                raise ExprSyntaxError(
                    "comparisons are only allowed inside select(...)", off)
        return Call(func, tuple(args))


def parse_expr(text: str, variables: Sequence[str] = ("x", "y")):
    """Parse expression text over the given variables (default x, y)."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, variables).parse()


# --- pretty printer --------------------------------------------------------

_PREC = {"cmp": 0, "+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(node) -> str:
    """Render a tree so that re-parsing gives a structurally identical tree."""
    text, _ = _render(node)
    return text


def _paren(child_text, child_prec, min_prec):
    return f"({child_text})" if child_prec < min_prec else child_text


def _render(node):
    if isinstance(node, Num):
        return _fmt_num(node.value), _PREC["atom"]
    if isinstance(node, Name):
        return node.name, _PREC["atom"]
    if isinstance(node, Neg):
        t, p = _render(node.arg)
        return "-" + _paren(t, p, _PREC["neg"]), _PREC["neg"]
    if isinstance(node, BinOp):
        lt, lp = _render(node.left)
        rt, rp = _render(node.right)
        prec = _PREC[node.op]
        # left associative: right operand needs strictly higher precedence
        left = _paren(lt, lp, prec)
        right = _paren(rt, rp, prec + 1)
        return f"{left}{node.op}{right}", prec
    if isinstance(node, Pow):
        bt, bp = _render(node.base)
        return f"{_paren(bt, bp, _PREC['atom'])}^{node.exponent}", _PREC["^"]
    if isinstance(node, Call):
        args = ",".join(_render(a)[0] for a in node.args)
        return f"{node.func}({args})", _PREC["atom"]
    if isinstance(node, Select):
        c = f"{_render(node.cond.left)[0]}{node.cond.op}{_render(node.cond.right)[0]}"
        return (f"select({c},{_render(node.then)[0]},{_render(node.other)[0]})",
                _PREC["atom"])
    if isinstance(node, Compare):
        return (f"{_render(node.left)[0]}{node.op}{_render(node.right)[0]}",
                _PREC["cmp"])
    raise TypeError(f"not an expression node: {node!r}")


def free_variables(node) -> frozenset:
    out = set()
    _collect_names(node, out)
    out.discard("pi")
    return frozenset(out)


def _collect_names(node, out):
    if isinstance(node, Name):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_names(node.arg, out)
    elif isinstance(node, (BinOp, Compare)):
        _collect_names(node.left, out)
        _collect_names(node.right, out)
    elif isinstance(node, Pow):
        _collect_names(node.base, out)
    elif isinstance(node, Call):
        for a in node.args:
            _collect_names(a, out)
    elif isinstance(node, Select):
        _collect_names(node.cond, out)
        _collect_names(node.then, out)
        _collect_names(node.other, out)


# --- evaluation ------------------------------------------------------------
#
# Each tree is compiled once per build into a one-argument closure, kept on
# the root node (trees are immutable, so a closure never goes stale).  The
# "value" build maps the variable mapping env to a float.  The jet builds
# map the point p = (x, y, live, env) to a Jet2: "jet" over floats with
# math, "array" over broadcastable arrays with numpy, with the same IEEE
# operations in the same order, so every array lane carries the bits of the
# scalar evaluation at its point.  A jet build folds each subtree that reads
# a bound variable (any name but x, y and pi) and neither x nor y: it runs
# as its value closure on env and enters as a constant jet.  ``live`` masks
# the array lanes that the scalar evaluation of each point reaches (None:
# all); where a live lane's scalar evaluation would raise, the closure
# raises _Lane and eval_jet2 replays the points in row-major order through
# the scalar build, which raises the error of the first offending point.

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


class _Lane(Exception):
    """A live array lane would raise in the scalar evaluation."""


def _domain(node, at, reason):
    """Raise DomainError naming the point (x, y) of a jet or the env."""
    where = at[:2] if isinstance(at, tuple) else dict(at)
    raise DomainError(f"{reason} in '{to_text(node)}' at {where}")


def _compiled(node, key: str):
    """The closure of build key[1:], cached under key ("_value", say)."""
    try:
        return node.__dict__[key]
    except KeyError:
        # frozen only guards attribute assignment
        fn = node.__dict__[key] = _compile(node, key[1:])
        return fn


def eval_value(node, env: Mapping[str, float]) -> float:
    """Plain numeric evaluation with an arbitrary variable environment."""
    return _compiled(node, "_value")(env)


def eval_jet2(node, x, y, env: Mapping[str, float] | None = None) -> Jet2:
    """Exact value, gradient and Hessian at (x, y).

    Other variables (t, say) are read from ``env`` and held constant.
    x and y are floats or broadcastable arrays.  Array fields hold the
    scalar results of each point bit for bit (a field may stay a scalar
    when it does not depend on the point), and a point whose evaluation
    fails raises the scalar error of the first such point in row-major
    order.
    """
    env = {} if env is None else env
    if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
        return _compiled(node, "_jet")((float(x), float(y), None, env))
    x, y = np.asarray(x, float), np.asarray(y, float)
    with np.errstate(all="ignore"):
        try:
            return _compiled(node, "_array")((x, y, None, env))
        except _Lane:
            pass
    scalar = _compiled(node, "_jet")
    for xi, yi in zip(*(a.ravel().tolist() for a in np.broadcast_arrays(x, y))):
        scalar((xi, yi, None, env))
    raise RuntimeError(f"array jet of '{to_text(node)}' flagged a lane that"
                       " evaluates cleanly")


def _flag(bad, live):
    """Raise _Lane when ``bad`` holds on a live lane."""
    if np.any(bad if live is None else bad & live):
        raise _Lane


def _where(mask, a: Jet2, b: Jet2) -> Jet2:
    return Jet2(*(np.where(mask, p, q) for p, q in
                  ((a.f, b.f), (a.fx, b.fx), (a.fy, b.fy),
                   (a.fxx, b.fxx), (a.fxy, b.fxy), (a.fyy, b.fyy))))


def _libm(fn, v, live):
    """``fn`` from math applied lane by lane: numpy's own exp and log
    kernels may differ from libm in the last place."""
    v = np.asarray(v if live is None else np.where(live, v, 1.0))
    try:
        out = np.fromiter(map(fn, v.ravel().tolist()), float, v.size)
    except (OverflowError, ValueError):
        raise _Lane from None
    return out.reshape(v.shape)


def _const(v, build):
    """``v`` as a constant of ``build``.  Array constants are numpy floats:
    arithmetic on a dead lane must not raise as Python float division would."""
    return v if build == "value" else \
        Jet2(np.float64(v) if build == "array" else v)


def _compile(node, build: str):
    """Closure of ``node`` in ``build``: "value", "jet" or "array"."""
    value, array = build == "value", build == "array"
    names = frozenset() if value else free_variables(node)
    if names and not names & {"x", "y"}:  # fold: a constant jet
        fv = _compile(node, "value")
        if not array:
            return lambda p: Jet2(fv(p[3]))

        def folded(p):
            try:
                return _const(fv(p[3]), build)
            except (DomainError, ArithmeticError, ValueError):
                _flag(True, p[2])  # the scalar replay raises the error
                return _const(math.nan, build)
        return folded
    if isinstance(node, Num):
        c = _const(node.value, build)
        return lambda at: c
    if isinstance(node, Name):
        name = node.name
        if name == "pi":
            c = _const(math.pi, build)
            return lambda at: c
        if value:
            def lookup(env):
                try:
                    return float(env[name])
                except KeyError:
                    raise DomainError(f"variable '{name}' not bound")
            return lookup
        if name == "x":  # any other name was folded
            return lambda p: Jet2(p[0], 1.0, 0.0)
        return lambda p: Jet2(p[1], 0.0, 1.0)
    if isinstance(node, Neg):
        fa = _compile(node.arg, build)
        return lambda at: -fa(at)
    if isinstance(node, BinOp):
        fa = _compile(node.left, build)
        fb = _compile(node.right, build)
        if node.op == "+":
            return lambda at: fa(at) + fb(at)
        if node.op == "-":
            return lambda at: fa(at) - fb(at)
        if node.op == "*":
            return lambda at: fa(at) * fb(at)
        if value:
            def divide(env):
                a = fa(env)
                b = fb(env)
                if b == 0.0:
                    _domain(node, env, "division by zero")
                return a / b
            return divide

        def divide(at):
            a = fa(at)
            b = fb(at)
            v = b.f
            if array:
                v2, v3 = v * v, np.float_power(v, 3.0)
                # scalar: DomainError, then ZeroDivisionError or OverflowError
                _flag((v == 0.0) | (v2 == 0.0) | (v3 == 0.0)
                      | (np.isinf(v3) & np.isfinite(v)), at[2])
                return a * b.chain(1.0 / v, -1.0 / v2, 2.0 / v3)
            if v == 0.0:
                _domain(node, at, "division by zero")
            return a * b.chain(1.0 / v, -1.0 / (v * v), 2.0 / (v ** 3))
        return divide
    if isinstance(node, Pow):
        return _compile_pow(node, build)
    if isinstance(node, Call):
        return _compile_call(node, build)
    if isinstance(node, Select):
        fl, fr, ft, fo = (_compile(n, build) for n in
                          (node.cond.left, node.cond.right, node.then,
                           node.other))
        op = _COMPARE[node.cond.op]

        def select(at):
            lhs = fl(at)
            rhs = fr(at)
            if not value:
                lhs, rhs = lhs.f, rhs.f
            if array:
                # exact branch boundary: first branch wins
                x, y, live, env = at
                take = np.asarray((lhs == rhs) | op(lhs, rhs))
                then_live, other_live = (m if live is None else live & m
                                         for m in (take, ~take))
                return _where(take, ft((x, y, then_live, env)),
                              fo((x, y, other_live, env)))
            return (ft if lhs == rhs or op(lhs, rhs) else fo)(at)
        return select
    raise TypeError(f"cannot evaluate node {node!r}")


def _compile_pow(node, build):
    fu = _compile(node.base, build)
    n = node.exponent
    if n == 1:
        return fu
    if n == 0:
        one = _const(1.0, build)

        def power(at):
            fu(at)  # the base's domain errors still apply
            return one
        return power
    if build == "value":
        return lambda env: fu(env) ** n
    array = build == "array"

    def power(p):
        u = fu(p)
        v = u.f
        if array:
            # float_power calls libm's pow, as float ** int does; numpy's
            # power has its own kernels
            vn = np.float_power(v, float(n))
            _flag(np.isinf(vn) & np.isfinite(v), p[2])  # float ** overflows
            return u.chain(vn, n * np.float_power(v, n - 1.0),
                           n * (n - 1) * np.float_power(v, n - 2.0))
        g1 = n * v ** (n - 1)
        g2 = n * (n - 1) * v ** (n - 2)
        return u.chain(v ** n, g1, g2)
    return power


def _compile_call(node, build):
    name = node.func
    value, array = build == "value", build == "array"
    if name in ("min", "max"):
        fa, fb = (_compile(a, build) for a in node.args)
        # on a tie the first argument wins (documented branch convention)
        first = operator.le if name == "min" else operator.ge

        def pick(at):
            a = fa(at)
            b = fb(at)
            if value:
                return a if first(a, b) else b
            if array:
                return _where(first(a.f, b.f), a, b)
            return a if first(a.f, b.f) else b
        return pick
    fu = _compile(node.args[0], build)
    if value and name in ("sin", "cos", "exp", "abs"):
        fn = abs if name == "abs" else getattr(math, name)
        return lambda env: fn(fu(env))

    if name in ("sin", "cos"):
        lib = np if array else math
        f, g = (lib.sin, lib.cos) if name == "sin" else (lib.cos, lib.sin)
        negate = name == "cos"  # cos' = -sin

        def trig(p):
            u = fu(p)
            v = u.f
            if array:
                _flag(np.isinf(v), p[2])  # math raises on inf
            s = f(v)
            return u.chain(s, -g(v) if negate else g(v), -s)
        return trig
    if name == "exp":
        def exp(p):
            u = fu(p)
            e = _libm(math.exp, u.f, p[2]) if array else math.exp(u.f)
            return u.chain(e, e, e)
        return exp
    if name == "log":
        def log(at):
            u = fu(at)
            if array:
                v = u.f
                v2 = v * v
                _flag((v <= 0.0) | (v2 == 0.0), at[2])
                return u.chain(_libm(math.log, v, at[2]), 1.0 / v, -1.0 / v2)
            v = u if value else u.f
            if v <= 0.0:
                _domain(node, at, f"log of non-positive value {v!r}")
            if value:
                return math.log(v)
            return u.chain(math.log(v), 1.0 / v, -1.0 / (v * v))
        return log
    if name == "sqrt":
        def sqrt(at):
            u = fu(at)
            if array:
                v = u.f
                s = np.sqrt(v)
                _flag((v <= 0.0) | (s * v == 0.0), at[2])
                return u.chain(s, 0.5 / s, -0.25 / (s * v))
            v = u if value else u.f
            if v < 0.0:
                _domain(node, at, f"sqrt of negative value {v!r}")
            if value:
                return math.sqrt(v)
            if v == 0.0:
                _domain(node, at, "sqrt not differentiable at 0")
            s = math.sqrt(v)
            return u.chain(s, 0.5 / s, -0.25 / (s * v))
        return sqrt
    if name == "abs":
        def absolute(p):
            u = fu(p)
            v = u.f
            # sign taken as +1 at 0 (first-branch convention, as for select)
            if array:
                return u.chain(np.abs(v), np.where(v < 0.0, -1.0, 1.0), 0.0)
            return u.chain(abs(v), -1.0 if v < 0.0 else 1.0, 0.0)
        return absolute
    raise DomainError(f"unknown function '{name}'")


# --- scalar fields ---------------------------------------------------------

class ExprField:
    """Expression-backed scalar field exposing second-order jets."""

    def __init__(self, expr, text: str | None = None):
        if isinstance(expr, str):
            text = expr
            expr = parse_expr(expr)
        self.expr = expr
        self.text = text if text is not None else to_text(expr)
        extra = free_variables(expr) - {"x", "y"}
        if extra:
            raise DomainError(
                f"scalar field may only use x and y, found {sorted(extra)}")

    def jet2(self, x, y) -> Jet2:
        """Jet at floats or broadcastable arrays (see eval_jet2)."""
        return eval_jet2(self.expr, x, y)

    def __repr__(self):
        return f"ExprField({self.text!r})"
