import math
import re
import warnings

import numpy as np
import pytest

from torsionlab import expr
from torsionlab.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from torsionlab.expr import (
    BinOp, Jet2, Name, Num, Pow, eval_jet2, eval_value, free_variables,
    parse_expr, to_text,
)


def jet_fd(e, x, y, h=1e-5):
    """Central finite differences: the independent derivative oracle."""
    f = lambda a, b: eval_jet2(e, a, b).f
    gx = (f(x + h, y) - f(x - h, y)) / (2 * h)
    gy = (f(x, y + h) - f(x, y - h)) / (2 * h)
    hxx = (f(x + h, y) - 2 * f(x, y) + f(x - h, y)) / h**2
    hyy = (f(x, y + h) - 2 * f(x, y) + f(x, y - h)) / h**2
    hxy = (f(x + h, y + h) - f(x + h, y - h)
           - f(x - h, y + h) + f(x - h, y - h)) / (4 * h**2)
    return gx, gy, hxx, hxy, hyy


def test_parse_sum_of_squares_tree():
    tree = parse_expr("x^2+y^2")
    assert tree == BinOp("+", Pow(Name("x"), 2), Pow(Name("y"), 2))


def test_parse_annulus_lift_first_coordinate():
    tree = parse_expr("x-(1/y)")
    assert tree == BinOp("-", Name("x"), BinOp("/", Num(1.0), Name("y")))


def test_parse_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("sin(2*")
    assert err.value.offset == 6


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse_expr("x+z")
    with pytest.raises(UnknownIdentifier):
        parse_expr("foo(x)")


def test_variables_parameter_allows_t():
    tree = parse_expr("x+t*y", variables=("t", "x", "y"))
    assert free_variables(tree) == frozenset({"t", "x", "y"})
    assert eval_value(tree, {"t": 0.5, "x": 1.0, "y": 4.0}) == 3.0
    with pytest.raises(UnknownIdentifier):
        parse_expr("x+t*y")  # default variable set stays {x, y}


def test_comparison_only_inside_select():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x<y")
    tree = parse_expr("select(x<0, -x, x)")
    assert eval_jet2(tree, -2.0, 0.0).f == 2.0


@pytest.mark.parametrize("text", [
    "x^2+y^2", "x-(1/y)", "y*sin(pi/y)^2", "select(x<0,-x,x)+min(x,y)",
    "-x^3*y/(2+cos(x))", "max(abs(x),exp(-y^2))", "1.5e-3*x+sqrt(y)",
])
def test_round_trip_is_structural_identity(text):
    tree = parse_expr(text)
    assert parse_expr(to_text(tree)) == tree


def test_jet_polynomial_exact():
    j = eval_jet2(parse_expr("x^2+y^2"), 1.0, 2.0)
    assert j.f == 5.0
    assert (j.fx, j.fy) == (2.0, 4.0)
    assert (j.fxx, j.fxy, j.fyy) == (2.0, 0.0, 2.0)


def test_jet_bilinear_cross_term():
    j = eval_jet2(parse_expr("x*y"), 3.0, 5.0)
    assert j.fxy == 1.0
    assert (j.fxx, j.fyy) == (0.0, 0.0)


def test_jet_oscillatory_against_finite_differences():
    e = parse_expr("y*sin(pi/y)^2")
    j = eval_jet2(e, 0.3, 0.5)
    assert j.f == pytest.approx(0.5 * math.sin(2 * math.pi) ** 2, abs=1e-15)
    gx, gy, _, _, _ = jet_fd(e, 0.3, 0.5)
    assert j.fx == pytest.approx(gx, abs=1e-6)
    assert j.fy == pytest.approx(gy, abs=1e-6)


def _random_polynomial(rng):
    """Random degree <= 4 polynomial tree in x and y."""
    terms = []
    for _ in range(rng.integers(1, 6)):
        i = int(rng.integers(0, 5))
        j = int(rng.integers(0, 5 - i))
        c = Num(float(rng.uniform(-2, 2)))
        term = c
        if i:
            term = BinOp("*", term, Pow(Name("x"), i))
        if j:
            term = BinOp("*", term, Pow(Name("y"), j))
        terms.append(term)
    tree = terms[0]
    for t in terms[1:]:
        tree = BinOp("+", tree, t)
    return tree


def test_random_polynomials_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        e = _random_polynomial(rng)
        x, y = rng.uniform(-1.5, 1.5, size=2)
        j = eval_jet2(e, x, y)
        for got, want in zip((j.fx, j.fy, j.fxx, j.fxy, j.fyy),
                             jet_fd(e, x, y)):
            assert got == pytest.approx(want, rel=1e-4, abs=1e-4)


def test_eval_is_bitwise_deterministic():
    e = parse_expr("exp(x)*sin(y)/(1+x^2)+sqrt(2+y)")
    a = eval_jet2(e, 0.37, -1.12)
    b = eval_jet2(e, 0.37, -1.12)
    assert (a.f, a.fx, a.fy, a.fxx, a.fxy, a.fyy) == \
           (b.f, b.fx, b.fy, b.fxx, b.fxy, b.fyy)


def test_domain_errors_name_subexpression():
    with pytest.raises(DomainError, match=r"log"):
        eval_jet2(parse_expr("log(x)"), -1.0, 0.0)
    with pytest.raises(DomainError, match=r"1/y"):
        eval_jet2(parse_expr("x-(1/y)"), 1.0, 0.0)
    with pytest.raises(DomainError):
        eval_jet2(parse_expr("sqrt(x)"), -4.0, 0.0)


def test_branch_conventions():
    # min tie picks the first argument's jet
    j = eval_jet2(parse_expr("min(x,y)"), 1.0, 1.0)
    assert (j.fx, j.fy) == (1.0, 0.0)
    j = eval_jet2(parse_expr("max(x,y)"), 1.0, 1.0)
    assert (j.fx, j.fy) == (1.0, 0.0)
    # select on the exact boundary uses the first branch
    j = eval_jet2(parse_expr("select(x<0,-x,x)"), 0.0, 0.0)
    assert j.fx == -1.0
    # abs uses slope +1 at 0
    assert eval_jet2(parse_expr("abs(x)"), 0.0, 0.0).fx == 1.0


def test_pi_constant():
    assert eval_jet2(parse_expr("sin(pi*x)"), 1.0, 0.0).f == pytest.approx(0, abs=1e-15)


def test_power_requires_integer_literal():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^2.5")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^y")


def test_expr_field_rejects_extra_variables():
    with pytest.raises(DomainError):
        expr.ExprField(parse_expr("x+t", variables=("t", "x")))
    f = expr.ExprField("x^2+y^2")
    assert f.jet2(1.0, 2.0).f == 5.0


# --- array jets against scalar jets -----------------------------------------

FIELDS = ("f", "fx", "fy", "fxx", "fxy", "fyy")

# every node kind: literals, names, pi, unary minus, + - * /, powers 0 to 5,
# each function, select with each comparison, and nesting
ARRAY_CORPUS = [
    "3", "pi", "x", "-y", "x+y", "x-y", "x*y", "x/(y^2+1)", "x^0+y^1",
    "x^2*y^3-x^5", "0.3*(x-0.1)^2-0.2*(y+0.3)^2+0.1*(x-0.1)*(y+0.3)",
    "0.2*sin(1.5*(x-0.3))*sin(1.7*(y+0.1))", "cos(x*y)-sin(pi*x)",
    "exp(-x^2)*exp(y)", "log(x^2+y^2+1)", "sqrt(x^2+2+y)", "abs(x)+abs(x-y)",
    "min(x,y)", "max(x,y)*min(-x,y)", "max(abs(x),exp(-y^2))",
    "select(x<0,-x,x)", "select(x<=y,x^2,y)", "select(x>y,sin(x),cos(y))",
    "select(x>=0,x,y)", "select(x==y,1,2)", "select(x!=y,x*y,-1)",
    "select(x<0,select(y<0,x*y,x-y),x+y)", "-x^3*y/(2+cos(x))",
    # branches whose other side leaves the domain on part of the grid (on
    # an exact tie the first branch is taken, so it must stay in the domain)
    "select(x>0.1,log(x),0)", "select(y<0.1,0,sqrt(y))+select(x>-0.1,y,1/x)",
]

# x-outer grid with exact ties (x == y on the diagonal), signed zeros and NaN
GRID_X = np.array([-2.0, -1.5, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, math.nan])
GRID_Y = np.array([-1.5, -0.5, 0.0, -0.0, 0.5, 1.0, 2.0, math.nan])


def assert_same_bits(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def scalar_grid(e, xs, ys, env=None):
    """Jet fields from the scalar path, point by point in x-outer order;
    the error of the first failing point, if any."""
    out = {k: np.empty((len(xs), len(ys))) for k in FIELDS}
    for i, x in enumerate(xs.tolist()):
        for j, y in enumerate(ys.tolist()):
            try:
                jet = eval_jet2(e, x, y, env)
            except Exception as exc:  # the error itself is what is compared
                return None, exc
            for k in FIELDS:
                out[k][i, j] = getattr(jet, k)
    return out, None


# subtrees in t alone are folded into constant jets read from env; sqrt(t)
# at t = 0 has a value but no jet, so it only evaluates when folded
ENV_CASES = {
    "t-fold": ("cos(2*pi*t)*x-sin(2*pi*t)*y+select(x<t,log(t)*x^2,sqrt(t)*y)",
               {"t": 0.3}),
    "t-fold-sqrt0": ("x*sqrt(t)+max(t,y)+select(t>0.5,log(t),x)", {"t": 0.0}),
}


@pytest.mark.parametrize(
    "text, env", [(text, None) for text in ARRAY_CORPUS]
    + list(ENV_CASES.values()), ids=ARRAY_CORPUS + list(ENV_CASES))
def test_array_jets_equal_scalar_jets(text, env):
    e = parse_expr(text, variables=("t", "x", "y"))
    want, err = scalar_grid(e, GRID_X, GRID_Y, env)
    assert err is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # dead lanes must not warn
        jet = eval_jet2(e, GRID_X[:, None], GRID_Y[None, :], env)
    for k in FIELDS:
        assert_same_bits(np.broadcast_to(getattr(jet, k), want[k].shape),
                         want[k])


def walk_jet(node, x, y):
    """Tree walk with the scalar jet operations the compiled jet build
    performs on trees in x and y, in the same order."""
    if isinstance(node, Num):
        return Jet2(node.value)
    if isinstance(node, Name):
        return {"pi": Jet2(math.pi), "x": Jet2(x, 1.0, 0.0),
                "y": Jet2(y, 0.0, 1.0)}[node.name]
    if isinstance(node, expr.Neg):
        return -walk_jet(node.arg, x, y)

    def domain(reason):
        raise DomainError(f"{reason} in '{to_text(node)}' at {(x, y)}")

    if isinstance(node, BinOp):
        a = walk_jet(node.left, x, y)
        b = walk_jet(node.right, x, y)
        if node.op in "+-*":
            return {"+": a.__add__, "-": a.__sub__, "*": a.__mul__}[node.op](b)
        v = b.f
        if v == 0.0:
            domain("division by zero")
        return a * b.chain(1.0 / v, -1.0 / (v * v), 2.0 / (v ** 3))
    if isinstance(node, Pow):
        u = walk_jet(node.base, x, y)
        n = node.exponent
        if n < 2:
            return u if n == 1 else Jet2(1.0)
        v = u.f
        g1 = n * v ** (n - 1)
        g2 = n * (n - 1) * v ** (n - 2)
        return u.chain(v ** n, g1, g2)
    if isinstance(node, expr.Select):
        lhs = walk_jet(node.cond.left, x, y).f
        rhs = walk_jet(node.cond.right, x, y).f
        take = lhs == rhs or {
            "<": lhs < rhs, "<=": lhs <= rhs, ">": lhs > rhs,
            ">=": lhs >= rhs, "==": lhs == rhs, "!=": lhs != rhs}[node.cond.op]
        return walk_jet(node.then if take else node.other, x, y)
    args = [walk_jet(a, x, y) for a in node.args]
    if node.func in ("min", "max"):
        a, b = args
        first = a.f <= b.f if node.func == "min" else a.f >= b.f
        return a if first else b
    u, = args
    v = u.f
    if node.func == "sin":
        s = math.sin(v)
        return u.chain(s, math.cos(v), -s)
    if node.func == "cos":
        s = math.cos(v)
        return u.chain(s, -math.sin(v), -s)
    if node.func == "exp":
        e = math.exp(v)
        return u.chain(e, e, e)
    if node.func == "log":
        if v <= 0.0:
            domain(f"log of non-positive value {v!r}")
        return u.chain(math.log(v), 1.0 / v, -1.0 / (v * v))
    if node.func == "sqrt":
        if v < 0.0:
            domain(f"sqrt of negative value {v!r}")
        if v == 0.0:
            domain("sqrt not differentiable at 0")
        s = math.sqrt(v)
        return u.chain(s, 0.5 / s, -0.25 / (s * v))
    return u.chain(abs(v), -1.0 if v < 0.0 else 1.0, 0.0)


ERROR_CORPUS = [
    "x-(1/y)", "log(x)", "sqrt(y)", "x^2+sqrt(x+y)",
    # a later node fails at an earlier point than the first node does
    "1/(x-0.5)+log(y+0.5)", "select(x>1,log(y),0)+select(y>1,1/x,0)",
    "exp(400*x)", "sin(x*1e308*10)", "(x*1e120)^3", "1/(y*1e120)",
    "1/(y*1e-120+2e-120)", "log(y*1e-200+2e-200)", "sqrt(y*1e-300+2e-300)",
]


@pytest.mark.parametrize("text", ARRAY_CORPUS + ERROR_CORPUS)
def test_scalar_jets_equal_tree_walk(text):
    e = parse_expr(text)
    for x in GRID_X.tolist():
        for y in GRID_Y.tolist():
            try:
                want = walk_jet(e, x, y)
            except Exception as exc:  # the error itself is what is compared
                with pytest.raises(type(exc)) as got:
                    eval_jet2(e, x, y)
                assert str(got.value) == str(exc)
                continue
            got = eval_jet2(e, x, y)
            for k in FIELDS:
                assert_same_bits(getattr(got, k), getattr(want, k))


def test_array_jets_on_random_points_and_field():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-2, 2, size=(2, 500))
    field = expr.ExprField("exp(x/3)*sin(2*y)+select(x<y,x^3,log(y^2+1))")
    jet = field.jet2(x, y)
    for i in range(len(x)):
        want = field.jet2(float(x[i]), float(y[i]))
        for k in FIELDS:
            assert_same_bits(getattr(jet, k)[i], getattr(want, k))


@pytest.mark.parametrize("text", ERROR_CORPUS)
def test_array_errors_match_the_first_scalar_error(text):
    e = parse_expr(text)
    _, want = scalar_grid(e, GRID_X, GRID_Y)
    assert want is not None
    with pytest.raises(type(want)) as got:
        eval_jet2(e, GRID_X[:, None], GRID_Y[None, :])
    assert str(got.value) == str(want)


def test_masked_domain_does_not_raise_or_warn():
    e = parse_expr("select(x>0,log(x),0)")
    xs = np.linspace(-1.0, 1.0, 200)  # no exact 0, where log(x) is taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = eval_jet2(e, xs, 0.0)
    assert np.array_equal(jet.f[xs < 0.0], np.zeros(100))
    assert jet.fx[-1] == 1.0


# --- compiled values against the removed tree walk ---------------------------

def walk_value(node, env):
    """The tree-walking evaluator that compiled value closures replaced."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        if node.name == "pi":
            return math.pi
        try:
            return float(env[node.name])
        except KeyError:
            raise DomainError(f"variable '{node.name}' not bound")
    if isinstance(node, expr.Neg):
        return -walk_value(node.arg, env)
    if isinstance(node, BinOp):
        a = walk_value(node.left, env)
        b = walk_value(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise DomainError(
                f"division by zero in '{to_text(node)}' at {dict(env)}")
        return a / b
    if isinstance(node, Pow):
        return walk_value(node.base, env) ** node.exponent
    if isinstance(node, expr.Call):
        args = [walk_value(a, env) for a in node.args]
        if node.func == "min":
            return args[0] if args[0] <= args[1] else args[1]
        if node.func == "max":
            return args[0] if args[0] >= args[1] else args[1]
        v = args[0]
        if node.func == "log" and v <= 0.0:
            raise DomainError(f"log of non-positive value {v!r} in "
                              f"'{to_text(node)}' at {dict(env)}")
        if node.func == "sqrt" and v < 0.0:
            raise DomainError(f"sqrt of negative value {v!r} in "
                              f"'{to_text(node)}' at {dict(env)}")
        return abs(v) if node.func == "abs" else getattr(math, node.func)(v)
    lhs = walk_value(node.cond.left, env)
    rhs = walk_value(node.cond.right, env)
    take = lhs == rhs or {
        "<": lhs < rhs, "<=": lhs <= rhs, ">": lhs > rhs,
        ">=": lhs >= rhs, "==": lhs == rhs, "!=": lhs != rhs}[node.cond.op]
    return walk_value(node.then if take else node.other, env)


# isotopy expressions as the CLI scenarios, indices.expr_isotopy and the
# benchmark's workloads write them
ISOTOPY_CORPUS = [
    "x*cos(2*pi*t)-y*sin(2*pi*t)", "x*sin(2*pi*t)+y*cos(2*pi*t)",
    "x-t/y", "y", "x+t*y", "(1+t)*x", "(1+t)*y",
    "cos(2*pi*3*t)*(x-0.25)-sin(2*pi*3*t)*(y+0.5)+0.25",
    "((exp(0.7*t)+exp(-0.7*t))/2+0.3*(exp(0.7*t)-exp(-0.7*t))/(2*0.7))*x"
    "-0.2*(exp(0.7*t)-exp(-0.7*t))/(2*0.7)*y",
    "(cos(1.3*t)-0.4*sin(1.3*t)/1.3)*y+0.9*sin(1.3*t)/1.3*x",
    "x+t*select(y>0,sqrt(y),-y^2)+min(x,y)-max(t,abs(x))", "log(1+t*x^2)",
]


@pytest.mark.parametrize("text", ISOTOPY_CORPUS)
def test_compiled_values_equal_tree_walk(text):
    e = parse_expr(text, variables=("t", "x", "y"))
    rng = np.random.default_rng(11)
    points = [(0.0, 0.0, 0.0), (1.0, 0.5, 0.0), (0.5, -0.25, 0.25)]
    points += [tuple(p) for p in rng.uniform(-2, 2, size=(200, 3)).tolist()]
    for t, x, y in points:
        env = {"t": t, "x": x, "y": y}
        try:
            want = walk_value(e, env)
        except DomainError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                eval_value(e, env)
            continue
        assert_same_bits(eval_value(e, env), want)


# closed-form (d/dx, d/dy) of the rotation and expm entries above
CLOSED_FORM_ROWS = {
    ISOTOPY_CORPUS[0]: lambda t: (math.cos(2 * math.pi * t),
                                  -math.sin(2 * math.pi * t)),
    ISOTOPY_CORPUS[1]: lambda t: (math.sin(2 * math.pi * t),
                                  math.cos(2 * math.pi * t)),
    ISOTOPY_CORPUS[7]: lambda t: (math.cos(6 * math.pi * t),
                                  -math.sin(6 * math.pi * t)),
    ISOTOPY_CORPUS[8]: lambda t: (
        math.cosh(0.7 * t) + 0.3 * math.sinh(0.7 * t) / 0.7,
        -0.2 * math.sinh(0.7 * t) / 0.7),
    ISOTOPY_CORPUS[9]: lambda t: (
        0.9 * math.sin(1.3 * t) / 1.3,
        math.cos(1.3 * t) - 0.4 * math.sin(1.3 * t) / 1.3),
}


@pytest.mark.parametrize("text", list(CLOSED_FORM_ROWS))
def test_isotopy_jets_match_closed_form_jacobians(text):
    e = parse_expr(text, variables=("t", "x", "y"))
    row = CLOSED_FORM_ROWS[text]
    for t in np.linspace(0.0, 1.0, 33).tolist():
        for x, y in ((0.0, 0.0), (0.3, -0.7), (1e4, 1e4)):
            jet = eval_jet2(e, x, y, {"t": t})
            want = row(t)
            assert abs(jet.fx - want[0]) <= 1e-12
            assert abs(jet.fy - want[1]) <= 1e-12
            assert jet.fxx == jet.fxy == jet.fyy == 0.0
            assert jet.f == eval_value(e, {"t": t, "x": x, "y": y})
