import math
import re
import warnings

import numpy as np
import pytest

from torsionlab import expr
from torsionlab.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from torsionlab.expr import (
    BinOp, Name, Num, Pow, eval_jet2, eval_value, free_variables, parse_expr,
    to_text,
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


def scalar_grid(e, xs, ys):
    """Jet fields from the scalar path, point by point in x-outer order;
    the error of the first failing point, if any."""
    out = {k: np.empty((len(xs), len(ys))) for k in FIELDS}
    for i, x in enumerate(xs.tolist()):
        for j, y in enumerate(ys.tolist()):
            try:
                jet = eval_jet2(e, x, y)
            except Exception as exc:  # the error itself is what is compared
                return None, exc
            for k in FIELDS:
                out[k][i, j] = getattr(jet, k)
    return out, None


@pytest.mark.parametrize("text", ARRAY_CORPUS)
def test_array_jets_equal_scalar_jets(text):
    e = parse_expr(text)
    want, err = scalar_grid(e, GRID_X, GRID_Y)
    assert err is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # dead lanes must not warn
        jet = eval_jet2(e, GRID_X[:, None], GRID_Y[None, :])
    for k in FIELDS:
        assert_same_bits(np.broadcast_to(getattr(jet, k), want[k].shape),
                         want[k])


def test_array_jets_on_random_points_and_field():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-2, 2, size=(2, 500))
    field = expr.ExprField("exp(x/3)*sin(2*y)+select(x<y,x^3,log(y^2+1))")
    jet = field.jet2(x, y)
    for i in range(len(x)):
        want = field.jet2(float(x[i]), float(y[i]))
        for k in FIELDS:
            assert_same_bits(getattr(jet, k)[i], getattr(want, k))


@pytest.mark.parametrize("text", [
    "x-(1/y)", "log(x)", "sqrt(y)", "x^2+sqrt(x+y)",
    # a later node fails at an earlier point than the first node does
    "1/(x-0.5)+log(y+0.5)", "select(x>1,log(y),0)+select(y>1,1/x,0)",
    "exp(400*x)", "sin(x*1e308*10)", "(x*1e120)^3", "1/(y*1e120)",
    "1/(y*1e-120+2e-120)", "log(y*1e-200+2e-200)", "sqrt(y*1e-300+2e-300)",
])
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
