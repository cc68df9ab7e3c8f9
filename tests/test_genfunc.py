import math

import numpy as np
import pytest

from torsionlab.errors import DomainError, SolverDiverged, TwistBoundViolation
from torsionlab.expr import ExprField, Jet2
from torsionlab.fixtures import Ex5Field
from torsionlab.genfunc import (
    GRID_BLOCK, GenIsotopy, MORSE_DEGENERATE, MORSE_MIN, MORSE_SADDLE,
    PolynomialField, _morse_type, _newton, _seed_cells, _solve_X, _solver_tol,
    alt_jacobian_path, alt_trajectory, find_critical_points, gf_alt_apply,
    gf_apply, gf_jacobian, jacobian_path, verify_twist_bound,
)
from torsionlab.rotation import AnnulusLiftMap, twist_check_and_search


def make_iso(text, c, **kw):
    return GenIsotopy(ExprField(text), twist_bound_c=c, **kw)


def random_generating_field(rng, degree=3, box=2.0, c_target=None):
    """Random polynomial g scaled so the sampled twist bound is < 0.9."""
    if c_target is None:
        c_target = rng.uniform(0.1, 0.85)
    coeffs = rng.uniform(-1.0, 1.0, size=(degree + 1, degree + 1))
    for i in range(degree + 1):
        for j in range(degree + 1):
            if i + j > degree:
                coeffs[i, j] = 0.0
    raw = PolynomialField(coeffs)
    xs = np.linspace(-box, box, 17)
    worst = max(abs(raw.jet2(x, y).fxy) for x in xs for y in xs)
    scale = c_target / worst if worst > 0 else 1.0
    return PolynomialField(coeffs * scale), c_target


def test_zero_field_is_identity():
    iso = make_iso("0", 0.0)
    for t in (0.0, 0.3, 1.0):
        assert gf_apply(iso, t, (3.0, -2.0)) == (3.0, -2.0)
    assert np.allclose(gf_jacobian(iso, 1.0, (3.0, -2.0)), np.eye(2))


def test_linear_shear_closed_form():
    iso = make_iso("y^2/2", 0.0)
    x, y = 1.7, -0.4
    X, Y = gf_apply(iso, 1.0, (x, y))
    assert (X, Y) == pytest.approx((x + y, y), abs=1e-14)


def test_quadratic_example_point():
    iso = make_iso("x^2+y^2", 0.0)
    assert gf_apply(iso, 1.0, (1.0, 0.0)) == pytest.approx((1.0, -2.0), abs=1e-12)
    assert gf_apply(iso, 0.0, (1.0, 0.0)) == (1.0, 0.0)  # exact identity at t=0


def test_jacobian_closed_form_half_quadratic():
    iso = make_iso("(x^2+y^2)/2", 0.0)
    J = gf_jacobian(iso, 1.0, (0.3, -1.1))
    assert np.allclose(J, [[1.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(25):
        field, _ = random_generating_field(rng)
        iso = GenIsotopy(field, twist_bound_c=0.9)
        t = rng.uniform(0.0, 1.0)
        z = rng.uniform(-1.5, 1.5, size=2)
        J = gf_jacobian(iso, t, z)
        h = 1e-5
        fd = np.empty((2, 2))
        for k in range(2):
            dz = np.zeros(2)
            dz[k] = h
            plus = np.array(gf_apply(iso, t, z + dz))
            minus = np.array(gf_apply(iso, t, z - dz))
            fd[:, k] = (plus - minus) / (2 * h)
        assert np.allclose(J, fd, rtol=1e-5, atol=1e-5)


def test_area_preservation_and_orientation_random_family():
    rng = np.random.default_rng(12)
    for _ in range(50):
        field, _ = random_generating_field(rng)
        iso = GenIsotopy(field, twist_bound_c=0.9)
        for _ in range(5):
            t = rng.uniform(0.0, 1.0)
            z = rng.uniform(-1.5, 1.5, size=2)
            J = gf_jacobian(iso, t, z)
            det = float(np.linalg.det(J))
            assert abs(det - 1.0) <= 1e-9
            assert det > 0.0


def test_alt_apply_endpoints_and_midpoints():
    iso = make_iso("(x^2+y^2)/2", 0.0)
    z = (1.0, 0.0)
    assert gf_alt_apply(iso, 0.0, z) == pytest.approx(z)
    assert gf_alt_apply(iso, 0.5, z) == pytest.approx((1.0, 0.0), abs=1e-12)
    assert gf_alt_apply(iso, 1.0, z) == pytest.approx((1.0, -1.0), abs=1e-12)
    assert gf_alt_apply(iso, 1.0, z) == pytest.approx(gf_apply(iso, 1.0, z))

    shear = make_iso("y^2/2", 0.0)
    assert gf_alt_apply(shear, 0.25, (0.0, 1.0)) == pytest.approx((0.5, 1.0))


def test_contraction_residuals_decrease_monotonically():
    rng = np.random.default_rng(21)
    for _ in range(20):
        field, _ = random_generating_field(rng)
        iso = GenIsotopy(field, twist_bound_c=0.9)
        history = []
        _solve_X(iso, rng.uniform(0.2, 1.0), rng.uniform(-1, 1),
                 rng.uniform(-1, 1), history=history)
        tail = [r for r in history[2:] if r > 0.0]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))


def test_solver_diverges_when_bound_is_wrong():
    # d12 g = 2 > 1: the implicit equation is not a contraction
    iso = GenIsotopy(ExprField("2*x*y"), twist_bound_c=0.5,
                     solver_max_iter=50)
    with pytest.raises(SolverDiverged):
        gf_apply(iso, 1.0, (0.5, 0.7))


def test_solver_raises_on_a_non_finite_residual():
    iso = make_iso("1e200*y*1e200", 0.5)  # d2g overflows to inf
    with pytest.raises(SolverDiverged) as err:
        gf_apply(iso, 1.0, (1.0, 0.0))
    assert err.value.iterations == 0 and err.value.last_residual == math.inf


def test_solver_stops_where_the_iterate_stops_moving():
    # d2g jumps from 1 to -1 just above x = 0.1, so F changes sign there
    # without a root: the bracket closes on 0.1 long before solver_max_iter
    iso = make_iso("y*select(x < 0.1, 1, -1)", 0.5)
    with pytest.raises(SolverDiverged) as err:
        gf_apply(iso, 0.5, (0.1, 0.0))
    assert err.value.iterations < iso.solver_max_iter
    assert err.value.last_residual == pytest.approx(0.5)


@pytest.mark.parametrize("c", [0.5, -2.0])
@pytest.mark.parametrize("t", [0.0, 0.25, 0.3, 0.5, 1.0])
def test_negative_twist_solves_for_every_t(t, c):
    # d12 g = -3 meets the one-sided bound, but |t d12 g| >= 1 from t = 1/3
    # on, where the contraction X <- x + t d2g(X, y) cannot converge; with
    # c = -2 a bracket of half-width |F|/(1 - c) would miss the root for
    # t < 2/3, one of |F|/(1 - t c) holds it
    iso = make_iso("-3*x*y", c)
    assert verify_twist_bound(iso, (-1, 1, -1, 1)) == -3.0
    X, Y = gf_apply(iso, t, (0.3, 0.2))
    assert abs(X - 0.3 / (1.0 + 3.0 * t)) <= 4 * math.ulp(X)
    assert Y == pytest.approx(0.2 + 0.6 * t, abs=1e-15)


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("x", [30.0, -12.0, 0.3])
def test_bracket_keeps_newton_from_cycling(t, x):
    # d12 g = -50/(1+x^2)^1.5 <= 0; unguarded Newton from x = 30 at t = 1
    # cycles between -19.99 and 79.32
    iso = make_iso("-50*y*x/sqrt(1+x^2)", 0.5)
    assert verify_twist_bound(iso, (-40, 40, -1, 1)) < 0.0
    X, jet = _solve_X(iso, t, x, 1.0)
    assert abs(X - x - t * jet.fy) <= _solver_tol(iso, X, x)


def reference_contraction_solve(iso, t, x, y):
    """The contraction X <- x + t d2g(X, y) that _solve_X replaces."""
    X = x
    jet = iso.field.jet2(X, y)
    residual = abs(X - x - t * jet.fy)
    if residual <= _solver_tol(iso, X, x):
        return X, jet
    for k in range(1, iso.solver_max_iter + 1):
        X = x + t * jet.fy
        jet = iso.field.jet2(X, y)
        residual = abs(X - x - t * jet.fy)
        if not math.isfinite(residual):
            raise SolverDiverged(k, residual)
        if residual <= _solver_tol(iso, X, x):
            return X, jet
    raise SolverDiverged(iso.solver_max_iter, residual)


def jet_hex(jet):
    return [float(v).hex() for v in
            (jet.f, jet.fx, jet.fy, jet.fxx, jet.fxy, jet.fyy)]


@pytest.mark.parametrize("text, c", [("x^2+y^2", 0.1), ("y^2/2", 0.0),
                                     ("0", 0.0)])
def test_solve_equals_contraction_where_d12g_vanishes(text, c):
    # F' = 1 exactly, so the first Newton step x - (0 - t d2g)/1.0 is the
    # contraction step x + t d2g; y^2/2 with c = 0 lands on the bracket edge
    iso = make_iso(text, c)
    rng = np.random.default_rng(17)
    points = [(1.0, 1.0, 0.0), (1.0, 1.7, -0.4), (0.5, 1e4, -3e3)]
    points += [(rng.uniform(0.0, 1.0), *rng.uniform(-5.0, 5.0, size=2))
               for _ in range(200)]
    for t, x, y in points:
        got, got_jet = _solve_X(iso, t, x, y)
        want, want_jet = reference_contraction_solve(iso, t, x, y)
        assert got.hex() == want.hex()
        assert jet_hex(got_jet) == jet_hex(want_jet)


def test_solve_agrees_with_contraction_on_random_fields():
    # both roots have residual <= tol and F' >= 1 - t c between them
    rng = np.random.default_rng(22)
    compared = 0
    for _ in range(40):
        field, _ = random_generating_field(rng)
        iso = GenIsotopy(field, twist_bound_c=0.9)
        for _ in range(10):
            t = rng.uniform(0.05, 1.0)
            x, y = rng.uniform(-1.0, 1.0, size=2)
            try:
                want, _ = reference_contraction_solve(iso, t, x, y)
            except SolverDiverged:
                continue
            got, _ = _solve_X(iso, t, x, y)
            tol = max(_solver_tol(iso, got, x), _solver_tol(iso, want, x))
            assert abs(got - want) <= 2.0 * tol / (1.0 - t * 0.9)
            compared += 1
    assert compared >= 300


class CountingField:
    """A scalar field that counts its jet2 calls."""

    def __init__(self, field):
        self.field, self.calls = field, 0

    def jet2(self, x, y):
        self.calls += 1
        return self.field.jet2(x, y)


@pytest.mark.parametrize("n_samples", [64, 257])
def test_alt_trajectory_solves_f1_once(n_samples):
    rng = np.random.default_rng(8)
    cases = [("x^2+y^2", 0.1, (1.0, 0.0)), ("-3*x*y", 0.5, (0.3, 0.2))]
    for text, region, _ in lattice_fields(np.random.default_rng(3)):
        cases.append((text, 0.5, (rng.uniform(*region[:2]),
                                  rng.uniform(*region[2:]))))
    for text, c, z in cases:
        field = CountingField(ExprField(text))
        iso = GenIsotopy(field, twist_bound_c=c)
        gf_apply(iso, 1.0, z)
        per_solve, field.calls = field.calls, 0
        path = alt_trajectory(iso, z, n_samples)
        assert field.calls == per_solve
        field.calls = 0
        want = [gf_alt_apply(iso, t, z) for t in path.params]
        assert field.calls == len(path.params) * per_solve
        assert len(path.params) == max(n_samples, 65)
        assert ([[v.hex() for v in p] for p in path.points.tolist()]
                == [[float(v).hex() for v in p] for p in want])


def test_twist_bound_verification():
    iso = make_iso("x^2+y^2", 0.1)  # d12 g = 0 everywhere
    assert verify_twist_bound(iso, (-2, 2, -2, 2)) == 0.0
    bad = GenIsotopy(ExprField("2*x*y"), twist_bound_c=0.5)
    with pytest.raises(TwistBoundViolation):
        verify_twist_bound(bad, (-1, 1, -1, 1))
    with pytest.raises(TwistBoundViolation):
        GenIsotopy(ExprField("0"), twist_bound_c=1.0)


def test_critical_points_quadratics():
    iso = make_iso("x^2+y^2", 0.0)
    pts = find_critical_points(iso, (-1, 1, -1, 1), 16)
    assert len(pts) == 1
    assert pts[0].location == pytest.approx((0.0, 0.0), abs=1e-9)
    assert pts[0].morse_type == MORSE_MIN
    assert pts[0].gradient_residual <= 1e-9

    saddle = make_iso("x^2-y^2", 0.0)
    pts = find_critical_points(saddle, (-1, 1, -1, 1), 16)
    assert len(pts) == 1
    assert pts[0].morse_type == MORSE_SADDLE


def test_critical_points_degenerate_detection():
    iso = make_iso("x^2+y^4", 0.0)  # hess at 0 is diag(2, 0)
    pts = find_critical_points(iso, (-1, 1, -1, 1), 16)
    assert len(pts) == 1
    assert pts[0].morse_type == MORSE_DEGENERATE


def test_fixed_points_agree_with_critical_points():
    rng = np.random.default_rng(9)
    for _ in range(5):
        field, _ = random_generating_field(rng, degree=3)
        iso = GenIsotopy(field, twist_bound_c=0.9)
        for p in find_critical_points(iso, (-1.5, 1.5, -1.5, 1.5), 24):
            img = gf_apply(iso, 1.0, p.location)
            assert img == pytest.approx(p.location, abs=1e-7)


def test_jacobian_path_matches_gf_jacobian_at_fixed_point():
    iso = make_iso("x^2-y^2", 0.0)
    dpath = jacobian_path(iso, (0.0, 0.0))
    for t in (0.0, 0.3, 0.7, 1.0):
        assert np.allclose(dpath(t), gf_jacobian(iso, t, (0.0, 0.0)) if t > 0
                           else np.eye(2), atol=1e-12)
    # time-one derivative of the generated map
    assert np.allclose(dpath(1.0), [[1.0, -2.0], [-2.0, 5.0]])


def test_alt_jacobian_path_endpoints():
    iso = make_iso("(x^2+y^2)/2", 0.0)
    d = alt_jacobian_path(iso, (0.0, 0.0))
    assert np.allclose(d(0.0), np.eye(2))
    assert np.allclose(d(1.0), jacobian_path(iso, (0.0, 0.0))(1.0), atol=1e-12)
    # continuity at the phase switch
    assert np.allclose(d(0.5 - 1e-12), d(0.5 + 1e-12), atol=1e-9)


def test_trajectories_are_polylines():
    iso = make_iso("(x^2+y^2)/2", 0.0)
    path = alt_trajectory(iso, (1.0, 0.0), 65)
    assert path.points.shape[1] == 2
    assert path.params[0] == 0.0 and path.params[-1] == 1.0
    assert 0.5 in path.params


# --- batched grid consumers against the point-by-point scans ----------------

def scalar_twist_max(iso, region, grid=64):
    """The point-by-point loop that verify_twist_bound batches."""
    xmin, xmax, ymin, ymax = map(float, region)
    worst = -math.inf
    for i in range(grid):
        x = xmin + (xmax - xmin) * i / (grid - 1)
        for j in range(grid):
            y = ymin + (ymax - ymin) * j / (grid - 1)
            worst = max(worst, iso.field.jet2(x, y).fxy)
    return worst


class HoleyField:
    """d12 g = x y / 4, NaN where x > 1/2: the maximum skips NaN samples."""

    def jet2(self, x, y):
        fxy = np.where(np.greater(x, 0.5), np.nan, np.multiply(x, y) / 4)
        return Jet2(0.0, fxy=fxy if fxy.ndim else float(fxy))


@pytest.mark.parametrize("field", [
    ExprField("0.3*x^2-0.2*y^2+0.1*x*y"),
    ExprField("0.15*sin(1.5*(x-0.3))*sin(1.7*(y+0.1))"),
    ExprField("0.05*exp(x/2)*log(y^2+1)+0.02*x^3*y^2"),
    ExprField("select(x<y,0.2*x*y,0.1*x^2*y)+0.3*y^2"),
    ExprField("x^2+y^2"),  # d12 g is the constant 0
    PolynomialField([[0.0, 0.2, -0.1], [0.1, 0.05, 0.0], [0.3, 0.0, 0.0]]),
    Ex5Field(),
    HoleyField(),
])
def test_verify_twist_bound_matches_scalar_loop(field):
    iso = GenIsotopy(field, twist_bound_c=0.9)
    for region in ((-1, 1, -1, 1), (-0.6, 0.6, 0.05, 0.95), (0, 1, 0, 1)):
        assert_same_float(verify_twist_bound(iso, region),
                          scalar_twist_max(iso, region))
    assert_same_float(verify_twist_bound(iso, (-2, 2, -1, 1), grid=101),
                      scalar_twist_max(iso, (-2, 2, -1, 1), grid=101))


def assert_same_float(got, want):
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_verify_twist_bound_reports_first_scalar_error():
    # x = 0.25 and y = 0 are grid points; x-outer order meets (0.25, 0) first
    iso = GenIsotopy(ExprField("x*y+select(y>0.1,0,1/(x-0.25))"),
                     twist_bound_c=0.5)
    with pytest.raises(DomainError) as batched:
        verify_twist_bound(iso, (0, 1, 0, 1), grid=5)
    with pytest.raises(DomainError) as scalar:
        scalar_twist_max(iso, (0, 1, 0, 1), grid=5)
    assert str(batched.value) == str(scalar.value)
    assert "at (0.25, 0.0)" in str(batched.value)


def scalar_seed_cells(gx, gy):
    """The per-cell rule that _seed_cells vectorises."""
    n, m = gx.shape[0] - 1, gx.shape[1] - 1
    out = np.zeros((n, m), dtype=bool)
    for i in range(n):
        for j in range(m):
            for a in (gx, gy):
                corners = np.array([a[i, j], a[i + 1, j],
                                    a[i, j + 1], a[i + 1, j + 1]])
                if corners.min() <= 0.0 <= corners.max():
                    out[i, j] = True
    return out


def scalar_twist_seed_cells(d1, d2):
    """The per-cell straddle rule of the annulus fixed-point search."""

    def straddles(c):
        return (c.min() <= 1e-9) and (c.max() >= -1e-9)

    n, m = d1.shape[0] - 1, d1.shape[1] - 1
    out = np.zeros((n, m), dtype=bool)
    for i in range(n):
        for j in range(m):
            c1 = np.array([d1[i, j], d1[i + 1, j], d1[i, j + 1], d1[i + 1, j + 1]])
            c2 = np.array([d2[i, j], d2[i + 1, j], d2[i, j + 1], d2[i + 1, j + 1]])
            out[i, j] = straddles(c1) and straddles(c2)
    return out


def test_seed_mask_matches_per_cell_rule():
    rng = np.random.default_rng(4)
    values = np.array([-1.0, -1e-300, -0.0, 0.0, 2.5, math.nan, math.inf])
    for _ in range(30):
        gx, gy = rng.choice(values, size=(2, 9, 7))
        assert np.array_equal(_seed_cells(gx) | _seed_cells(gy),
                              scalar_seed_cells(gx, gy))
    gx, gy = rng.uniform(-1, 1, size=(2, 33, 33))
    assert np.array_equal(_seed_cells(gx) | _seed_cells(gy),
                          scalar_seed_cells(gx, gy))
    # the twist rule: both components within 1e-9 of a sign change
    near = np.array([-1.0, -2e-9, -1e-9, -0.0, 1e-9, 1.5e-9, 3.0, math.nan,
                     -math.inf])
    for _ in range(60):
        d1, d2 = rng.choice(near, size=(2, 8, 9))
        assert np.array_equal(_seed_cells(d1, 1e-9) & _seed_cells(d2, 1e-9),
                              scalar_twist_seed_cells(d1, d2))
    d1, d2 = rng.uniform(-1, 1, size=(2, 25, 25)) * 1e-8
    assert np.array_equal(_seed_cells(d1, 1e-9) & _seed_cells(d2, 1e-9),
                          scalar_twist_seed_cells(d1, d2))


def test_polynomial_field_jets_on_arrays():
    field = PolynomialField([[0.5, -0.2, 0.1, 0.03], [0.3, 0.7, -0.4, 0.0],
                             [-0.6, 0.2, 0.0, 0.0], [0.11, 0.0, 0.0, 0.0]])
    xs = np.linspace(-1.5, 1.5, 13)
    ys = np.linspace(-1.0, 2.0, 11)
    jet = field.jet2(xs[:, None], ys[None, :])
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            want = field.jet2(x, y)
            for k in ("f", "fx", "fy", "fxx", "fxy", "fyy"):
                assert getattr(jet, k)[i, j] == getattr(want, k)


def test_ex5_field_array_jets_equal_scalar_jets():
    field = Ex5Field()
    # the critical-point grid of the ex5 fixture, widened past y = 0 and 1
    xs = np.linspace(-0.6, 0.6, 401)
    ys = np.concatenate([np.linspace(-0.05, 1.05, 399), [0.0, 1.0]])
    jet = field.jet2(xs[:, None], ys[None, :])
    rng = np.random.default_rng(6)
    picks = [(i, j) for i in (0, 200, 400) for j in range(len(ys))]
    picks += list(zip(rng.integers(0, 401, 400), rng.integers(0, 401, 400)))
    for i, j in picks:
        want = field.jet2(float(xs[i]), float(ys[j]))
        for k in ("f", "fx", "fy", "fxx", "fxy", "fyy"):
            got = getattr(jet, k)[i, j]
            assert got == getattr(want, k)
            assert math.copysign(1.0, got) == math.copysign(1.0,
                                                            getattr(want, k))


def test_solver_tolerance_floor_far_from_origin():
    # the saddle's orbit reaches |X| ~ 1e4 by step 23, where a residual of
    # 1e-12 is below the float spacing of X; the 60-step orbit must finish
    g = ExprField("0.3*x^2-0.2*y^2+0.1*x*y")
    iso = GenIsotopy(g, twist_bound_c=0.5)
    z = (0.3, 0.2)
    for _ in range(60):
        X, Y = gf_apply(iso, 1.0, z)
        jet = g.jet2(X, z[1])
        assert abs(X - z[0] - jet.fy) <= _solver_tol(iso, X, z[0])
        assert Y == z[1] - jet.fx
        z = (X, Y)
    assert abs(z[0]) > 1e12
    # below |X| ~ 1000 the floor stays at solver_tol
    assert _solver_tol(iso, 999.0, -999.0) == iso.solver_tol


def reference_polynomial_jet(field, x, y):
    """The coefficient double loop that PolynomialField.jet2 replaces."""
    c = field.coeffs
    nx, ny = c.shape
    px = [1.0] * nx
    for i in range(1, nx):
        px[i] = px[i - 1] * x
    py = [1.0] * ny
    for j in range(1, ny):
        py[j] = py[j - 1] * y
    f = fx = fy = fxx = fxy = fyy = 0.0
    for i in range(nx):
        for j in range(ny):
            a = c[i, j]
            if a == 0.0:
                continue
            f = f + a * px[i] * py[j]
            if i >= 1:
                fx = fx + a * i * px[i - 1] * py[j]
            if j >= 1:
                fy = fy + a * j * px[i] * py[j - 1]
            if i >= 2:
                fxx = fxx + a * i * (i - 1) * px[i - 2] * py[j]
            if i >= 1 and j >= 1:
                fxy = fxy + a * i * j * px[i - 1] * py[j - 1]
            if j >= 2:
                fyy = fyy + a * j * (j - 1) * px[i] * py[j - 2]
    return Jet2(f, fx, fy, fxx, fxy, fyy)


def jet_hex(jet):
    return [float(v).hex() for v in
            (jet.f, jet.fx, jet.fy, jet.fxx, jet.fxy, jet.fyy)]


def test_polynomial_jets_equal_coefficient_loop():
    rng = np.random.default_rng(17)
    for _ in range(50):
        field, _ = random_generating_field(rng, degree=int(rng.integers(1, 6)))
        for x, y in rng.uniform(-2.0, 2.0, size=(40, 2)):
            assert jet_hex(field.jet2(float(x), float(y))) == \
                jet_hex(reference_polynomial_jet(field, float(x), float(y)))


# --- lane-batched Newton against the seed-by-seed reference -----------------

def reference_newton(model, seed, tol, max_iter, max_step, steps=None):
    """The seed-by-seed damped Newton loop that _newton runs as lanes.

    ``steps`` (a list) receives the number of model evaluations made."""
    x, y = seed
    best = None
    stall = 0
    n = 0
    for _ in range(max_iter):
        n += 1
        res, step = model(x, y)
        if not math.isfinite(res):
            best = None
            break
        if best is None or res < best[2]:
            best = (x, y, res)
            stall = 0
        else:
            stall += 1
        if res == 0.0 or stall >= 3:
            break
        delta = step()
        if not np.all(np.isfinite(delta)):
            best = None
            break
        length = float(np.hypot(delta[0], delta[1]))
        if length > max_step:
            delta = delta / (length / max_step)
        x += float(delta[0])
        y += float(delta[1])
    if steps is not None:
        steps.append(n)
    if best is None or best[2] > tol:
        return None
    return best


def reference_critical_points(iso, region, grid_n, residual_tol=1e-9,
                              steps=None):
    """find_critical_points with one reference_newton run per seed."""
    xmin, xmax, ymin, ymax = map(float, region)
    xs = np.linspace(xmin, xmax, grid_n + 1)
    ys = np.linspace(ymin, ymax, grid_n + 1)
    jet = iso.field.jet2(xs[:, None], ys[None, :])
    gx = np.broadcast_to(jet.fx, (grid_n + 1, grid_n + 1))
    gy = np.broadcast_to(jet.fy, (grid_n + 1, grid_n + 1))
    field = iso.field

    def gradient_model(x, y):
        jet = field.jet2(x, y)

        def step():
            H = np.array([[jet.fxx, jet.fxy], [jet.fxy, jet.fyy]])
            rhs = -np.array([jet.fx, jet.fy])
            try:
                return np.linalg.solve(H, rhs)
            except np.linalg.LinAlgError:
                return np.linalg.lstsq(H, rhs, rcond=None)[0]

        return math.hypot(jet.fx, jet.fy), step

    found = []
    for i, j in zip(*np.nonzero(_seed_cells(gx) | _seed_cells(gy))):
        seed = (0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
        pt = reference_newton(gradient_model, seed, residual_tol, 200, 1.0,
                              steps)
        if pt is None:
            continue
        x, y, res = pt
        if not (xmin - 1e-9 <= x <= xmax + 1e-9
                and ymin - 1e-9 <= y <= ymax + 1e-9):
            continue
        if any(math.hypot(x - p[0], y - p[1]) < 1e-6 for p in found):
            continue
        jet = field.jet2(x, y)
        hess = np.array([[jet.fxx, jet.fxy], [jet.fxy, jet.fyy]])
        found.append((x, y, res, hess, _morse_type(hess)))
    found.sort(key=lambda p: (p[1], p[0]))
    return [critical_hex(*p) for p in found]


def critical_hex(x, y, res, hess, kind):
    return ([float(v).hex() for v in (x, y, res, *np.ravel(hess))], kind)


def lattice_fields(rng):
    """The generating functions of the bench's grid_scan rounds: nine sine
    lattices A sin(p (x - x0)) sin(q (y - y0)) and three quadratics, with
    their scan regions and grids."""
    for _ in range(9):
        p, q = (round(rng.uniform(1.3, 1.8), 4) for _ in range(2))
        A = round(rng.uniform(0.35, 0.45) / (p * q), 6)
        x0, y0 = (round(rng.uniform(-0.5, 0.5), 4) for _ in range(2))
        hx, hy = math.pi / p, math.pi / q
        yield (f"{A!r}*sin({p!r}*(x{-x0:+}))*sin({q!r}*(y{-y0:+}))",
               (x0 - 1.25 * hx, x0 + 1.25 * hx, y0 - 1.25 * hy, y0 + 1.25 * hy),
               128)
    for s, t in ((1.0, -1.0), (1.0, 1.0), (-1.0, -1.0)):
        a, b = s * rng.uniform(0.2, 0.4), t * rng.uniform(0.2, 0.4)
        c = rng.choice((-1, 1)) * rng.uniform(0.1, 0.2)
        x0, y0 = rng.uniform(-0.5, 0.5, size=2)
        u, v = f"(x{-x0:+})", f"(y{-y0:+})"
        yield (f"{a!r}*{u}^2{b:+}*{v}^2{c:+}*{u}*{v}",
               (x0 - 1.0, x0 + 1.0, y0 - 1.0, y0 + 1.0), 160)


class StripField:
    """0.1 sin(3x) sin(3y) with a NaN gradient on 0.3 < x < 0.35 and an
    infinite d11 g on -0.35 < x < -0.3: strips between the nodes of a
    16-cell grid on [-1, 1]^2 that hold seeds and Newton iterates."""

    def jet2(self, x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        sx, cx, sy, cy = np.sin(3 * x), np.cos(3 * x), np.sin(3 * y), np.cos(3 * y)
        nan = (0.3 < x) & (x < 0.35)
        inf = (-0.35 < x) & (x < -0.3)
        out = (0.1 * sx * sy, np.where(nan, np.nan, 0.3 * cx * sy),
               np.where(nan, np.nan, 0.3 * sx * cy),
               np.where(inf, np.inf, -0.9 * sx * sy), 0.9 * cx * cy,
               -0.9 * sx * sy)
        if out[0].ndim == 0:
            out = [float(v) for v in out]
        return Jet2(*out)


def critical_corpus():
    """(name, field, region, grid) of the bit-equality corpus."""
    rng = np.random.default_rng(19)
    for k, (text, region, grid) in enumerate(lattice_fields(rng)):
        yield f"lattice {k}", ExprField(text), region, grid
    yield "ex5", Ex5Field(), (-0.6, 0.6, 0.05, 0.95), 400
    for text in ("x^2+y^2", "x^2-y^2", "x^2+y^4",
                 "0.15*sin(1.5*(x-0.3))*sin(1.7*(y+0.1))",
                 "0.05*exp(x/2)*log(y^2+1)+0.02*x^3*y^2-0.1*x*y",
                 "select(x<y,0.2*x*y,0.1*x^2*y)+0.3*y^2-0.2*x^2"):
        for grid in (8, 24, 64):
            yield text, ExprField(text), (-1, 1, -1, 1), grid
    poly, _ = random_generating_field(np.random.default_rng(9), degree=4)
    for grid in (8, 16, 32, 64):
        yield "polynomial", poly, (-1.5, 1.5, -1.5, 1.5), grid
    # non-finite residuals and steps
    for grid in (16, 32):
        yield "strips", StripField(), (-1, 1, -1, 1), grid
    # a zero Hessian row at the seeds with y = 0 (lstsq lanes), and lanes
    # that run all 200 iterations: the cubes halve, the fourth powers
    # shrink by 2/3 a step without stalling
    for text in ("x^3+y^3", "x^4+y^4"):
        yield text, ExprField(text), (-1, 0.125, -0.5625, 0.5625), 9


def critical_hex_of(points):
    return [critical_hex(*p.location, p.gradient_residual, p.hessian,
                         p.morse_type) for p in points]


@pytest.mark.slow
def test_critical_points_equal_seed_by_seed_reference(monkeypatch):
    lstsq_calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kw):
        lstsq_calls.append(1)
        return lstsq(*args, **kw)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    points = 0
    for name, field, region, grid in critical_corpus():
        iso = GenIsotopy(field, twist_bound_c=0.9)
        lstsq_calls.clear()
        got = critical_hex_of(find_critical_points(iso, region, grid))
        lane_lstsq = len(lstsq_calls)
        steps = []
        assert got == reference_critical_points(iso, region, grid,
                                                steps=steps), (name, grid)
        if (name, grid) == ("strips", 16):  # seeds in the NaN strip
            assert 1 in steps
        if name in ("x^3+y^3", "x^4+y^4"):
            assert lane_lstsq > 0, name
        if name == "x^4+y^4":  # lanes that hit max_iter
            assert 200 in steps
        points += len(got)
    assert points > 150


def twist_lifts():
    def wave(x, y):
        w = 0.05 * math.sin(2 * math.pi * x)
        return (x + y + w, y + w)

    def band(x, y):
        return (x + 3.0 * y + 0.02 * math.sin(2 * math.pi * x),
                y + 0.01 * math.sin(2 * math.pi * x) ** 2)

    yield "shear", AnnulusLiftMap(lift=lambda x, y: (x + y, y), a=1.0, b=1.0)
    yield "wave", AnnulusLiftMap(lift=wave, a=0.5, b=0.55)
    yield "band", AnnulusLiftMap(lift=band, a=1.0 / 6.0, b=0.2)


def reference_twist_fixed_points(m, grid):
    """twist_check_and_search's fixed points, one reference_newton per seed."""
    xs = [i / grid for i in range(grid)]
    ys = np.linspace(-m.a, m.a, grid + 1)
    d1 = np.empty((grid + 1, grid + 1))
    d2 = np.empty((grid + 1, grid + 1))
    for i, x in enumerate(xs + [1.0]):
        for j, y in enumerate(ys):
            w = m.lift(x, y)
            d1[i, j] = w[0] - x
            d2[i, j] = w[1] - y
    h = 1e-7

    def lift_model(x, y):
        w = m.lift(x, y)
        r = np.array([w[0] - x, w[1] - y])

        def step():
            J = np.empty((2, 2))
            for k, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
                wp = m.lift(x + dx, y + dy)
                wm = m.lift(x - dx, y - dy)
                J[0, k] = (wp[0] - wm[0]) / (2 * h) - (1.0 if k == 0 else 0.0)
                J[1, k] = (wp[1] - wm[1]) / (2 * h) - (1.0 if k == 1 else 0.0)
            return np.linalg.lstsq(J, -r, rcond=None)[0]

        return float(np.hypot(r[0], r[1])), step

    found = []
    seeds = _seed_cells(d1, 1e-9) & _seed_cells(d2, 1e-9)
    for i, j in zip(*np.nonzero(seeds)):
        x0 = xs[i] + 0.5 / grid
        y0 = 0.5 * (ys[j] + ys[j + 1])
        pt = reference_newton(lift_model, (x0, y0), 1e-9, 60, 0.5)
        if pt is None:
            continue
        x, y, _ = pt
        x = x % 1.0
        if abs(y) > m.a + 1e-9:
            continue
        if any(min(abs(x - px), 1.0 - abs(x - px)) < 1e-6
               and abs(y - py) < 1e-6 for px, py in found):
            continue
        found.append((x, y))
    found.sort()
    return [(float(x).hex(), float(y).hex()) for x, y in found]


def test_twist_fixed_points_equal_seed_by_seed_reference():
    n = 0
    for name, m in twist_lifts():
        for grid in (16, 24, 32, 64):
            got = twist_check_and_search(m, grid=grid).fixed_points
            assert [(float(x).hex(), float(y).hex()) for x, y in got] == \
                reference_twist_fixed_points(m, grid), (name, grid)
            n += len(got)
    assert n > 10


def lanes_of(scalar_model):
    """A lane model that runs a reference_newton model lane by lane."""

    def model(xs, ys):
        got = [scalar_model(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        return [r for r, _ in got], lambda lanes: [got[k][1]() for k in lanes]

    return model


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def test_newton_raises_the_error_of_the_lowest_failing_seed():
    # g = x^4 + y^4 with a log domain error for -0.19 < x < -0.18, between
    # grid nodes.  Newton takes x to 2x/3: the first seed, x = -0.9375,
    # reaches -0.185 at its fifth evaluation, while the later seeds at
    # x = -0.1875 fail at their first
    iso = make_iso("x^4+y^4+select(x<-0.18,select(x>-0.19,log(-1-x^2),0),0)",
                   0.9)
    want = raised(lambda: reference_critical_points(iso, (-1, 1, -1, 1), 16))
    assert want[0] is DomainError and "at (-0.18518518518518" in want[1]
    # (-0.1875, 0.0625) is a seed of the row above y = 0
    with pytest.raises(DomainError):
        iso.field.jet2(-0.1875, 0.0625)
    assert raised(lambda: find_critical_points(iso, (-1, 1, -1, 1), 16)) \
        == want

    # the same rule for errors inside a step, straight on _newton: seed 0
    # fails in its third step, seed 2 in its first, seed 1 never
    def model(x, y):
        def step():
            if (x < 0.3 and y > 2.0) or (x < 0.2 and y < -1.0):
                raise ValueError(f"step from ({x!r}, {y!r})")
            return np.array([-0.5 * x, 0.0])

        return abs(x), step

    seeds = [(1.0, 3.0), (0.5, 0.0), (0.1, -5.0), (0.25, 9.0)]
    scalar = [raised(lambda: reference_newton(model, s, 1e-9, 50, 1.0))
              if s[0] != 0.5 else None for s in seeds]
    assert scalar[0] == (ValueError, "step from (0.25, 3.0)")
    assert scalar[2] == (ValueError, "step from (0.1, -5.0)")
    assert raised(lambda: _newton(lanes_of(model), seeds, 1e-9, 50, 1.0)) \
        == scalar[0]
    assert _newton(lanes_of(model), seeds[1:2], 1e-9, 50, 1.0) == \
        [reference_newton(model, seeds[1], 1e-9, 50, 1.0)]


class CountingField:
    """Counts the jet2 calls made on a field."""

    def __init__(self, field):
        self.field, self.calls = field, 0

    def jet2(self, x, y):
        self.calls += 1
        return self.field.jet2(x, y)


def test_critical_point_scan_makes_a_bounded_number_of_jet_calls():
    # a grid_scan lattice: the seeds all refine together, so the count is
    # at most one call per grid block, per Newton iteration and per kept
    # point: 29 calls here, where a seed-by-seed run makes 9,957
    text, region, grid = next(lattice_fields(np.random.default_rng(19)))
    field = CountingField(ExprField(text))
    found = find_critical_points(GenIsotopy(field, twist_bound_c=0.5),
                                 region, grid)
    assert len(found) == 13
    blocks = math.ceil((grid + 1) / max(1, GRID_BLOCK // (grid + 1)))
    assert field.calls <= blocks + 200 + len(found)
