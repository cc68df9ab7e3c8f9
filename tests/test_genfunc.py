import math

import numpy as np
import pytest

from torsionlab.errors import DomainError, SolverDiverged, TwistBoundViolation
from torsionlab.expr import ExprField, Jet2
from torsionlab.fixtures import Ex5Field
from torsionlab.genfunc import (
    GenIsotopy, MORSE_DEGENERATE, MORSE_MIN, MORSE_SADDLE, PolynomialField,
    _seed_cells, _solve_X, _solver_tol, alt_jacobian_path, alt_trajectory,
    find_critical_points, gf_alt_apply, gf_apply, gf_jacobian, jacobian_path,
    verify_twist_bound,
)


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
