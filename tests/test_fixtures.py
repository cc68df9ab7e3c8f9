import math

import numpy as np
import pytest

from torsionlab.errors import UnknownFixture
from torsionlab.fixtures import (
    PHI5_A, Ex5Field, ex2_transverse_field, ex2_vector_field, ex4_lift,
    fixture_names, load_fixture, phi4, phi5, phi5_integral, phi5_prime,
    run_fixture_claims,
)
from torsionlab.genfunc import GenIsotopy, find_critical_points


def test_catalog_names():
    assert fixture_names() == [
        "appA_quadratic", "ex1_homothety", "ex2_piecewise_flow",
        "ex3_annulus_escape", "ex4_sphere_3shear", "ex5_sin2_genfunc",
        "ex6_threeband_shear", "ex7_linear_shear",
    ]
    with pytest.raises(UnknownFixture):
        load_fixture("nope")


def test_claims_have_provenance_and_known_operations():
    ops = {
        "lefschetz_index", "isotopy_index", "linking_number",
        "compare_isotopies", "index_relation_check", "winding_number",
        "circle_rotation_number", "gf_apply", "gf_jacobian", "gf_alt_apply",
        "find_critical_points", "gradient_foliation", "integrate_leaf",
        "transversality_report", "classify_singularity",
        "linear_blowup_rotation", "isotopy_blowup_rotation",
        "rotation_samples", "local_rotation_set_estimate",
        "torsion_low_classify", "twist_check_and_search",
    }
    for name in fixture_names():
        sc = load_fixture(name)
        assert sc.claims
        for claim in sc.claims:
            assert claim.operation in ops
            assert claim.provenance in ("paper", "derived", "trivial")


def test_phi5_pinned_constraints():
    # boundary zeros
    for s in (0.0, 0.75, 1.0):
        assert phi5(s) == pytest.approx(0.0, abs=1e-15)
    xs = np.linspace(0.0, 1.0, 10001)
    vals = np.array([phi5(s) for s in xs])
    # bound |phi| <= 1/(2 pi)
    assert np.max(np.abs(vals)) <= 1.0 / (2.0 * math.pi)
    # sign pattern
    inner = xs[(xs > 1e-9) & (xs < 0.75 - 1e-9)]
    assert all(phi5(s) > 0.0 for s in inner)
    inner = xs[(xs > 0.75 + 1e-9) & (xs < 1.0 - 1e-9)]
    assert all(phi5(s) < 0.0 for s in inner)
    # zero mean by numerical quadrature
    assert np.trapezoid(vals, xs) == pytest.approx(0.0, abs=1e-8)
    # strict domination on (3/4, 1)
    for s in np.linspace(0.7500001, 0.9999999, 10000):
        assert abs(phi5(s)) < s * math.sin(math.pi / s) ** 2


def test_phi5_periodicity_and_antiderivative():
    for s in np.linspace(-1.0, 2.0, 101):
        assert phi5(s) == pytest.approx(phi5(s % 1.0), abs=1e-15)
    # antiderivative matches quadrature and has exact zero total mass
    assert phi5_integral(1.0) == pytest.approx(0.0, abs=1e-16)
    for y in (0.2, 0.5, 0.75, 0.9):
        xs = np.linspace(0.0, y, 20001)
        assert phi5_integral(y) == pytest.approx(
            np.trapezoid([phi5(s) for s in xs], xs), abs=1e-9)
    # derivative consistency
    h = 1e-6
    for s in (0.1, 0.4, 0.74, 0.8, 0.95):
        fd = (phi5(s + h) - phi5(s - h)) / (2 * h)
        assert phi5_prime(s) == pytest.approx(fd, abs=1e-8)
    assert PHI5_A == pytest.approx(1.0 / 96.0)


def test_phi5_on_arrays_equals_phi5_on_floats():
    # the quadrature nodes of ex5's partial-derivative claim, and a span
    # across the branch points and periods
    rng = np.random.default_rng(2)
    grids = [np.linspace(0.0, rng.uniform(0.05, 0.95), 20001) for _ in range(3)]
    grids += [np.linspace(-1.0, 2.0, 12001), np.array([0.0, 0.75, 1.0])]
    for ss in grids:
        for fn in (phi5, phi5_prime, phi5_integral):
            assert [v.hex() for v in fn(ss).tolist()] == \
                [fn(v).hex() for v in ss.tolist()], fn.__name__


def test_ex5_terms_on_arrays_equal_floats(monkeypatch):
    # every x and y lane the ex5 critical-point scan evaluates, term by term
    lanes = {"_x_terms": [], "_y_terms": []}
    for name, seen in lanes.items():
        def record(v, terms=getattr(Ex5Field, name), seen=seen):
            seen.append(v)
            return terms(v)

        monkeypatch.setattr(Ex5Field, name, staticmethod(record))
    find_critical_points(GenIsotopy(Ex5Field(), twist_bound_c=0.11),
                         (-0.6, 0.6, 0.05, 0.95), 400)
    monkeypatch.undo()
    for name, seen in lanes.items():
        terms = getattr(Ex5Field, name)
        vs = np.unique(np.concatenate([np.ravel(v) for v in seen]))
        assert vs.size > 10000
        for got, want in zip(terms(vs), zip(*map(terms, vs.tolist()))):
            assert [v.hex() for v in got.tolist()] == \
                [v.hex() for v in want], name


def test_ex5_array_jet_raises_where_math_terms_do():
    with pytest.raises(ValueError, match="math domain error"):
        Ex5Field().jet2(np.array([0.1, math.inf]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="math domain error"):
        Ex5Field().jet2(np.array([0.1, 0.2]), np.array([0.5, 5e-324]))


def test_phi4_pinned_constraints():
    xs = np.linspace(0.0, 1.0, 10001)
    for y in xs:
        if y <= 1.0 / 6.0 or y >= 5.0 / 6.0:
            assert phi4(y) == y
        else:
            assert phi4(y) < y
    # diffeomorphism: strictly increasing
    vals = [phi4(y) for y in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert phi4(0.0) == 0.0 and phi4(1.0) == 1.0


def test_ex2_fields_relation():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x, y = rng.uniform(-2, 2, size=2)
        v = ex2_vector_field(x, y)
        xi = ex2_transverse_field(x, y)
        det = v[0] * xi[1] - v[1] * xi[0]
        assert det == pytest.approx(v[0] ** 2 + v[1] ** 2, rel=1e-12)
        if (x, y) != (0.0, 0.0):
            assert det > 0.0


def test_ex2_field_continuity_on_axes():
    for r in (0.5, 1.0, 2.0):
        eps = 1e-9
        for a, b in [((eps, r), (-eps, r)), ((eps, -r), (-eps, -r)),
                     ((r, eps), (r, -eps)), ((-r, eps), (-r, -eps))]:
            va = ex2_vector_field(*a)
            vb = ex2_vector_field(*b)
            assert va == pytest.approx(vb, abs=1e-7)


def test_ex4_lift_boundaries():
    assert ex4_lift(0.3, 0.0) == pytest.approx((0.3, 0.0))
    assert ex4_lift(0.3, 1.0) == pytest.approx((3.3, 1.0))


def test_light_fixture_claims_pass():
    for name in ("ex1_homothety", "ex2_piecewise_flow", "ex3_annulus_escape",
                 "ex4_sphere_3shear", "ex6_threeband_shear",
                 "ex7_linear_shear", "appA_quadratic"):
        rep = run_fixture_claims(load_fixture(name))
        assert rep["all_pass"], rep


def test_fixture_reports_are_deterministic():
    a = run_fixture_claims(load_fixture("ex3_annulus_escape"))
    b = run_fixture_claims(load_fixture("ex3_annulus_escape"))
    assert a == b
    a = run_fixture_claims(load_fixture("ex7_linear_shear"))
    b = run_fixture_claims(load_fixture("ex7_linear_shear"))
    assert a == b


@pytest.mark.slow
def test_ex5_fixture_claims_pass():
    rep = run_fixture_claims(load_fixture("ex5_sin2_genfunc"))
    assert rep["all_pass"], rep


def test_ex3_samples_once_and_errors_reach_both_claims(monkeypatch):
    from torsionlab import fixtures
    from torsionlab.errors import RefinementExhausted

    calls = []

    def samples(*args, **kwargs):
        calls.append(args)
        return [((0.04, 0.0), 25.0), ((0.0, -0.03), 100.0 / 3.0)]

    monkeypatch.setattr(fixtures, "rotation_samples", samples)
    scen = load_fixture("ex3_annulus_escape")
    assert [c.compute(scen) for c in scen.claims[:2]] == [25.0, 0.0]
    assert len(calls) == 1

    def fails(*args, **kwargs):
        calls.append(args)
        raise RefinementExhausted("no sample")

    monkeypatch.setattr(fixtures, "rotation_samples", fails)
    scen = load_fixture("ex3_annulus_escape")
    scen.claims = scen.claims[:2]
    errors = [c["error"] for c in run_fixture_claims(scen)["claims"]]
    assert errors == ["RefinementExhausted: no sample"] * 2
    assert len(calls) == 3
