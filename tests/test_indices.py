import numpy as np
import pytest

from torsionlab.errors import (
    CenterNotFixed, FixedPointOnCurve, IdentityCheckFailed, NotFixed,
    TrajectoryCollision,
)
from torsionlab.expr import ExprField, parse_expr
from torsionlab.foliate import gradient_foliation
from torsionlab.genfunc import GenIsotopy
from torsionlab.indices import (
    EQUIVALENT, GREATER, LESS, PlanarIsotopy, compare_isotopies,
    concat_isotopies, expr_isotopy, genfunc_isotopy, homothety_isotopy,
    identity_isotopy, index_relation_check, isotopy_index, lefschetz_index,
    linking_number, rotation_isotopy, shear_isotopy, with_full_turns,
)


def linear_map(L):
    M = np.asarray(L, dtype=float)
    return lambda z: tuple(M @ np.asarray(z, dtype=float))


def quad_iso(text, c=0.0, hint=(0.0, 0.0)):
    return genfunc_isotopy(GenIsotopy(ExprField(text), twist_bound_c=c),
                           fixed_point_hint=hint)


def test_lefschetz_examples():
    assert lefschetz_index(linear_map([[2, 0], [0, 2]]), (0, 0), 1.0) == 1
    assert lefschetz_index(linear_map([[2, 0], [0, 0.5]]), (0, 0), 1.0) == -1


def test_lefschetz_matches_determinant_sign_oracle():
    rng = np.random.default_rng(17)
    done = 0
    while done < 60:
        L = rng.uniform(-2, 2, size=(2, 2))
        if abs(np.linalg.det(L - np.eye(2))) < 0.05:
            continue
        oracle = int(np.sign(np.linalg.det(L - np.eye(2))))
        assert lefschetz_index(linear_map(L), (0, 0), 1.0, 256) == oracle
        done += 1


def test_lefschetz_fixed_point_on_curve():
    with pytest.raises(FixedPointOnCurve):
        lefschetz_index(lambda z: z, (0, 0), 1.0)


def test_identity_check_rejects_non_isotopy():
    with pytest.raises(IdentityCheckFailed):
        PlanarIsotopy(eval=lambda t, z: (z[0] + 1.0, z[1]))


def test_isotopy_index_full_turn_rotation_is_zero():
    J = rotation_isotopy((0.0, 0.0), 1.0)
    assert isotopy_index(J, (0.0, 0.0), 0.5) == 0


def test_isotopy_index_homothety_is_zero():
    assert isotopy_index(homothety_isotopy(), (0.0, 0.0), 0.5) == 0


def test_isotopy_index_saddle_generating_isotopy():
    iso = quad_iso("x^2-y^2")
    assert isotopy_index(iso, (0.0, 0.0), 0.4) == -2


def test_isotopy_index_quadratic_generating_isotopy():
    iso = quad_iso("x^2+y^2")
    assert isotopy_index(iso, (0.0, 0.0), 0.4) == 0


def test_isotopy_index_stable_under_radius_halving():
    for iso in (quad_iso("x^2-y^2"), quad_iso("x^2+y^2"),
                rotation_isotopy((0.0, 0.0), 1.0)):
        a = isotopy_index(iso, (0.0, 0.0), 0.4)
        b = isotopy_index(iso, (0.0, 0.0), 0.2)
        assert a == b


def test_isotopy_index_checks_center():
    with pytest.raises(CenterNotFixed):
        isotopy_index(shear_isotopy(), (0.0, 1.0), 0.1)


def test_linking_examples():
    ident = identity_isotopy()
    assert linking_number(ident, (0.0, 0.0), (1.0, 0.0)) == 0
    J = rotation_isotopy((0.0, 0.0), 1.0)
    assert linking_number(J, (0.0, 0.0), (0.7, -0.2)) == 1
    sh = shear_isotopy()
    assert linking_number(sh, (0.0, 0.0), (1.0, 0.0)) == 0


def test_linking_errors():
    sh = shear_isotopy()
    with pytest.raises(NotFixed):
        linking_number(sh, (0.0, 0.0), (0.0, 1.0))
    ident = identity_isotopy()
    with pytest.raises(TrajectoryCollision):
        linking_number(ident, (0.0, 0.0), (0.0, 0.0))


def test_linking_symmetry_and_rotation_shift():
    rng = np.random.default_rng(23)
    J = rotation_isotopy((0.0, 0.0), 1.0)
    for _ in range(10):
        z1 = tuple(rng.uniform(-1.5, 1.5, size=2))
        if np.hypot(*z1) < 0.1:
            continue
        L = linking_number(J, (0.0, 0.0), z1)
        assert L == linking_number(J, z1, (0.0, 0.0)) == 1
    sh = shear_isotopy()
    base = linking_number(sh, (0.0, 0.0), (1.0, 0.0))
    lifted = linking_number(with_full_turns(sh, 1, (0.0, 0.0)),
                            (0.0, 0.0), (1.0, 0.0))
    assert lifted == base + 1


def test_compare_isotopies_reflexive_equivalent():
    iso = homothety_isotopy()
    rep = compare_isotopies(iso, iso, (0.0, 0.0), 0.3, grid=8)
    assert rep.relation == EQUIVALENT
    assert rep.witness is None


def test_compare_isotopies_rotation_composition():
    base = homothety_isotopy()
    lifted = with_full_turns(base, 1, (0.0, 0.0))
    rep = compare_isotopies(lifted, base, (0.0, 0.0), 0.3, grid=8)
    assert rep.relation == GREATER
    rep = compare_isotopies(base, lifted, (0.0, 0.0), 0.3, grid=8)
    assert rep.relation == LESS


def test_expr_isotopy_round_trip():
    iso = expr_isotopy("x+t*y", "y")
    assert iso.eval(1.0, (0.0, 2.0)) == pytest.approx((2.0, 2.0))
    tree = expr_isotopy(parse_expr("x+t*y", variables=("t", "x", "y")), "y")
    assert tree.eval(0.5, (0.3, 2.0)) == iso.eval(0.5, (0.3, 2.0))
    scaled = expr_isotopy("(1+t)*x", "(1+t)*y")
    assert isotopy_index(scaled, (0.0, 0.0), 0.3) == \
        isotopy_index(homothety_isotopy(), (0.0, 0.0), 0.3) == 0


def test_isotopy_index_undefined_on_fixed_line():
    # the shear fixes y = 0, so every circle about 0 meets lift-fixed points
    with pytest.raises(FixedPointOnCurve):
        isotopy_index(shear_isotopy(), (0.0, 0.0), 0.3)


def test_concat_endpoint_composition():
    a = shear_isotopy()
    b = rotation_isotopy((0.0, 0.0), 1.0)
    comp = concat_isotopies(a, b)
    z = (0.4, -0.3)
    end = comp.eval(1.0, z)
    assert end == pytest.approx(a.eval(1.0, z), abs=1e-12)


def test_index_relation_saddle_fixture():
    iso_g = GenIsotopy(ExprField("x^2-y^2"), twist_bound_c=0.0)
    iso = genfunc_isotopy(iso_g, fixed_point_hint=(0.0, 0.0))
    fol = gradient_foliation(iso_g.field)
    rep = index_relation_check(iso.time_one(), iso, fol, (0.0, 0.0), 0.4)
    assert (rep.lefschetz, rep.isotopy, rep.foliation) == (-1, -2, -1)
    assert rep.both_identities_hold


def test_index_relation_homothety_with_spiral_foliation():
    from torsionlab.fixtures import ex1_foliation_f1

    iso = homothety_isotopy()
    rep = index_relation_check(iso.time_one(), iso, ex1_foliation_f1(),
                               (0.0, 0.0), 0.4)
    assert (rep.lefschetz, rep.isotopy, rep.foliation) == (1, 0, 1)
    assert rep.both_identities_hold


def test_index_relation_quadratic_fixture():
    iso_g = GenIsotopy(ExprField("x^2+y^2"), twist_bound_c=0.0)
    iso = genfunc_isotopy(iso_g, fixed_point_hint=(0.0, 0.0))
    fol = gradient_foliation(iso_g.field)
    rep = index_relation_check(iso.time_one(), iso, fol, (0.0, 0.0), 0.4)
    assert (rep.lefschetz, rep.isotopy, rep.foliation) == (1, 0, 1)
    assert rep.foliation_equals_isotopy_plus_one
    assert rep.lefschetz_equals_foliation is None  # vacuous at i(F) = 1
    assert rep.both_identities_hold
