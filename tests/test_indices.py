import math

import numpy as np
import pytest

from torsionlab import indices
from torsionlab.errors import (
    CenterNotFixed, FixedPointOnCurve, IdentityCheckFailed, NotFixed,
    RefinementExhausted, TorsionlabError, TrajectoryCollision,
)
from torsionlab.expr import ExprField, parse_expr
from torsionlab.fixtures import ex3_isotopy
from torsionlab.foliate import gradient_foliation
from torsionlab.genfunc import GenIsotopy
from torsionlab.geom import TWO_PI, build_winding_path, winding_number
from torsionlab.indices import (
    EQUIVALENT, GREATER, INCOMPARABLE, LESS, IsotopyOrder, PlanarIsotopy,
    compare_isotopies, concat_isotopies, expr_isotopy, genfunc_isotopy,
    homothety_isotopy, identity_isotopy, index_relation_check, isotopy_index,
    lefschetz_index, linking_number, rotation_isotopy, shear_isotopy,
    trajectory_turns, with_full_turns,
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


def test_center_undefined_is_center_not_fixed():
    # the ex3 model divides by |z|, so it has no value at its center
    ex3 = ex3_isotopy()
    with pytest.raises(CenterNotFixed, match="undefined at the center") as e:
        isotopy_index(ex3, (0.0, 0.0), 0.05)
    assert isinstance(e.value.__cause__, ZeroDivisionError)
    with pytest.raises(CenterNotFixed, match="undefined at the center"):
        compare_isotopies(ex3, ex3, (0.0, 0.0), 0.05, grid=4)


# --- continuation along circles against the per-point sweeps it replaced ------

def circle_point(center, r, s):
    a = TWO_PI * s
    return (center[0] + r * math.cos(a), center[1] + r * math.sin(a))


def reference_isotopy_index(iso, center, radius, samples=256):
    """isotopy_index with one trajectory_turns sweep per boundary sample."""
    indices._check_center_fixed(iso, center)
    cx, cy = float(center[0]), float(center[1])

    def cover_disp(s):
        z = circle_point((cx, cy), radius, s)
        w = iso.eval(1.0, z)
        v = (trajectory_turns(iso, z, (cx, cy)),
             radius - math.hypot(w[0] - cx, w[1] - cy))
        if math.hypot(v[0], v[1]) < 1e-10:
            raise FixedPointOnCurve(s)
        return v

    params = [i / samples for i in range(samples)]
    path = build_winding_path([cover_disp(s) for s in params], closed=True,
                              refiner=cover_disp, params=params)
    return winding_number(path)


def reference_compare(iso, other, center, radius, grid=16, tol=1e-9):
    """compare_isotopies with two trajectory_turns sweeps per grid point."""
    indices._check_center_fixed(iso, center)
    indices._check_center_fixed(other, center)
    cx, cy = float(center[0]), float(center[1])
    has_less = has_greater = False
    witness = None
    for i in range(grid):
        theta = i / grid
        for j in range(grid):
            y = -radius * (j + 0.5) / grid
            a = TWO_PI * theta
            z = (cx - y * math.cos(a), cy - y * math.sin(a))
            d = trajectory_turns(iso, z, (cx, cy)) - \
                trajectory_turns(other, z, (cx, cy))
            if d > tol and not has_greater:
                has_greater = True
                witness = witness or (theta, y)
            elif d < -tol and not has_less:
                has_less = True
                witness = witness or (theta, y)
    if has_less and has_greater:
        return IsotopyOrder(INCOMPARABLE, witness)
    if has_greater:
        return IsotopyOrder(GREATER, witness)
    if has_less:
        return IsotopyOrder(LESS, witness)
    return IsotopyOrder(EQUIVALENT, None)


def expm_isotopy(a, b, c, as_expression):
    """t -> exp(tL) with L = [[a, b], [c, -a]], as a closure or as text."""
    mu2 = -(a * a + b * c)
    mu = math.sqrt(abs(mu2))
    if as_expression:
        m = repr(mu)
        C, S = ((f"cos({m}*t)", f"sin({m}*t)/{m}") if mu2 > 0 else
                (f"(exp({m}*t)+exp(-{m}*t))/2",
                 f"(exp({m}*t)-exp(-{m}*t))/(2*{m})"))
        return expr_isotopy(f"({C}{a:+}*{S})*x{b:+}*{S}*y",
                            f"({C}{-a:+}*{S})*y{c:+}*{S}*x")

    def ev(t, z):
        C, S = ((math.cos(mu * t), math.sin(mu * t) / mu) if mu2 > 0 else
                (math.cosh(mu * t), math.sinh(mu * t) / mu))
        return (C * z[0] + S * (a * z[0] + b * z[1]),
                C * z[1] + S * (c * z[0] - a * z[1]))

    return PlanarIsotopy(eval=ev, fixed_point_hint=(0.0, 0.0))


ELLIPTIC, HYPERBOLIC = (0.3, -1.2, 0.9), (0.8, 0.5, 0.3)


def continuation_corpus():
    """(name, isotopy, center, radius): 17 isotopies that fix their center."""
    o = (0.0, 0.0)
    c = (0.2, -0.1)
    yield "J^1", rotation_isotopy(o, 1.0), o, 0.3
    yield "J^-3", rotation_isotopy(c, -3.0), c, 0.3
    yield "J^0.3", rotation_isotopy((0.5, -0.2), 0.3), (0.5, -0.2), 0.2
    yield "homothety", homothety_isotopy(), o, 0.3
    yield "homothety+J", with_full_turns(homothety_isotopy(), 1, o), o, 0.3
    yield "ex3 model", ex3_isotopy(), o, 0.04
    yield "shear", shear_isotopy(), o, 0.3
    for g, tb in (("x^2+y^2", 0.0), ("x^2-y^2", 0.0),
                  ("0.2*sin(x)*sin(y)", 0.5), ("0.3*x^2-0.2*y^2+0.1*x*y", 0.5)):
        yield f"genfunc {g}", quad_iso(g, tb), o, 0.2
    yield "genfunc x^2-y^2 + J^-1", \
        with_full_turns(quad_iso("x^2-y^2"), -1, o), o, 0.2
    for name, L in (("elliptic", ELLIPTIC), ("hyperbolic", HYPERBOLIC)):
        for as_expression in (False, True):
            kind = "expression" if as_expression else "closure"
            yield f"expm {name} {kind}", expm_isotopy(*L, as_expression), o, 0.5
    yield "expr J^2", expr_isotopy("cos(4*pi*t)*x-sin(4*pi*t)*y",
                                   "sin(4*pi*t)*x+cos(4*pi*t)*y"), o, 0.4


def test_circle_turns_evaluate_each_circle_point_once():
    # the lift doubles from 64 to 128 samples; sample i/64 is sample
    # 2i/128 and is evaluated once.  s = 0 and s = 1/2 also end a sweep.
    o = (0.0, 0.0)
    rot = rotation_isotopy(o, 2.0)
    seen = {}

    def ev(t, z):
        if t == 1.0:
            seen[z] = seen.get(z, 0) + 1
        return rot.eval(t, z)

    iso = PlanarIsotopy(eval=ev)
    assert indices._circle_turns(iso, o, 0.5, 64) == \
        indices._circle_turns(rot, o, 0.5, 64)
    ends = {circle_point(o, 0.5, 0.0), circle_point(o, 0.5, 0.5)}
    assert {z: n for z, n in seen.items() if z not in ends and n > 1} == {}
    assert len(seen) == 128


def test_isotopy_index_reuses_the_circle_vectors():
    # the index path's 64 samples are points of the 128-sample lift, so
    # f_1 repeats only at the ends of the sweeps at s = 0 and s = 1/2 (the
    # 129th point is the center check's); it was 197 calls at these points
    o = (0.0, 0.0)
    rot = rotation_isotopy(o, 2.0)
    seen = {}

    def ev(t, z):
        if t == 1.0:
            seen[z] = seen.get(z, 0) + 1
        return rot.eval(t, z)

    assert isotopy_index(PlanarIsotopy(eval=ev), o, 0.5, 64) == \
        isotopy_index(rot, o, 0.5, 64)
    ends = {circle_point(o, 0.5, 0.0), circle_point(o, 0.5, 0.5)}
    assert {z: n for z, n in seen.items() if n > 1} == dict.fromkeys(ends, 2)
    assert (len(seen), sum(seen.values())) == (129, 131)


def outcome(fn):
    try:
        return fn()
    except TorsionlabError as exc:
        return type(exc).__name__


@pytest.mark.slow
def test_circle_turns_match_per_point_sweeps():
    n = 0
    for name, iso, center, r in continuation_corpus():
        got, _ = indices._circle_turns(iso, center, r, 64)
        want = [trajectory_turns(iso, circle_point(center, r, i / 64), center)
                for i in range(64)]
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, name
        n += 1
    assert n == 17


@pytest.mark.slow
def test_index_and_order_equal_per_point_reference():
    corpus = list(continuation_corpus())
    for name, iso, center, r in corpus:
        assert outcome(lambda: isotopy_index(iso, center, r, 64)) == \
            outcome(lambda: reference_isotopy_index(iso, center, r, 64)), name
    pairs = [(a, b) for a in corpus for b in corpus
             if a[2] == b[2] == (0.0, 0.0) and a[0] < b[0]
             and "genfunc" not in a[0] + b[0]]
    pairs.append((corpus[7], corpus[10]))  # a genfunc pair
    for (na, a, c, r), (nb, b, _, _) in pairs:
        assert outcome(lambda: compare_isotopies(a, b, c, r, grid=4)) == \
            outcome(lambda: reference_compare(a, b, c, r, grid=4)), (na, nb)
    # bench-style rigid pairs J^k, J^k' about an offset center, grid 8
    c = (0.4321, -0.8765)
    for k, k2 in ((3, -2), (-1, 1), (2, 3), (-3, -1)):
        a, b = rotation_isotopy(c, k), rotation_isotopy(c, k2)
        assert compare_isotopies(a, b, c, 0.3, grid=8) == \
            reference_compare(a, b, c, 0.3, grid=8)


def bump_isotopy(rise, fall, width=1e-3):
    """f_t(w) = w e^{2 pi i t g(theta)}, g rising from 0 to 1 on
    [rise, rise + width] and falling back on [fall, fall + width] (turns)."""

    def g(theta):
        return min(max((theta - rise) / width, 0.0), 1.0) - \
            min(max((theta - fall) / width, 0.0), 1.0)

    def ev(t, w):
        a = TWO_PI * t * g((math.atan2(w[1], w[0]) / TWO_PI) % 1.0)
        c, s = math.cos(a), math.sin(a)
        return (c * w[0] - s * w[1], s * w[0] + c * w[1])

    return PlanarIsotopy(eval=ev, fixed_point_hint=(0.0, 0.0))


def test_circle_turns_guards_against_aliasing():
    """A 1e-3-turn ramp of g between two of the 64 base samples makes one
    whole extra turn of f_1 that the base lift cannot see.

    Ramps centred on odd multiples of 1/128 are resolved by the first
    doubling, so the guard must return the per-point values; ramps centred
    on odd multiples of 1/256 hide from the 64- and 128-sample lifts alike,
    and an arc across s = 1/2 must then fail the antipode sweep.  Hidden
    ramps on an arc containing neither s = 0 nor s = 1/2 are not caught:
    continuation resolves what its grids resolve, as angle_sweep in t.
    """
    o, w = (0.0, 0.0), 0.5e-3
    for rise, fall in ((3 / 128, 11 / 128), (21 / 128, 45 / 128),
                       (35 / 128, 99 / 128), (61 / 256, 197 / 256),
                       (3 / 256, 181 / 256)):
        iso = bump_isotopy(rise - w, fall - w)
        want = [trajectory_turns(iso, circle_point(o, 0.5, i / 64), o)
                for i in range(64)]
        try:
            got, _ = indices._circle_turns(iso, o, 0.5, 64)
        except RefinementExhausted:
            assert rise < 0.5 < fall and rise * 256 % 2 == 1
            continue
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, (rise, fall)
        assert max(want) == pytest.approx(1.0)
