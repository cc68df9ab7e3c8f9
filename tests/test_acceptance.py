"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import json
import math

import numpy as np

from torsionlab.cli import main as cli_main
from torsionlab.expr import ExprField
from torsionlab.fixtures import (
    Ex5Field, ex3_isotopy, ex4_lift, ex5_north_model_field, ex7_lift,
    fixture_names, boundary_rotation_number,
)
from torsionlab.foliate import (
    POSITIVELY_TRANSVERSE, classify_singularity, gradient_foliation,
    transversality_report,
)
from torsionlab.genfunc import (
    GenIsotopy, PolynomialField, alt_jacobian_path, alt_trajectory,
    find_critical_points, gf_apply, gf_jacobian, jacobian_path,
)
from torsionlab.indices import (
    genfunc_isotopy, identity_isotopy, index_relation_check, lefschetz_index,
    linking_number, rotation_isotopy, shear_isotopy, with_full_turns,
)
from torsionlab.rotation import (
    AnnulusLiftMap, isotopy_blowup_rotation, linear_blowup_rotation,
    rotation_samples, twist_check_and_search,
)

TWO_PI = 2 * math.pi


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {tag}{suffix}")
    return ok


def random_generating_field(rng, degree=3, fix_origin=False):
    """Random polynomial g with sampled twist bound < 0.9 on [-2.5, 2.5]^2
    and |d2 g| <= 0.8 there, so the roots X of draws in [-1.2, 1.2]^2
    stay inside the certified box."""
    c_target = rng.uniform(0.1, 0.85)
    coeffs = rng.uniform(-1.0, 1.0, size=(degree + 1, degree + 1))
    for i in range(degree + 1):
        for j in range(degree + 1):
            if i + j > degree:
                coeffs[i, j] = 0.0
    if fix_origin:
        coeffs[1, 0] = coeffs[0, 1] = 0.0
    raw = PolynomialField(coeffs)
    xs = np.linspace(-2.5, 2.5, 21)
    worst_fxy = max(abs(raw.jet2(x, y).fxy) for x in xs for y in xs)
    worst_fy = max(abs(raw.jet2(x, y).fy) for x in xs for y in xs)
    scale = min(c_target / worst_fxy if worst_fxy > 0 else 1.0,
                0.8 / worst_fy if worst_fy > 0 else 1.0)
    return PolynomialField(coeffs * scale), c_target


def conjugate(rng, D):
    while True:
        P = rng.uniform(-2, 2, size=(2, 2))
        d = np.linalg.det(P)
        if abs(d) < 0.2:
            continue
        if d < 0:
            P[:, 0] = -P[:, 0]
        return P @ D @ np.linalg.inv(P)


def test_criterion_01_area_preservation():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        field, _ = random_generating_field(rng)
        iso = GenIsotopy(field, twist_bound_c=0.9, solver_max_iter=400)
        for _ in range(20):
            t = rng.uniform(0.0, 1.0)
            z = rng.uniform(-1.2, 1.2, size=2)
            det = float(np.linalg.det(gf_jacobian(iso, t, z)))
            worst = max(worst, abs(det - 1.0))
    ok = report(1, "area preservation det J = 1", worst <= 1e-9,
                f"max |det-1| = {worst:.2e} over 10000 evaluations")
    assert ok


def test_criterion_02_jacobian_vs_finite_differences():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        field, _ = random_generating_field(rng)
        iso = GenIsotopy(field, twist_bound_c=0.9, solver_max_iter=400)
        t = rng.uniform(0.0, 1.0)
        z = rng.uniform(-1.2, 1.2, size=2)
        J = gf_jacobian(iso, t, z)
        h = 1e-5
        for k in range(2):
            dz = np.zeros(2)
            dz[k] = h
            col = (np.array(gf_apply(iso, t, z + dz))
                   - np.array(gf_apply(iso, t, z - dz))) / (2 * h)
            for r in range(2):
                err = abs(col[r] - J[r, k]) / max(1.0, abs(J[r, k]))
                worst = max(worst, err)
    ok = report(2, "closed-form Jacobian vs central differences",
                worst <= 1e-5, f"max relative error = {worst:.2e}")
    assert ok


def test_criterion_03_transversality_lemma():
    rng = np.random.default_rng(103)
    cases = []
    quad = GenIsotopy(ExprField("x^2+y^2"), twist_bound_c=0.1)
    quad_fol = gradient_foliation(quad.field)
    ex5 = GenIsotopy(Ex5Field(), twist_bound_c=0.11)
    ex5_fol = gradient_foliation(ex5.field)
    for iso, fol, sampler in (
            (quad, quad_fol, lambda: rng.uniform(-1.5, 1.5, size=2)),
            (ex5, ex5_fol, lambda: (rng.uniform(-0.55, 0.55),
                                    rng.uniform(0.08, 0.92)))):
        done = 0
        while done < 50:
            z = tuple(map(float, sampler()))
            w = gf_apply(iso, 1.0, z)
            if math.hypot(w[0] - z[0], w[1] - z[1]) < 1e-8:
                continue
            rep = transversality_report(alt_trajectory(iso, z, 129), fol)
            cases.append(rep.verdict)
            done += 1
    all_pt = all(v == POSITIVELY_TRANSVERSE for v in cases)

    half = GenIsotopy(ExprField("(x^2+y^2)/2"), twist_bound_c=0.1)
    rep = transversality_report(alt_trajectory(half, (1.0, 0.0), 129),
                                gradient_foliation(half.field))
    min_det_ok = abs(rep.min_det - 2.0) <= 1e-6
    ok = report(3, "two-phase paths positively transverse to grad foliation",
                all_pt and min_det_ok,
                f"100/100 PT = {all_pt}, min_det = {rep.min_det!r}")
    assert ok


def test_criterion_04_index_oracle():
    rng = np.random.default_rng(104)
    done = 0
    agree = True
    while done < 200:
        L = rng.uniform(-2, 2, size=(2, 2))
        if abs(np.linalg.det(L - np.eye(2))) < 0.05:
            continue
        oracle = int(np.sign(np.linalg.det(L - np.eye(2))))
        got = lefschetz_index(lambda z: tuple(L @ np.asarray(z)), (0, 0),
                              1.0, 256)
        agree = agree and (got == oracle)
        done += 1
    ok = report(4, "Lefschetz index equals sign det(L - I) on 200 maps", agree)
    assert ok


def test_criterion_05_index_relations():
    quad = GenIsotopy(ExprField("x^2+y^2"), twist_bound_c=0.1)
    iso_q = genfunc_isotopy(quad, fixed_point_hint=(0.0, 0.0))
    rep_q = index_relation_check(iso_q.time_one(), iso_q,
                                 gradient_foliation(quad.field),
                                 (0.0, 0.0), 0.4)
    saddle = GenIsotopy(ExprField("x^2-y^2"), twist_bound_c=0.1)
    iso_s = genfunc_isotopy(saddle, fixed_point_hint=(0.0, 0.0))
    rep_s = index_relation_check(iso_s.time_one(), iso_s,
                                 gradient_foliation(saddle.field),
                                 (0.0, 0.0), 0.4)
    ok_q = (rep_q.lefschetz, rep_q.isotopy, rep_q.foliation) == (1, 0, 1) \
        and rep_q.both_identities_hold
    ok_s = (rep_s.lefschetz, rep_s.isotopy, rep_s.foliation) == (-1, -2, -1) \
        and rep_s.both_identities_hold
    ok = report(5, "index relations i(F) = i(I) + 1 and i(f) = i(F)",
                ok_q and ok_s,
                f"quadratic (1, 0, 1): {ok_q}; saddle (-1, -2, -1): {ok_s}")
    assert ok


def test_criterion_06_rotation_trichotomy():
    rng = np.random.default_rng(106)
    ok_saddle = ok_negative = ok_rotation = True
    for _ in range(100):
        lam = rng.uniform(1.2, 6.0)
        A = conjugate(rng, np.diag([lam, 1.0 / lam]))
        ok_saddle = ok_saddle and linear_blowup_rotation(A) == 0.0
    for _ in range(100):
        lam = rng.uniform(1.2, 6.0)
        A = conjugate(rng, np.diag([-lam, -1.0 / lam]))
        ok_negative = ok_negative and linear_blowup_rotation(A) == 0.5
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.02, math.pi - 0.02)
        R = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        A = conjugate(rng, rng.uniform(0.5, 2.0) * R)
        worst = max(worst, abs(linear_blowup_rotation(A) - theta / TWO_PI))
    ok_rotation = worst <= 1e-9
    ok = report(6, "blow-up rotation trichotomy (0, 1/2, theta/2pi)",
                ok_saddle and ok_negative and ok_rotation,
                f"rotation-case max error = {worst:.2e}")
    assert ok


def test_criterion_07_angle_lemma():
    rng = np.random.default_rng(107)
    worst_gap = 0.0
    in_range = True
    for _ in range(50):
        field, _ = random_generating_field(rng, fix_origin=True)
        iso = GenIsotopy(field, twist_bound_c=0.9)
        rho_nat = isotopy_blowup_rotation(jacobian_path(iso, (0.0, 0.0)))
        rho_alt = isotopy_blowup_rotation(alt_jacobian_path(iso, (0.0, 0.0)))
        worst_gap = max(worst_gap, abs(rho_nat - rho_alt))
        in_range = in_range and -1.0 <= rho_nat <= 1.0
    ok = report(7, "natural and two-phase isotopies share rho in [-1, 1]",
                worst_gap <= 1e-6 and in_range,
                f"max |rho_I - rho_I'| = {worst_gap:.2e}")
    assert ok


def test_criterion_08_example3_escape():
    iso = ex3_isotopy()
    worst_dev = 0.0
    bounds_ok = True
    for u_band, bound in ((0.05, 20.0), (0.025, 40.0)):
        out = rotation_samples(iso, (0.0, 0.0), u_band, u_band / 4.0, n=3,
                               seeds=12)
        assert out
        for z, rho in out:
            worst_dev = max(worst_dev, abs(rho - 1.0 / math.hypot(*z)))
            bounds_ok = bounds_ok and abs(rho) >= bound
    ok = report(8, "annulus escape: |rho_n| >= 20, doubling under halved band",
                bounds_ok and worst_dev <= 1e-9,
                f"closed-form deviation = {worst_dev:.2e}")
    assert ok


def test_criterion_09_sum_rules():
    s7 = boundary_rotation_number(ex7_lift, 0.0)
    n7 = boundary_rotation_number(ex7_lift, 1.0)
    s4 = boundary_rotation_number(ex4_lift, 0.0)
    n4 = boundary_rotation_number(ex4_lift, 1.0)
    ok = report(9, "boundary rotation numbers: shear sums to 1, 3-shear to 3",
                (s7, n7) == (0.0, 1.0) and (s4, n4) == (0.0, 3.0),
                f"ex7: {s7}+{n7}, ex4: {s4}+{n4}")
    assert ok


def test_criterion_10_example5_critical_set():
    field = Ex5Field()
    iso = GenIsotopy(field, twist_bound_c=0.11)
    fol = gradient_foliation(field)
    targets = [(0.0, 0.5), (0.0, 1.0 / 3.0), (0.0, 0.25)]

    pts = find_critical_points(iso, (-0.6, 0.6, 0.05, 0.95), 400)
    located = all(
        any(math.hypot(p.location[0] - tx, p.location[1] - ty) <= 1e-6
            for p in pts) for tx, ty in targets)
    kinds = [classify_singularity(fol, z, 0.03).kind for z in targets]
    saddles = all(k == "Saddle" for k in kinds)
    north = classify_singularity(ex5_north_model_field(), (0.0, 0.0), 0.1).kind
    sink = north == "Sink"
    lef = lefschetz_index(lambda z: gf_apply(iso, 1.0, z), (0.0, 0.5), 0.02)
    lef_ok = lef == -1
    ok = report(
        10, "example-5 critical set: located, saddles, sink at N,"
            " Lefschetz -1 at (0, 1/2)",
        located and saddles and sink and lef_ok,
        f"located={located}, saddles={saddles}, N={north},"
        f" lefschetz={lef} (expected -1)")
    # The Lefschetz clause cannot hold for the published construction: the
    # second displayed partial is strictly positive off the critical set,
    # which pins the displacement field to the open right half-plane on any
    # small circle around (0, 1/2), forcing degree 0 at every radius. The
    # remaining clauses are expected to pass; the assertion stays faithful
    # to the stated criterion. See the decisions ledger.
    assert ok


def test_criterion_11_linking_arithmetic():
    pairs = []
    ident = identity_isotopy()
    sh = shear_isotopy()
    rng = np.random.default_rng(111)
    while len(pairs) < 8:
        z0 = tuple(map(float, rng.uniform(-1.0, 1.0, size=2)))
        z1 = tuple(map(float, rng.uniform(-1.0, 1.0, size=2)))
        if math.hypot(z0[0] - z1[0], z0[1] - z1[1]) < 0.2:
            continue
        pairs.append((ident, z0, z1))
    for k in (1.0, 2.0, -1.5):
        z0 = (0.3 * k, -0.1 * k)
        pairs.append((rotation_isotopy(z0, 1.0), z0, (z0[0] + 1.0, z0[1])))
    shear_pairs = [((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (-2.0, 0.0)),
                   ((1.0, 0.0), (3.0, 0.0)), ((-1.0, 0.0), (1.5, 0.0)),
                   ((0.5, 0.0), (2.5, 0.0))]
    for z0, z1 in shear_pairs:
        pairs.append((sh, z0, z1))
    genshear = genfunc_isotopy(GenIsotopy(ExprField("y^2/2"),
                                          twist_bound_c=0.1))
    for z0, z1 in [((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (-1.0, 0.0)),
                   ((2.0, 0.0), (0.5, 0.0)), ((-0.5, 0.0), (0.5, 0.0))]:
        pairs.append((genshear, z0, z1))

    assert len(pairs) >= 20
    shift_ok = True
    for iso, z0, z1 in pairs[:20]:
        base = linking_number(iso, z0, z1)
        lifted = linking_number(with_full_turns(iso, 1, z0), z0, z1)
        shift_ok = shift_ok and (lifted == base + 1)
    shear_zero = all(linking_number(sh, z0, z1) == 0
                     for z0, z1 in shear_pairs)
    ok = report(11, "linking shifts by +1 under a full turn; shear pairs"
                    " give 0", shift_ok and shear_zero)
    assert ok


def test_criterion_12_twist_hypothesis():
    shear = AnnulusLiftMap(lift=lambda x, y: (x + y, y), a=1.0, b=1.0)
    rep = twist_check_and_search(shear, grid=32)
    residuals = []
    for x, y in rep.fixed_points:
        w = shear.lift(x, y)
        residuals.append(math.hypot(w[0] - x, w[1] - y))
    shear_ok = rep.twist_holds and rep.fixed_points \
        and all(abs(y) <= 1e-9 for _, y in rep.fixed_points) \
        and all(r <= 1e-9 for r in residuals)
    rigid = AnnulusLiftMap(lift=lambda x, y: (x + 0.3, y), a=1.0, b=1.0)
    rigid_ok = not twist_check_and_search(rigid, grid=32).twist_holds
    ok = report(12, "twist hypothesis: shear passes with y = 0 line, rigid"
                    " rotation fails", bool(shear_ok and rigid_ok))
    assert ok


def test_criterion_13_cli_determinism(capsys):
    all_ok = True
    for name in fixture_names():
        code1 = cli_main(["fixture", name, "--claims"])
        out1 = capsys.readouterr().out
        code2 = cli_main(["fixture", name, "--claims"])
        out2 = capsys.readouterr().out
        good = code1 == 0 and code2 == 0 and out1 == out2
        if not good:
            all_ok = False
        json.loads(out1)  # stdout must be valid JSON
    ok = report(13, "fixture --claims exits 0 twice with byte-identical JSON",
                all_ok)
    assert ok
