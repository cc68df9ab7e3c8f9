import functools
import math

import numpy as np
import pytest

from torsionlab import rotation as rotation_mod
from torsionlab.errors import (
    IdentityCheckFailed, InputError, NotALift, NotOrientationPreserving,
)
from torsionlab.expr import ExprField
from torsionlab.genfunc import GenIsotopy, alt_jacobian_path, jacobian_path
from torsionlab.geom import (
    angle_sweep, build_winding_path, circle_rotation_number,
)
from torsionlab.indices import (
    PlanarIsotopy, expr_isotopy, identity_isotopy, rotation_isotopy,
    trajectory_turns,
)
from torsionlab.rotation import (
    CASE_COMPLEX, CASE_NEGATIVE_PAIR, CASE_OTHER, CASE_POSITIVE_SADDLE,
    NOT_TORSION_LOW, TORSION_LOW, AnnulusLiftMap, _default_seeds, compose_turn,
    isotopy_blowup_rotation, linear_blowup_rotation,
    local_rotation_set_estimate, rotation_samples,
    torsion_low_classify, twist_check_and_search,
)

TWO_PI = 2 * math.pi


def rot(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def rot_path(turns):
    return lambda t: rot(TWO_PI * turns * t)


def random_conjugator(rng, min_det=0.2):
    while True:
        P = rng.uniform(-2, 2, size=(2, 2))
        d = np.linalg.det(P)
        if abs(d) < min_det:
            continue
        if d < 0:
            P[:, 0] = -P[:, 0]
        return P


def expm2(L):
    """Closed-form exponential of a 2x2 matrix."""
    L = np.asarray(L, dtype=float)
    a = 0.5 * np.trace(L)
    B = L - a * np.eye(2)
    mu2 = -np.linalg.det(B)
    mu = np.sqrt(complex(mu2))
    if abs(mu) < 1e-12:
        core = np.eye(2) + B
    else:
        core = math.cosh(mu.real) * np.eye(2) + (np.sinh(mu) / mu).real * B \
            if mu.imag == 0 else \
            (np.cosh(mu) * np.eye(2) + (np.sinh(mu) / mu) * B).real
    return math.exp(a) * core


# --- the blow-up rotation number against the removed projective lift --------

def reference_lift(A, anchor_turns, n_grid=512):
    """The projective lift that anchor rounding replaced: the circle map
    of A on 513 base angles in [0, 1], bisected below pi/2 steps and
    pinned by h(0) = anchor_turns; returns (base angles, images) in turns.
    """
    A = np.asarray(A, dtype=float)

    def vec(s):
        a = TWO_PI * s
        w = A @ (math.cos(a), math.sin(a))
        return (float(w[0]), float(w[1]))

    xs = [i / n_grid for i in range(n_grid + 1)]
    path = build_winding_path([vec(x) for x in xs], closed=False,
                              refiner=vec, params=xs)
    base = path.lift / TWO_PI
    return np.asarray(path.params), base + (anchor_turns - base[0])


def reference_blowup_rotation(dpath):
    """The representative search that anchor rounding replaced: the class
    plus the k inside the reference lift's displacement range, with 0.02
    margins and the range midpoint breaking a tie.
    """
    D1 = np.asarray(dpath(1.0), dtype=float)
    anchor = angle_sweep(lambda t: tuple(np.asarray(dpath(t))[:, 0].tolist()),
                         n0=256) / TWO_PI
    xs, hs = reference_lift(D1, anchor)
    disp = hs - xs
    lo, hi = float(disp.min()), float(disp.max())
    cls = linear_blowup_rotation(D1)
    k_lo = math.ceil(lo - cls - 0.02)
    k_hi = math.floor(hi - cls + 0.02)
    assert k_lo <= k_hi, f"no representative of {cls} in [{lo}, {hi}]"
    if k_hi > k_lo:
        k_lo = round((lo + hi) / 2.0 - cls)
    return cls + k_lo


def shear_path(s, lower):
    if lower:
        return lambda t: np.array([[1.0, 0.0], [s * t, 1.0]])
    return lambda t: np.array([[1.0, s * t], [0.0, 1.0]])


def traceless_exp_path(L):
    """t -> exp(tL) for traceless L: cos/cosh(mu t) I + sin/sinh(mu t)/mu L
    with mu^2 = -det L (a cheaper path than expm2 with the same draws)."""
    (a, b), (c, _) = L
    mu2 = a * a + b * c
    mu = math.sqrt(abs(mu2))

    def dpath(t):
        if mu == 0.0:
            p, q = 1.0, t
        elif mu2 < 0.0:
            p, q = math.cos(mu * t), math.sin(mu * t) / mu
        else:
            p, q = math.cosh(mu * t), math.sinh(mu * t) / mu
        return np.array([[p + q * a, q * b], [q * c, p - q * a]])

    return dpath


def reference_corpus():
    """(id, dpath): the trichotomy draws, half and full closing turns on
    the first 60 of them, rigid rotations bare and with -2 closing turns,
    and shears up to 1e3, bare and with a closing half turn."""
    for i, L in enumerate(trichotomy_draws()):
        dpath = traceless_exp_path(L)
        yield f"draw{i}", dpath
        if i < 60:
            yield f"draw{i}+0.5", compose_turn(dpath, 0.5)
            yield f"draw{i}+1", compose_turn(dpath, 1.0)
    for turns in np.linspace(-3.3, 3.3, 23):
        yield f"rot{turns:.2f}", rot_path(turns)
        yield f"rot{turns:.2f}-2", compose_turn(rot_path(turns), -2.0)
    for s in (1.0, -1.0, 10.0, -10.0, 1e3, -1e3):
        for lower in (False, True):
            yield f"shear{s:g}{'L' if lower else 'U'}", shear_path(s, lower)
            yield (f"shear{s:g}{'L' if lower else 'U'}+0.5",
                   compose_turn(shear_path(s, lower), 0.5))


@pytest.mark.slow
def test_blowup_rotation_equals_reference_lift():
    n = 0
    for name, dpath in reference_corpus():
        dpath = functools.lru_cache(maxsize=None)(dpath)  # one sweep's values
        got = isotopy_blowup_rotation(dpath)
        assert got.hex() == reference_blowup_rotation(dpath).hex(), name
        n += 1
    assert n == 500 + 120 + 46 + 24


def test_linear_blowup_rotation_examples():
    assert linear_blowup_rotation(rot(TWO_PI * 0.3)) == pytest.approx(0.3)
    assert linear_blowup_rotation(np.diag([2.0, 0.5])) == 0.0
    assert linear_blowup_rotation(np.diag([-3.0, -1.0 / 3.0])) == 0.5
    with pytest.raises(NotOrientationPreserving):
        linear_blowup_rotation(np.diag([2.0, -0.5]))


def test_linear_blowup_random_rotations_exact():
    rng = np.random.default_rng(31)
    for _ in range(100):
        alpha = rng.uniform(0.01, 0.99)
        got = linear_blowup_rotation(rot(TWO_PI * alpha))
        assert got == pytest.approx(alpha, abs=1e-12)


def test_linear_blowup_conjugation_invariance():
    rng = np.random.default_rng(32)
    for _ in range(50):
        alpha = rng.uniform(0.05, 0.95)
        P = random_conjugator(rng)
        A = P @ rot(TWO_PI * alpha) @ np.linalg.inv(P)
        assert linear_blowup_rotation(A) == pytest.approx(alpha, abs=1e-9)


def test_linear_blowup_confirmed_by_circle_iteration():
    rng = np.random.default_rng(33)
    for _ in range(5):
        alpha = rng.uniform(0.1, 0.9)
        P = random_conjugator(rng)
        A = P @ rot(TWO_PI * alpha) @ np.linalg.inv(P)
        xs, hs = reference_lift(A, math.atan2(A[1, 0], A[0, 0]) / TWO_PI)
        F = lambda x: math.floor(x) + np.interp(x - math.floor(x), xs, hs)
        got = circle_rotation_number(F, 2000) % 1.0
        want = linear_blowup_rotation(A)
        assert min(abs(got - want), 1 - abs(got - want)) < 5e-3


def test_isotopy_blowup_rigid_paths():
    assert isotopy_blowup_rotation(rot_path(0.3)) == pytest.approx(0.3, abs=1e-9)
    assert isotopy_blowup_rotation(rot_path(1.3)) == pytest.approx(1.3, abs=1e-9)
    assert isotopy_blowup_rotation(rot_path(-0.7)) == pytest.approx(-0.7, abs=1e-9)


def test_isotopy_blowup_identity_path():
    assert isotopy_blowup_rotation(lambda t: np.eye(2)) == 0.0


def test_isotopy_blowup_turn_composition_shifts_by_one():
    for path in (rot_path(0.3), rot_path(-0.2)):
        base = isotopy_blowup_rotation(path)
        shifted = isotopy_blowup_rotation(compose_turn(path, 1.0))
        assert shifted == pytest.approx(base + 1.0, abs=1e-9)


def test_generating_isotopy_agrees_with_two_phase_isotopy():
    iso = GenIsotopy(ExprField("(x^2+y^2)/2"), twist_bound_c=0.0)
    rho_nat = isotopy_blowup_rotation(jacobian_path(iso, (0.0, 0.0)))
    rho_alt = isotopy_blowup_rotation(alt_jacobian_path(iso, (0.0, 0.0)))
    assert rho_nat == pytest.approx(rho_alt, abs=1e-6)
    assert -1.0 < rho_nat < 1.0
    # eigenvalues e^{+-i pi/3} -> class 1/6, tracked lift selects -1/6
    assert rho_nat == pytest.approx(-1.0 / 6.0, abs=1e-9)


def test_rotation_samples_rigid_rotation():
    iso = rotation_isotopy((0.0, 0.0), 0.2)
    out = rotation_samples(iso, (0.0, 0.0), U_radius=1.0, V_radius=0.25, n=4,
                           seeds=12)
    assert len(out) == 12
    for _, rho in out:
        assert rho == pytest.approx(0.2, abs=1e-9)


def test_rotation_samples_identity_all_zero():
    out = rotation_samples(identity_isotopy(), (0.0, 0.0), 1.0, 0.25, 3,
                           seeds=8)
    assert len(out) == 8
    assert all(rho == pytest.approx(0.0, abs=1e-12) for _, rho in out)


def ex3_isotopy():
    """Annulus-escape model: rotate by t/|z| turns (lift x - t/y)."""

    def ev(t, z):
        r = math.hypot(z[0], z[1])
        a = TWO_PI * t / r
        c, s = math.cos(a), math.sin(a)
        return (c * z[0] - s * z[1], s * z[0] + c * z[1])

    from torsionlab.indices import PlanarIsotopy
    return PlanarIsotopy(eval=ev, fixed_point_hint=(0.0, 0.0),
                         provenance="annulus escape")


def test_rotation_samples_annulus_escape_closed_form():
    iso = ex3_isotopy()
    out = rotation_samples(iso, (0.0, 0.0), U_radius=0.05, V_radius=0.0125,
                           n=3, seeds=10)
    assert out
    for (x, y), rho in out:
        r = math.hypot(x, y)
        assert rho == pytest.approx(1.0 / r, abs=1e-9)
        assert abs(rho) >= 20.0


def test_rotation_set_estimate_rigid_rotation():
    iso = rotation_isotopy((0.0, 0.0), 0.2)
    est = local_rotation_set_estimate(iso, (0.0, 0.0), r0=0.5, levels=2,
                                      n_max=8, divergence_threshold=10.0)
    assert est.lo == pytest.approx(0.2, abs=1e-9)
    assert est.hi == pytest.approx(0.2, abs=1e-9)
    assert not est.lo_unbounded and not est.hi_unbounded


def test_rotation_set_estimate_escape_flags_divergence():
    iso = ex3_isotopy()
    est = local_rotation_set_estimate(iso, (0.0, 0.0), r0=0.05, levels=2,
                                      n_max=4, divergence_threshold=10.0)
    assert est.hi_unbounded
    assert est.hi >= 20.0
    deep = [rho for (_, rho, _) in est.samples]
    assert all(abs(r) >= 10.0 for r in deep)


def test_rotation_set_estimate_empty_windows():
    # a pure contraction empties every window for long orbits
    from torsionlab.indices import PlanarIsotopy
    contraction = PlanarIsotopy(
        eval=lambda t, z: ((1 - 0.9 * t) * z[0], (1 - 0.9 * t) * z[1]))
    est = local_rotation_set_estimate(contraction, (0.0, 0.0), r0=1.0,
                                      levels=1, n_max=8,
                                      divergence_threshold=10.0)
    assert est.samples == []
    assert est.lo is None and est.hi is None
    assert "no orbit" in est.diagnostics


# --- one orbit per seed per level against the per-n schedule it replaced ------

def reference_rotation_samples(iso, center, U_radius, V_radius, n, seeds=24,
                               t_grid=256, seed_points=None):
    """rotation_samples running every orbit from its start for this n."""
    if not 0.0 < V_radius < U_radius:
        raise InputError("need 0 < V_radius < U_radius")
    if n < 1:
        raise InputError("n must be >= 1")
    cx, cy = float(center[0]), float(center[1])
    pts = list(seed_points) if seed_points is not None else \
        _default_seeds(center, V_radius, U_radius, seeds)

    def orbit_sample(z0):
        r0 = math.hypot(z0[0] - cx, z0[1] - cy)
        if not V_radius < r0 < U_radius:
            return None
        z = z0
        total = 0.0
        for i in range(n):
            total += trajectory_turns(iso, z, (cx, cy), n0=t_grid)
            z = iso.eval(1.0, z)
            r = math.hypot(z[0] - cx, z[1] - cy)
            if r >= U_radius:
                return None
            if i == n - 1 and r <= V_radius:
                return None
        return (z0, total / n)

    return [r for r in map(orbit_sample, pts) if r is not None]


def reference_estimate(iso, center, r0, levels, n_max, threshold,
                       seeds=24):
    """local_rotation_set_estimate with one reference call per (level, n)."""
    schedule = [2 ** j for j in range(n_max.bit_length())
                if 2 ** j < n_max] + [n_max]
    samples, deep = [], []
    for k in range(levels):
        for n in schedule:
            for start, rho in reference_rotation_samples(
                    iso, center, r0 / 2.0 ** k, r0 / 2.0 ** (k + 2), n,
                    seeds=seeds, t_grid=256 * 2 ** k):
                samples.append((n, rho, start))
                if k == levels - 1 and n >= n_max / 4:
                    deep.append(rho)
    deep = deep or [rho for _, rho, _ in samples]
    lo, hi = (min(deep), max(deep)) if deep else (None, None)
    return (lo, hi, lo is not None and lo < -threshold,
            hi is not None and hi > threshold, samples,
            min((n for n, _, _ in samples), default=0))


def hexed(samples):
    return [(n, float.hex(rho), tuple(map(float.hex, start)))
            for n, rho, start in samples]


def halving_isotopy():
    """f_t = (1 - t/2) id, so f = id/2."""
    return PlanarIsotopy(eval=lambda t, z: ((1 - 0.5 * t) * z[0],
                                            (1 - 0.5 * t) * z[1]))


def saddle_isotopy():
    """t -> exp(tL) for a hyperbolic L: seeds escape U or fall inside V."""
    mu = math.sqrt(0.8 ** 2 + 0.5 * 0.3)

    def ev(t, z):
        C, S = math.cosh(mu * t), math.sinh(mu * t) / mu
        return (C * z[0] + S * (0.8 * z[0] + 0.5 * z[1]),
                C * z[1] + S * (0.3 * z[0] - 0.8 * z[1]))

    return PlanarIsotopy(eval=ev, fixed_point_hint=(0.0, 0.0))


def estimate_cases():
    """(name, isotopy, r0, levels, n_max, seeds)."""
    contraction = PlanarIsotopy(
        eval=lambda t, z: ((1 - 0.9 * t) * z[0], (1 - 0.9 * t) * z[1]))
    yield "ex3 n_max 4", ex3_isotopy(), 0.05, 2, 4, 12
    yield "ex3 n_max 16", ex3_isotopy(), 0.05, 1, 16, 6
    yield "J^2 n_max 16", rotation_isotopy((0.0, 0.0), 2.0), 0.5, 2, 16, 3
    yield "J^0.3 3 levels", rotation_isotopy((0.0, 0.0), 0.3), 0.5, 3, 4, 3
    yield "expression", expr_isotopy(
        "cos(2*pi*t*(0.2+x^2+y^2))*x-sin(2*pi*t*(0.2+x^2+y^2))*y",
        "sin(2*pi*t*(0.2+x^2+y^2))*x+cos(2*pi*t*(0.2+x^2+y^2))*y"), \
        0.5, 2, 8, 2
    yield "contraction", contraction, 1.0, 1, 8, 8
    yield "saddle", saddle_isotopy(), 1.0, 2, 8, 12
    yield "lands on V", halving_isotopy(), 1.0, 1, 4, 2


def hexed(samples):
    return [(n, float.hex(rho), tuple(map(float.hex, start)))
            for n, rho, start in samples]


def test_rotation_set_estimate_equals_per_n_reference():
    hexf = lambda v: None if v is None else float.hex(v)
    for name, iso, r0, levels, n_max, seeds in estimate_cases():
        lo, hi, lo_unb, hi_unb, samples, n_min = reference_estimate(
            iso, (0.0, 0.0), r0, levels, n_max, 10.0, seeds)
        est = local_rotation_set_estimate(iso, (0.0, 0.0), r0, levels, n_max,
                                          10.0, seeds=seeds)
        assert hexed(est.samples) == hexed(samples), name
        assert (hexf(est.lo), hexf(est.hi), est.lo_unbounded,
                est.hi_unbounded, est.n_min_used) == \
            (hexf(lo), hexf(hi), lo_unb, hi_unb, n_min), name
    # f = id/2 takes the seed at radius 1/2 exactly onto the V-circle of
    # radius 1/4: only the seed at radius 3/4 gives rho_1
    est = local_rotation_set_estimate(halving_isotopy(), (0.0, 0.0), 1.0, 1,
                                      4, 10.0, seeds=2)
    assert [(n, z) for n, _, z in est.samples] == \
        [(1, _default_seeds((0.0, 0.0), 0.25, 1.0, 2)[1])]
    exact = [(0.5, 0.0), (0.0, 0.75), (2.0, 0.0), (0.25, 0.0)]
    for n in (1, 3):
        for name, iso, r0, _, _, seeds in estimate_cases():
            for pts in (None, exact):
                got = rotation_samples(iso, (0.0, 0.0), r0, r0 / 4, n,
                                       seeds=seeds, seed_points=pts)
                want = reference_rotation_samples(
                    iso, (0.0, 0.0), r0, r0 / 4, n, seeds=seeds,
                    seed_points=pts)
                assert hexed([(n, r, z) for z, r in got]) == \
                    hexed([(n, r, z) for z, r in want]), (name, n)


def test_rotation_set_error_is_the_per_n_reference_error():
    # seed 3 fails at its first step, met at n = 1; seed 0 fails at its
    # third step, met at n = 4.  The per-n loop raises seed 3's error,
    # although one run per seed meets seed 0's first
    o = (0.0, 0.0)
    rot = rotation_isotopy(o, 0.3)
    seeds = _default_seeds(o, 0.125, 0.5, 6)
    third = rot.eval(1.0, rot.eval(1.0, seeds[0]))
    poison = {seeds[3]: "seed 3", third: "seed 0"}

    def ev(t, z):
        if tuple(z) in poison:
            raise ValueError(f"{poison[tuple(z)]} fails at t = {t}")
        return rot.eval(t, z)

    iso = PlanarIsotopy(eval=ev)
    with pytest.raises(ValueError) as want:
        reference_estimate(iso, o, 0.5, 1, 8, 10.0, seeds=6)
    with pytest.raises(ValueError) as got:
        local_rotation_set_estimate(iso, o, 0.5, 1, 8, 10.0, seeds=6)
    assert str(got.value) == str(want.value) == "seed 3 fails at t = 0.0"
    with pytest.raises(ValueError, match="seed 0 fails"):
        rotation_samples(iso, o, 0.5, 0.125, 4, seeds=6)
    # the window checks stay: r0 <= 0 or NaN has no window, n must be >= 1
    for r0 in (0.0, -0.5, math.nan):
        with pytest.raises(InputError) as want:
            reference_estimate(rot, o, r0, 1, 4, 10.0)
        with pytest.raises(InputError) as got:
            local_rotation_set_estimate(rot, o, r0, 1, 4, 10.0)
        assert str(got.value) == str(want.value)
    with pytest.raises(InputError, match="n must be >= 1"):
        rotation_samples(rot, o, 0.5, 0.125, 0)


def test_rotation_set_runs_each_orbit_once(monkeypatch):
    # J^2 keeps every seed: 2 levels x 4 seeds x 16 steps, where one run
    # per scheduled n made 1 + 2 + 4 + 8 + 16 = 31 steps per seed
    calls = []
    real = rotation_mod.trajectory_turns
    monkeypatch.setattr(rotation_mod, "trajectory_turns",
                        lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
    o = (0.0, 0.0)
    est = local_rotation_set_estimate(rotation_isotopy(o, 2.0), o, 0.5, 2,
                                      16, 10.0, seeds=4)
    assert len(est.samples) == 2 * 5 * 4
    assert len(calls) == 2 * 4 * 16


def test_torsion_examples():
    v = torsion_low_classify(rot_path(0.25))
    assert (v.classification, v.case_tag) == (TORSION_LOW, CASE_COMPLEX)
    assert v.rho == pytest.approx(0.25, abs=1e-9)
    assert not v.degenerate

    v = torsion_low_classify(rot_path(1.25))
    assert v.classification == NOT_TORSION_LOW
    assert v.rho == pytest.approx(1.25, abs=1e-9)

    iso = GenIsotopy(ExprField("x^2-y^2"), twist_bound_c=0.0)
    v = torsion_low_classify(jacobian_path(iso, (0.0, 0.0)))
    assert (v.classification, v.case_tag) == (TORSION_LOW, CASE_POSITIVE_SADDLE)
    assert v.rho == 0.0
    assert not v.degenerate


def test_torsion_negative_pair_case():
    P = random_conjugator(np.random.default_rng(4))
    A = P @ np.diag([-2.0, -0.5]) @ np.linalg.inv(P)

    def dpath(t):
        # rotate to -I on [0, 1/2], then blend -I -> A (det stays positive:
        # both endpoints share the eigenbasis with negative eigenvalues)
        if t <= 0.5:
            return rot(TWO_PI * t)
        u = 2 * t - 1
        return (1 - u) * rot(math.pi) + u * A

    v = torsion_low_classify(dpath)
    assert v.case_tag == CASE_NEGATIVE_PAIR
    assert v.rho == pytest.approx(0.5, abs=1e-9)
    assert v.classification == TORSION_LOW


def trichotomy_draws():
    """500 traceless generators L (det expm = 1), rng 41."""
    rng = np.random.default_rng(41)
    for _ in range(500):
        L = rng.uniform(-1.5, 1.5, size=(2, 2))
        L[1, 1] = -L[0, 0]
        yield L


@pytest.mark.slow
def test_torsion_trichotomy_against_eigen_oracle():
    # the verdict carries rho, so one sweep per draw; every 20th draw takes
    # the generic exponential expm2 instead of the closed form
    for i, L in enumerate(trichotomy_draws()):
        ev = np.linalg.eigvals(L)
        dpath = (lambda t: expm2(t * L)) if i % 20 == 0 \
            else traceless_exp_path(L)
        verdict = torsion_low_classify(dpath)
        rho = verdict.rho
        if abs(ev[0].imag) > 1e-8:
            beta = abs(ev[0].imag)
            want = math.copysign(beta / TWO_PI, L[1, 0])
            assert rho == pytest.approx(want, abs=1e-8)
            assert verdict.case_tag == CASE_COMPLEX
        else:
            assert rho == pytest.approx(0.0, abs=1e-8)
            assert verdict.case_tag in (CASE_POSITIVE_SADDLE, CASE_OTHER)


def test_blowup_rotation_needs_identity_at_zero():
    with pytest.raises(IdentityCheckFailed):
        isotopy_blowup_rotation(lambda t: (2.0 + t) * np.eye(2))


def test_annulus_lift_validation():
    AnnulusLiftMap(lift=lambda x, y: (x + y, y), a=1.0, b=1.0)
    with pytest.raises(NotALift):
        AnnulusLiftMap(lift=lambda x, y: (2 * x, y), a=1.0, b=1.0)
    with pytest.raises(ValueError):
        AnnulusLiftMap(lift=lambda x, y: (x, y), a=2.0, b=1.0)


def test_twist_shear_lift():
    m = AnnulusLiftMap(lift=lambda x, y: (x + y, y), a=1.0, b=1.0)
    rep = twist_check_and_search(m, grid=32)
    assert rep.twist_holds
    assert rep.fixed_points
    for x, y in rep.fixed_points:
        assert abs(y) <= 1e-9


def test_twist_rigid_rotation_fails():
    m = AnnulusLiftMap(lift=lambda x, y: (x + 0.3, y), a=1.0, b=1.0)
    rep = twist_check_and_search(m, grid=32)
    assert not rep.twist_holds
    assert rep.fixed_points == []


def test_twist_three_band_middle():
    # x + 3y - 1 recentered at y = 1/3: twist band with fixed line y = 0
    m = AnnulusLiftMap(lift=lambda x, y: (x + 3 * y, y), a=1.0 / 6.0,
                       b=1.0 / 6.0)
    rep = twist_check_and_search(m, grid=24)
    assert rep.twist_holds
    assert rep.fixed_points
    assert all(abs(y) <= 1e-9 for _, y in rep.fixed_points)


def test_twist_isolated_fixed_points():
    # f(x, y) = (x + y + w, y + w), w = 0.05 sin 2 pi x: fixed points are
    # exactly (0, 0) and (1/2, 0); the refined bits are pinned
    def lift(x, y):
        w = 0.05 * math.sin(2 * math.pi * x)
        return (x + y + w, y + w)

    m = AnnulusLiftMap(lift=lift, a=0.5, b=0.55)
    pinned = {
        24: [("0x0.0000000000001p-1022", "0x0.0p+0"),
             ("0x1.0000000000000p-1", "0x1.1cc6fd22a0816p-56")],
        64: [("0x0.0p+0", "0x0.0p+0"),
             ("0x1.0000000000000p-1", "-0x1.0dbc911015280p-56")],
    }
    for grid, want in pinned.items():
        rep = twist_check_and_search(m, grid=grid)
        assert rep.twist_holds
        assert [(float(x).hex(), float(y).hex())
                for x, y in rep.fixed_points] == want
        assert np.allclose(rep.fixed_points, [(0.0, 0.0), (0.5, 0.0)],
                           rtol=0.0, atol=1e-15)
        # the boundary displacements are those of the lift on y = +-a
        for (x, top), (_, bot) in zip(rep.boundary_products["top"],
                                      rep.boundary_products["bottom"]):
            assert top == lift(x, 0.5)[0] - x
            assert bot == lift(x, -0.5)[0] - x
