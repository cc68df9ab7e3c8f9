import math

import numpy as np
import pytest

from torsionlab.errors import (
    NonIntegralWinding, NotALift, NotClosed, OriginNotInCover,
    RefinementExhausted, ZeroVector,
)
from torsionlab.geom import (
    CoverPoint, angle_sweep, build_winding_path, circle_rotation_number,
    cover_lift, cover_project, winding_number,
)

TWO_PI = 2 * math.pi


def circle_vectors(n, turns=1.0, radius=1.0):
    return [(radius * math.cos(TWO_PI * turns * k / n),
             radius * math.sin(TWO_PI * turns * k / n)) for k in range(n)]


def test_constant_path_lift_is_flat():
    p = build_winding_path([(1.0, 0.0)] * 100, closed=True)
    assert np.all(p.lift == 0.0)
    assert winding_number(p) == 0


def test_unit_circle_total_lift():
    p = build_winding_path(circle_vectors(64), closed=True)
    assert p.lift[-1] - p.lift[0] == pytest.approx(TWO_PI, abs=1e-12)
    assert winding_number(p) == 1


def test_wild_path_without_refiner_errors():
    with pytest.raises(RefinementExhausted):
        build_winding_path([(1.0, 0.0), (-1.0, 0.1), (1.0, 0.0)], closed=False)
    with pytest.raises(ZeroVector):
        build_winding_path([(1.0, 0.0), (0.0, 0.0)], closed=False)


def test_refiner_recovers_fast_winding():
    # three turns sampled with only 8 base points aliases without refinement
    turns = 3.0
    fn = lambda s: (math.cos(TWO_PI * turns * s), math.sin(TWO_PI * turns * s))
    p = build_winding_path([fn(k / 8) for k in range(8)], closed=True,
                           refiner=fn)
    assert winding_number(p) == 3


def test_displacement_winding_matches_determinant_sign_oracle():
    # f = 2*id on the unit circle: winding of f(g(t)) - g(t)
    L = np.array([[2.0, 0.0], [0.0, 2.0]])
    oracle = int(np.sign(np.linalg.det(L - np.eye(2))))
    pts = circle_vectors(256)
    vecs = [tuple((L @ p) - p) for p in pts]
    path = build_winding_path(vecs, closed=True)
    assert winding_number(path) == oracle == 1


def test_winding_invariances():
    rng = np.random.default_rng(3)
    base = circle_vectors(128, turns=2.0)
    p = build_winding_path(base, closed=True)
    w = winding_number(p)
    assert w == 2
    # cyclic rotation of samples
    k = int(rng.integers(1, 127))
    rolled = base[k:] + base[:k]
    assert winding_number(build_winding_path(rolled, closed=True)) == w
    # uniform positive scaling
    scaled = [(5.5 * a, 5.5 * b) for a, b in base]
    assert winding_number(build_winding_path(scaled, closed=True)) == w
    # reversal negates
    assert winding_number(build_winding_path(base[::-1], closed=True)) == -w


def test_non_integral_winding_detected():
    p = build_winding_path(circle_vectors(64), closed=True)
    p.lift = p.lift.copy()
    p.lift[-1] += 0.3 * TWO_PI  # corrupt the accumulated lift
    with pytest.raises(NonIntegralWinding):
        winding_number(p)
    q = build_winding_path(circle_vectors(64, turns=0.25), closed=False)
    with pytest.raises(NotClosed):
        winding_number(q)


def test_angle_sweep_detects_aliasing():
    turns = 37.0
    fn = lambda s: (math.cos(TWO_PI * turns * s), math.sin(TWO_PI * turns * s))
    assert angle_sweep(fn) / TWO_PI == pytest.approx(37.0, abs=1e-9)


def test_rigid_rotation_number():
    F = lambda x: x + 0.35
    assert circle_rotation_number(F, 1) == pytest.approx(0.35, abs=1e-15)
    assert circle_rotation_number(F, 1000) == pytest.approx(0.35, abs=1e-12)
    assert circle_rotation_number(lambda x: x, 50) == 0.0


def test_rotation_number_cauchy_self_consistency():
    F = lambda x: x + 0.3 + 0.1 * math.sin(TWO_PI * x)
    a = circle_rotation_number(F, 10**5)
    b = circle_rotation_number(F, 2 * 10**5)
    assert abs(a - b) < 5e-3


def test_rotation_number_integer_shift_exact():
    F = lambda x: x + 0.3 + 0.05 * math.sin(TWO_PI * x)
    G = lambda x: F(x) + 2.0
    n = 500
    assert circle_rotation_number(G, n) == pytest.approx(
        circle_rotation_number(F, n) + 2.0, abs=1e-12)


def test_not_a_lift_detected():
    with pytest.raises(NotALift):
        circle_rotation_number(lambda x: 2 * x, 10)


def test_cover_projection_examples():
    assert cover_project(CoverPoint(0.0, -1.0)) == pytest.approx((1.0, 0.0))
    assert cover_project(CoverPoint(1.0, -1.0)) == pytest.approx((1.0, 0.0))
    p = cover_lift((0.0, 2.0), theta_hint=0.0)
    assert p.theta == pytest.approx(0.25)
    assert p.y == pytest.approx(-2.0)


def test_cover_round_trip_and_hints():
    rng = np.random.default_rng(11)
    for _ in range(200):
        z = rng.uniform(-3, 3, size=2)
        if np.hypot(*z) < 1e-6:
            continue
        hint = rng.uniform(-5, 5)
        c = cover_lift(z, hint)
        assert abs(c.theta - hint) <= 0.5 + 1e-12
        zx, zy = cover_project(c)
        assert (zx, zy) == pytest.approx(tuple(z), abs=1e-12)
    with pytest.raises(OriginNotInCover):
        cover_lift((0.0, 0.0))


def test_cover_lift_along_loop_gains_winding():
    # chained hints around a loop of winding 3 increase theta by exactly 3
    n = 400
    theta = 0.0
    pts = [( math.cos(TWO_PI * 3 * k / n), math.sin(TWO_PI * 3 * k / n))
           for k in range(n + 1)]
    first = cover_lift(pts[0], 0.0)
    theta = first.theta
    for z in pts[1:]:
        theta = cover_lift(z, theta).theta
    assert theta - first.theta == pytest.approx(3.0, abs=1e-12)


# --- the array lift against the sample-by-sample lift it replaced -------------

def reference_build_winding_path(vectors, closed=False, refiner=None,
                                 params=None):
    """build_winding_path walking one segment at a time, recursing on each."""
    from torsionlab.geom import MAX_ANGLE_STEP, WindingPath

    def angle(v):
        return math.atan2(v[1], v[0])

    def wrap_pi(a):
        a = math.fmod(a, TWO_PI)
        if a <= -math.pi:
            a += TWO_PI
        elif a > math.pi:
            a -= TWO_PI
        return a

    def refine(va, pa, vb, pb, depth):
        step = wrap_pi(angle(vb) - angle(va))
        if abs(step) < MAX_ANGLE_STEP:
            out_v.append(vb)
            out_p.append(pb)
            out_lift.append(out_lift[-1] + step)
            return
        if refiner is None or depth <= 0:
            raise RefinementExhausted(
                f"angle step {abs(step):.3f} rad at parameter interval "
                f"[{pa:.6g}, {pb:.6g}] (depth exhausted)")
        pm = 0.5 * (pa + pb)
        vm = tuple(map(float, refiner(pm)))
        if math.hypot(vm[0], vm[1]) <= 0.0:
            raise ZeroVector(pm)
        refine(va, pa, vm, pm, depth - 1)
        refine(vm, pm, vb, pb, depth - 1)

    vecs = [tuple(map(float, v)) for v in vectors]
    n = len(vecs)
    if n < 1:
        raise ValueError("empty vector path")
    for i, v in enumerate(vecs):
        if math.hypot(v[0], v[1]) <= 0.0:
            raise ZeroVector(i)
    if params is None:
        ps = [i / n for i in range(n)] if closed else \
            [i / max(n - 1, 1) for i in range(n)]
    else:
        ps = [float(p) for p in params]
        if len(ps) != n:
            raise ValueError("params length mismatch")
    if closed:
        vecs = vecs + [vecs[0]]
        if params is None:
            ps = ps + [1.0]
        else:
            step = (ps[-1] - ps[0]) / (n - 1) if n > 1 else 1.0
            ps = ps + [ps[-1] + step]
    out_v, out_p, out_lift = [vecs[0]], [ps[0]], [angle(vecs[0])]
    for k in range(len(vecs) - 1):
        refine(vecs[k], ps[k], vecs[k + 1], ps[k + 1], 40)
    return WindingPath(samples=np.asarray(out_v, dtype=float),
                       params=np.asarray(out_p, dtype=float),
                       lift=np.asarray(out_lift, dtype=float), closed=closed)


def path_outcome(build, *args, **kwargs):
    """float.hex of samples, params and lift, or the error's type and text."""
    try:
        p = build(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return (p.samples.shape, p.closed,
            [[float.hex(float(v)) for v in a.ravel()]
             for a in (p.samples, p.params, p.lift)])


SPECIAL_VECTORS = [(0.0, 0.0), (-0.0, 0.0), (math.nan, 1.0), (1.0, math.nan),
                   (math.inf, 0.0), (-math.inf, 1.0), (math.inf, math.inf),
                   (0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0),
                   (-1.0, -0.0), (1e-300, -1e-300)]


def random_path_case(rng):
    """Vectors of a fast-winding path with special vectors mixed in, and
    a refiner that is NaN or zero on some parameter intervals."""
    turns = rng.uniform(-6.0, 6.0)
    wobble = rng.uniform(0.0, 3.0)
    nan_at = rng.uniform(0.0, 1.0) if rng.random() < 0.2 else None
    zero_at = rng.uniform(0.0, 1.0) if rng.random() < 0.2 else None

    def f(s):
        if nan_at is not None and nan_at <= s <= nan_at + 0.05:
            return (math.nan, 0.5)
        if zero_at is not None and zero_at <= s <= zero_at + 0.05:
            return (0.0, 0.0)
        a = TWO_PI * (turns * s + wobble * math.sin(7.0 * s))
        r = 1.0 + 0.5 * math.cos(3.0 * s)
        return (r * math.cos(a), r * math.sin(a))

    n = int(rng.integers(1, 40))
    closed = bool(rng.random() < 0.5)
    params = None
    if rng.random() < 0.4:
        params = np.sort(rng.uniform(0.0, 1.0, n)).tolist()
        ps = params
    else:
        ps = [i / n for i in range(n)] if closed else \
            [i / max(n - 1, 1) for i in range(n)]
    vecs = [f(p) for p in ps]
    for k in range(n):
        if rng.random() < 0.03:
            vecs[k] = SPECIAL_VECTORS[int(rng.integers(len(SPECIAL_VECTORS)))]
    refiner = f if rng.random() < 0.8 else None
    return vecs, closed, refiner, params


def test_winding_path_equals_segment_by_segment_reference():
    rng = np.random.default_rng(20)
    errors = set()
    for _ in range(600):
        vecs, closed, refiner, params = random_path_case(rng)
        want = path_outcome(reference_build_winding_path, vecs, closed,
                            refiner, params)
        assert path_outcome(build_winding_path, vecs, closed, refiner,
                            params) == want
        if isinstance(want[0], type):
            errors.add(want[0])
    assert errors == {RefinementExhausted, ZeroVector}
    # exact steps of +-pi/2 and +-pi, NaN and inf vectors, a zero vector,
    # a wide step without a refiner, explicit params and the empty path
    quarter = lambda s: (math.cos(0.5 * math.pi * s), math.sin(0.5 * math.pi * s))
    cases = [
        ([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)], True, quarter, None),
        ([(1.0, 0.0), (0.0, 1.0)], False, None, None),
        ([(1.0, 0.0), (0.0, -1.0)], False, None, None),
        ([(1.0, 0.0), (-1.0, 0.0)], False, None, None),
        ([(1.0, 0.0), (-1.0, -0.0)], False, None, None),
        ([(1.0, 0.0), (-1.0, 0.0)], False, quarter, None),
        ([(1.0, 0.0), (math.nan, 0.0), (0.0, 1.0)], False, quarter, None),
        ([(1.0, 0.0), (math.nan, 0.0)], False, None, None),
        ([(math.inf, 1.0), (math.inf, math.inf), (1.0, -math.inf)], True,
         None, None),
        ([(1.0, 0.0), (0.0, 0.0)], False, quarter, None),
        ([(1.0, 0.0), (0.5, 0.1), (-1.0, 0.1)], False, None, [0.0, 0.3, 0.7]),
        ([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], True, quarter, [0.1, 0.2, 0.4]),
        ([(1.0, 0.0)], True, None, [0.5]),
        ([(2.0, 1.0)], False, None, None),
        ([(1.0, 0.0), (1.0, 1.0)], False, None, [0.0]),
        ([], False, None, None),
    ]
    for vecs, closed, refiner, params in cases:
        assert path_outcome(build_winding_path, vecs, closed, refiner,
                            params) == \
            path_outcome(reference_build_winding_path, vecs, closed,
                         refiner, params), (vecs, closed, params)


def test_angle_sweep_keeps_shared_samples():
    # a smooth path settles at the first doubling: 65 + 64 calls, the odd
    # samples only at the second level, where recomputing made 65 + 129
    calls = []

    def fn(s):
        calls.append(s)
        return (math.cos(TWO_PI * 0.7 * s), math.sin(TWO_PI * 0.7 * s))

    assert angle_sweep(fn, n0=64) / TWO_PI == pytest.approx(0.7, abs=1e-12)
    assert len(calls) == 129
    assert calls[65:] == [i / 128 for i in range(1, 128, 2)]
