"""Brouwer-degree indices of maps and isotopies, linking, isotopy preorder.

All degrees route through geom.build_winding_path / winding_number so the
residue-0.1 integrality check is uniform.  Lifts to the annular cover are
realized by tracking trajectories continuously in t, with the deck
transformation pinned by the identity at t = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (
    CenterNotFixed, FixedPointOnCurve, IdentityCheckFailed, InputError,
    NotFixed, RefinementExhausted, TrajectoryCollision, ZeroVector,
)
from .genfunc import GenIsotopy, gf_apply
from .geom import TWO_PI, angle_sweep, build_winding_path, winding_number
from .geom import _SWEEP_MAX_DOUBLINGS, _SWEEP_TOL

LESS = "Less"
GREATER = "Greater"
EQUIVALENT = "Equivalent"
INCOMPARABLE = "Incomparable"


@dataclass
class PlanarIsotopy:
    """Identity isotopy of the plane given by eval(t, z) with eval(0, .) = id."""

    eval: Callable[[float, tuple], tuple]
    fixed_point_hint: Optional[tuple] = None
    provenance: str = "user"

    def __post_init__(self):
        cx, cy = self.fixed_point_hint or (0.0, 0.0)
        for ring, radius in ((16, 0.1), (16, 0.35)):
            for k in range(ring):
                a = TWO_PI * (k + 0.37) / ring
                z = (cx + radius * math.cos(a), cy + radius * math.sin(a))
                w = self.eval(0.0, z)
                if math.hypot(w[0] - z[0], w[1] - z[1]) > 1e-9:
                    raise IdentityCheckFailed(
                        f"eval(0, {z}) = {tuple(w)} is not the identity")

    def time_one(self) -> Callable[[tuple], tuple]:
        return lambda z: self.eval(1.0, z)


# --- constructors ------------------------------------------------------------

def identity_isotopy() -> PlanarIsotopy:
    return PlanarIsotopy(eval=lambda t, z: (float(z[0]), float(z[1])),
                         provenance="identity")


def rotation_isotopy(center, turns: float = 1.0) -> PlanarIsotopy:
    """J-type isotopy: rigid rotation through ``turns`` full turns about center."""
    cx, cy = float(center[0]), float(center[1])

    def ev(t, z):
        a = TWO_PI * turns * t
        c, s = math.cos(a), math.sin(a)
        dx, dy = z[0] - cx, z[1] - cy
        return (cx + c * dx - s * dy, cy + s * dx + c * dy)

    return PlanarIsotopy(eval=ev, fixed_point_hint=(cx, cy),
                         provenance=f"rotation J^{turns}")


def homothety_isotopy() -> PlanarIsotopy:
    """f_t = (1 + t) id: the homothety family with factor 1 + t."""
    return PlanarIsotopy(eval=lambda t, z: ((1.0 + t) * z[0], (1.0 + t) * z[1]),
                         fixed_point_hint=(0.0, 0.0), provenance="homothety")


def shear_isotopy() -> PlanarIsotopy:
    """f_t(x, y) = (x + t y, y); fixes the line y = 0."""
    return PlanarIsotopy(eval=lambda t, z: (z[0] + t * z[1], z[1]),
                         fixed_point_hint=(0.0, 0.0), provenance="shear")


def genfunc_isotopy(iso: GenIsotopy, fixed_point_hint=None) -> PlanarIsotopy:
    return PlanarIsotopy(eval=lambda t, z: gf_apply(iso, t, z),
                         fixed_point_hint=fixed_point_hint,
                         provenance="genfunc natural")


def expr_isotopy(x_expr, y_expr) -> PlanarIsotopy:
    """Isotopy from a user expression pair in t, x, y (texts or trees)."""
    from .expr import eval_value, parse_expr

    ex, ey = (parse_expr(e, variables=("t", "x", "y")) if isinstance(e, str)
              else e for e in (x_expr, y_expr))

    def ev(t, z):
        env = {"t": t, "x": z[0], "y": z[1]}
        return (eval_value(ex, env), eval_value(ey, env))

    return PlanarIsotopy(eval=ev, provenance="user expression")


def concat_isotopies(first: PlanarIsotopy, second: PlanarIsotopy) -> PlanarIsotopy:
    """Run ``first`` on [0, 1/2], then ``second`` composed after first's end."""

    def ev(t, z):
        if t <= 0.5:
            return first.eval(2.0 * t, z)
        return second.eval(2.0 * t - 1.0, first.eval(1.0, z))

    return PlanarIsotopy(eval=ev, fixed_point_hint=first.fixed_point_hint,
                         provenance=f"({second.provenance})o({first.provenance})")


def with_full_turns(iso: PlanarIsotopy, k: int, center) -> PlanarIsotopy:
    """J^k composed after the isotopy (k extra full turns about center)."""
    return concat_isotopies(iso, rotation_isotopy(center, turns=float(k)))


# --- trajectory tracking ------------------------------------------------------

def trajectory_turns(iso: PlanarIsotopy, z, center, n0: int = 64) -> float:
    """Continuous angular displacement (turns) of t -> eval(t, z) about center."""
    cx, cy = float(center[0]), float(center[1])

    def vec(t):
        w = iso.eval(t, z)
        v = (w[0] - cx, w[1] - cy)
        if math.hypot(v[0], v[1]) <= 0.0:
            raise ZeroVector(f"trajectory of {z} passes through center at t={t}")
        return v

    return angle_sweep(vec, n0=n0) / TWO_PI


def _circle_turns(iso: PlanarIsotopy, center, r: float, m: int) -> tuple:
    """Turns F(z(i/m)), i < m, on z(s) = c + r e^{2 pi i s}, and the vectors
    f_1(z(i/m)) - c: as the isotopy fixes c, F(z(s)) = F(z(0)) + (L(s) -
    L(0))/2pi - s, L the lifted angle of f_1(z(s)) - c.  L doubles from
    >= 64 samples until two lifts agree at shared samples, must close after
    one turn and meet a sweep at 1/2."""
    cx, cy = center

    def point(s):
        a = TWO_PI * s
        return (cx + r * math.cos(a), cy + r * math.sin(a))

    @functools.cache  # sample i/n is sample 2i/(2n) of the next level
    def vec(s):
        w = iso.eval(1.0, point(s))
        return (w[0] - cx, w[1] - cy)

    where = f"the circle of radius {r!r} about {center}"
    n, prev = m * math.ceil(64 / m), None
    for _ in range(_SWEEP_MAX_DOUBLINGS):
        ps = [i / n for i in range(n)]
        path = build_winding_path([vec(s) for s in ps], closed=True,
                                  refiner=vec, params=ps)
        lift = [*path.lift[path.params.searchsorted(ps)], path.lift[-1]]
        if prev and all(abs(a - b) <= _SWEEP_TOL
                        for a, b in zip(lift[::2], prev)):
            break
        prev, n = lift, 2 * n
    else:
        raise RefinementExhausted(f"lift of f_1 did not stabilize on {where}")
    if winding_number(path) != 1:
        raise RefinementExhausted(f"f_1 does not wind once on {where}")
    turns = [(x - lift[0]) / TWO_PI - i / n for i, x in enumerate(lift)]
    f0 = trajectory_turns(iso, point(0.0), center)
    if abs(f0 + turns[n // 2] - trajectory_turns(iso, point(0.5), center)) > 1e-6:
        raise RefinementExhausted(f"sweep at s = 1/2 disagrees on {where}")
    return ([f0 + float(t) for t in turns[:n:n // m]],
            [vec(s) for s in ps[:n:n // m]])


def _check_center_fixed(iso: PlanarIsotopy, center, t_grid: int = 33):
    cx, cy = float(center[0]), float(center[1])
    for k in range(t_grid):
        t = k / (t_grid - 1)
        try:
            w = iso.eval(t, (cx, cy))
        except ArithmeticError as exc:
            raise CenterNotFixed(
                f"isotopy undefined at the center at t = {t:.4f}") from exc
        if math.hypot(w[0] - cx, w[1] - cy) > 1e-9:
            raise CenterNotFixed(f"center moves at t = {t:.4f}")


# --- indices ------------------------------------------------------------------

def lefschetz_index(f: Callable[[tuple], tuple], center, radius: float,
                    samples: int = 256) -> int:
    """Brouwer degree of the normalized displacement along a circle."""
    if samples < 64:
        raise InputError("samples must be >= 64")
    cx, cy = float(center[0]), float(center[1])

    def disp(s):
        a = TWO_PI * s
        z = (cx + radius * math.cos(a), cy + radius * math.sin(a))
        w = f(z)
        return (w[0] - z[0], w[1] - z[1])

    vecs = []
    for i in range(samples):
        v = disp(i / samples)
        if math.hypot(v[0], v[1]) < 1e-10:
            raise FixedPointOnCurve(i)
        vecs.append(v)
    path = build_winding_path(vecs, closed=True, refiner=disp,
                              params=[i / samples for i in range(samples)])
    return winding_number(path)


def isotopy_index(iso: PlanarIsotopy, center, radius: float,
                  samples: int = 256) -> int:
    """Degree of the lifted time-one displacement along a fundamental path.

    The lift of f_1 to the annular cover of the punctured disk is obtained
    by tracking eval(t, .) continuously in t from the identity; the turns
    at the samples are continued along the circle (``_circle_turns``).
    """
    if samples < 64:
        raise InputError("samples must be >= 64")
    _check_center_fixed(iso, center)
    cx, cy = float(center[0]), float(center[1])
    turns, f1 = _circle_turns(iso, (cx, cy), radius, samples)

    def cover_disp(s, dtheta=None, w=None):
        if dtheta is None:  # a refinement midpoint
            a = TWO_PI * s
            z = (cx + radius * math.cos(a), cy + radius * math.sin(a))
            w = iso.eval(1.0, z)
            w = (w[0] - cx, w[1] - cy)
            dtheta = trajectory_turns(iso, z, (cx, cy))
        v = (dtheta, radius - math.hypot(*w))
        # a fixed point of the lift is a planar fixed point with zero turn
        if math.hypot(v[0], v[1]) < 1e-10:
            raise FixedPointOnCurve(s)
        return v

    vecs = [cover_disp(i / samples, turns[i], f1[i]) for i in range(samples)]
    path = build_winding_path(vecs, closed=True, refiner=cover_disp,
                              params=[i / samples for i in range(samples)])
    return winding_number(path)


def linking_number(iso: PlanarIsotopy, z0, z1, t_samples: int = 256) -> int:
    """Degree of the normalized difference of two fixed trajectories."""
    if t_samples < 64:
        raise InputError("t_samples must be >= 64")
    f1 = iso.time_one()
    for name, z in (("z0", z0), ("z1", z1)):
        w = f1(z)
        if math.hypot(w[0] - z[0], w[1] - z[1]) > 1e-9:
            raise NotFixed(name)

    def diff(t):
        a = iso.eval(t, z0)
        b = iso.eval(t, z1)
        v = (a[0] - b[0], a[1] - b[1])
        if math.hypot(v[0], v[1]) < 1e-10:
            raise TrajectoryCollision(t)
        return v

    vecs = [diff(i / t_samples) for i in range(t_samples)]
    path = build_winding_path(vecs, closed=True, refiner=diff,
                              params=[i / t_samples for i in range(t_samples)])
    return winding_number(path)


@dataclass
class IsotopyOrder:
    relation: str
    witness: Optional[tuple]  # cover point (theta, y) of the deciding sample


def compare_isotopies(iso: PlanarIsotopy, other: PlanarIsotopy, center,
                      radius: float, grid: int = 16,
                      tol: float = 1e-9) -> IsotopyOrder:
    """Pointwise comparison of the lifted first coordinates on a cover grid.

    Verdicts are relative to the sampled grid; the underlying preorder
    quantifies over all points of a small punctured disk.  Each row y is
    the circle of radius -y, continued by ``_circle_turns``.
    """
    _check_center_fixed(iso, center)
    _check_center_fixed(other, center)
    c = (float(center[0]), float(center[1]))
    ys = [-radius * (j + 0.5) / grid for j in range(grid)]
    diffs = [[a - b for a, b in zip(_circle_turns(iso, c, -y, grid)[0],
                                    _circle_turns(other, c, -y, grid)[0])]
             for y in ys]
    # theta outer, radius inner: the first decisive sample is the witness
    decisive = [(diffs[j][i], (i / grid, y)) for i in range(grid)
                for j, y in enumerate(ys) if abs(diffs[j][i]) > tol]
    greater = any(d > 0 for d, _ in decisive)
    less = any(d < 0 for d, _ in decisive)
    relation = {(True, True): INCOMPARABLE, (True, False): GREATER,
                (False, True): LESS, (False, False): EQUIVALENT}[greater, less]
    return IsotopyOrder(relation, decisive[0][1] if decisive else None)


@dataclass
class IndexRelationReport:
    lefschetz: int
    isotopy: int
    foliation: int
    foliation_equals_isotopy_plus_one: bool
    lefschetz_equals_foliation: Optional[bool]  # None when vacuous (i(F) = 1)

    @property
    def both_identities_hold(self) -> bool:
        second = self.lefschetz_equals_foliation
        return self.foliation_equals_isotopy_plus_one and (second is None or second)


def index_relation_check(f: Callable[[tuple], tuple], iso: PlanarIsotopy,
                         fol, z0, radius: float,
                         samples: int = 256) -> IndexRelationReport:
    """Check i(F) = i(I) + 1 and, when i(F) != 1, i(f) = i(F)."""
    from .foliate import classify_singularity

    i_f = lefschetz_index(f, z0, radius, samples)
    i_iso = isotopy_index(iso, z0, radius, samples)
    i_fol = classify_singularity(fol, z0, radius, samples).foliation_index
    first = (i_fol == i_iso + 1)
    second = None if i_fol == 1 else (i_f == i_fol)
    return IndexRelationReport(lefschetz=i_f, isotopy=i_iso, foliation=i_fol,
                               foliation_equals_isotopy_plus_one=first,
                               lefschetz_equals_foliation=second)
