"""Angle lifting, winding numbers, circle rotation numbers, annular cover.

The universal cover of the punctured plane used throughout is
pi(theta, y) = -y * e^{i 2 pi theta} with y < 0; theta is measured in turns
(period 1).  Winding-path lifts are kept in radians; conversions are explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    NonIntegralWinding, NotALift, NotClosed, OriginNotInCover,
    RefinementExhausted, ZeroVector,
)

TWO_PI = 2.0 * math.pi

# maximum allowed lifted angle step, strictly below pi/2 so the final
# integer rounding with residue tolerance 0.1 stays sound
MAX_ANGLE_STEP = 0.5 * math.pi

_MAX_DEPTH = 40  # bisections of one winding-path segment
_SWEEP_TOL = 1e-9  # radians between consecutive angle_sweep totals
_SWEEP_MAX_DOUBLINGS = 10


@dataclass
class WindingPath:
    """Sampled path of nonzero planar vectors with a continuous angle lift."""

    samples: np.ndarray  # (N, 2) vectors, refined
    params: np.ndarray   # (N,) parameters in [0, 1]
    lift: np.ndarray     # (N,) continuous angles, radians
    closed: bool

    def total_turns(self) -> float:
        return (self.lift[-1] - self.lift[0]) / TWO_PI


@dataclass
class Polyline:
    """Parametrized planar polyline (params increasing, points (N, 2))."""

    params: np.ndarray
    points: np.ndarray
    stop_reason: Optional[str] = None


def _angle(v) -> float:
    return math.atan2(v[1], v[0])


def _wrap_pi(a: float) -> float:
    """Reduce to (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


def build_winding_path(vectors: Sequence, closed: bool = False,
                       refiner: Optional[Callable[[float], tuple]] = None,
                       params: Optional[Sequence[float]] = None) -> WindingPath:
    """Lift the angle of a vector path, bisecting with ``refiner`` until
    every consecutive lifted step is below pi/2.

    ``refiner(s)`` must return the path vector at parameter ``s``; for closed
    paths the parameter runs over [0, 1] with the wrap sample at s = 1.
    """
    vecs = [tuple(map(float, v)) for v in vectors]
    n = len(vecs)
    if n < 1:
        raise ValueError("empty vector path")
    for i, v in enumerate(vecs):
        if math.hypot(v[0], v[1]) <= 0.0:
            raise ZeroVector(i)
    if params is None:
        if closed:
            ps = [i / n for i in range(n)]
        else:
            ps = [i / max(n - 1, 1) for i in range(n)]
    else:
        ps = [float(p) for p in params]
        if len(ps) != n:
            raise ValueError("params length mismatch")
    if closed:
        # append the wrap sample; default parametrization closes at 1.0
        vecs = vecs + [vecs[0]]
        if params is None:
            ps = ps + [1.0]
        else:
            step = (ps[-1] - ps[0]) / (n - 1) if n > 1 else 1.0
            ps = ps + [ps[-1] + step]

    out_v = [vecs[0]]
    out_p = [ps[0]]
    out_lift = [_angle(vecs[0])]

    for k in range(len(vecs) - 1):
        _refine_segment(out_v, out_p, out_lift, vecs[k], ps[k], vecs[k + 1],
                        ps[k + 1], refiner, _MAX_DEPTH)

    return WindingPath(samples=np.asarray(out_v, dtype=float),
                       params=np.asarray(out_p, dtype=float),
                       lift=np.asarray(out_lift, dtype=float),
                       closed=closed)


def _refine_segment(out_v, out_p, out_lift, va, pa, vb, pb, refiner, depth):
    step = _wrap_pi(_angle(vb) - _angle(va))
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
    _refine_segment(out_v, out_p, out_lift, va, pa, vm, pm, refiner, depth - 1)
    _refine_segment(out_v, out_p, out_lift, vm, pm, vb, pb, refiner, depth - 1)


def winding_number(p: WindingPath) -> int:
    """Integer winding of a closed path; residue above 0.1 is an error."""
    if not p.closed:
        raise NotClosed("winding number needs a closed path")
    turns = p.total_turns()
    nearest = round(turns)
    residue = abs(turns - nearest)
    if residue >= 0.1:
        raise NonIntegralWinding(residue)
    return int(nearest)


def angle_sweep(vec_fn: Callable[[float], tuple], n0: int = 64) -> float:
    """Total swept angle (radians) of ``vec_fn(s)`` for s in [0, 1].

    Besides the local < pi/2 refinement this doubles the base grid until two
    consecutive totals agree, which guards against aliasing on paths that
    wind many turns between coarse samples.
    """
    prev = None
    n = n0
    for _ in range(_SWEEP_MAX_DOUBLINGS):
        vecs = [vec_fn(i / n) for i in range(n + 1)]
        path = build_winding_path(vecs, closed=False, refiner=vec_fn,
                                  params=[i / n for i in range(n + 1)])
        total = path.lift[-1] - path.lift[0]
        if prev is not None and abs(total - prev) <= _SWEEP_TOL:
            return total
        prev = total
        n *= 2
    raise RefinementExhausted(
        f"swept angle did not stabilize below {_SWEEP_TOL} after "
        f"{_SWEEP_MAX_DOUBLINGS} doublings")


def circle_rotation_number(lift: Callable[[float], float], n_iter: int,
                           x0: float = 0.0) -> float:
    """Birkhoff average (F^n(x0) - x0) / n of a circle-map lift.

    Convergence to the true rotation number is O(1/n); callers needing more
    precision should use the analytic matrix route in the rotation module.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    for k in range(16):
        x = x0 + k / 16.0
        if abs(lift(x + 1.0) - lift(x) - 1.0) > 1e-9:
            raise NotALift(f"F(x+1) != F(x)+1 at probe x = {x}")
    x = float(x0)
    for _ in range(n_iter):
        x = lift(x)
    return (x - x0) / n_iter


@dataclass(frozen=True)
class CoverPoint:
    """Point of the annular universal cover: theta in turns, y < 0."""

    theta: float
    y: float


def cover_project(p: CoverPoint) -> tuple:
    """pi(theta, y) = -y e^{i 2 pi theta} as a planar point."""
    r = -p.y
    a = TWO_PI * p.theta
    return (r * math.cos(a), r * math.sin(a))


def cover_lift(z, theta_hint: float = 0.0) -> CoverPoint:
    """Deck translate of the lift of z nearest to theta_hint."""
    zx, zy = float(z[0]), float(z[1])
    r = math.hypot(zx, zy)
    if r == 0.0:
        raise OriginNotInCover("the origin is not covered")
    base = math.atan2(zy, zx) / TWO_PI
    k = round(theta_hint - base)
    return CoverPoint(theta=base + k, y=-r)
