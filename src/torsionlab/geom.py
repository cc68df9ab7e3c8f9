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


def _wrap_pi(a: np.ndarray) -> np.ndarray:
    """Reduce to (-pi, pi], elementwise."""
    a = np.fmod(a, TWO_PI)
    return np.where(a <= -math.pi, a + TWO_PI,
                    np.where(a > math.pi, a - TWO_PI, a))


def build_winding_path(vectors: Sequence, closed: bool = False,
                       refiner: Optional[Callable[[float], tuple]] = None,
                       params: Optional[Sequence[float]] = None) -> WindingPath:
    """Lift the angle of a vector path, bisecting with ``refiner`` until
    every consecutive lifted step is below pi/2.

    ``refiner(s)`` must return the path vector at parameter ``s``; for closed
    paths the parameter runs over [0, 1] with the wrap sample at s = 1.
    Angles are libm's ``atan2`` per sample, steps are wrapped at once and
    only segments whose step is not below pi/2 (NaN too) are bisected; the
    lift is the sequential cumulative sum of the first angle and the steps.
    """
    n = len(vectors)
    if n < 1:
        raise ValueError("empty vector path")
    xy = np.array(list(zip(*vectors)), dtype=float)
    zero = np.flatnonzero((xy == 0.0).all(axis=0))
    if zero.size:
        raise ZeroVector(int(zero[0]))
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
        xy = np.concatenate((xy, xy[:, :1]), axis=1)
        if params is None:
            ps = ps + [1.0]
        else:
            step = (ps[-1] - ps[0]) / (n - 1) if n > 1 else 1.0
            ps = ps + [ps[-1] + step]

    x, y = xy.tolist()
    angles = list(map(math.atan2, y, x))
    steps = _wrap_pi(np.diff(angles))
    at, mids, subs = [], [], []
    for k in np.flatnonzero(~(np.abs(steps) < MAX_ANGLE_STEP)).tolist():
        m, s = _bisect((ps[k], angles[k]), (ps[k + 1], angles[k + 1]),
                       float(steps[k]), refiner, _MAX_DEPTH)
        at += [k] * len(m)
        mids += m
        subs += s[:-1]
        steps[k] = s[-1]
    samples, out_p = xy.T, np.array(ps)
    if mids:  # midpoints go after sample k, their steps before step k
        samples = np.insert(samples, np.add(at, 1), [m[2] for m in mids], 0)
        out_p = np.insert(out_p, np.add(at, 1), [m[0] for m in mids])
        steps = np.insert(steps, at, subs)
    return WindingPath(samples=samples, params=out_p,
                       lift=np.cumsum(np.concatenate(([angles[0]], steps))),
                       closed=closed)


def _bisect(a, b, step, refiner, depth):
    """Midpoints (param, angle, vector) that ``refiner`` inserts between the
    samples a and b, given as (param, angle), and the angle steps along
    them, each below MAX_ANGLE_STEP."""
    if abs(step) < MAX_ANGLE_STEP:
        return [], [step]
    if refiner is None or depth <= 0:
        raise RefinementExhausted(
            f"angle step {abs(step):.3f} rad at parameter interval "
            f"[{a[0]:.6g}, {b[0]:.6g}] (depth exhausted)")
    pm = 0.5 * (a[0] + b[0])
    vm = tuple(map(float, refiner(pm)))
    if math.hypot(vm[0], vm[1]) <= 0.0:
        raise ZeroVector(pm)
    m = (pm, math.atan2(vm[1], vm[0]), vm)
    s1, s2 = _wrap_pi(np.array([m[1] - a[1], b[1] - m[1]])).tolist()
    left, left_steps = _bisect(a, m, s1, refiner, depth - 1)
    right, right_steps = _bisect(m, b, s2, refiner, depth - 1)
    return left + [m] + right, left_steps + right_steps


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
    wind many turns between coarse samples.  Sample i/n is sample 2i/(2n),
    the same float, so a doubling calls ``vec_fn`` only at the odd samples.
    """
    prev = None
    n = n0
    vecs = [vec_fn(i / n) for i in range(n + 1)]
    for doubling in range(_SWEEP_MAX_DOUBLINGS):
        if doubling:
            n *= 2
            odd = [vec_fn(i / n) for i in range(1, n, 2)]
            vecs = [v for pair in zip(vecs, odd) for v in pair] + vecs[-1:]
        path = build_winding_path(vecs, closed=False, refiner=vec_fn,
                                  params=[i / n for i in range(n + 1)])
        total = path.lift[-1] - path.lift[0]
        if prev is not None and abs(total - prev) <= _SWEEP_TOL:
            return total
        prev = total
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
