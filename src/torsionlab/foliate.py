"""Oriented singular foliations given by direction vector fields.

Leaves are integral curves of the direction field.  Transversality of a
path is decided by the sign of det[velocity | direction] at segment
midpoints (velocity in the first column), matching the convention of the
generating-function transversality computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AllStationary, InputError, SingularOnCircle, StartsSingular
from .geom import Polyline, build_winding_path, winding_number

SINK = "Sink"
SOURCE = "Source"
SADDLE = "Saddle"
UNKNOWN = "Unknown"

POSITIVELY_TRANSVERSE = "PositivelyTransverse"
TANGENT = "Tangent"
NEGATIVE = "Negative"

RADIAL_TOL = 1e-12


@dataclass
class Foliation:
    """Oriented singular foliation carried by a direction vector field."""

    direction: Callable[[float, float], tuple]
    singular_tol: float = 1e-10

    def at(self, z) -> tuple:
        vx, vy = self.direction(float(z[0]), float(z[1]))
        return (float(vx), float(vy))


def gradient_foliation(field) -> Foliation:
    """Foliation whose leaves are integral curves of grad g."""

    def direction(x: float, y: float) -> tuple:
        jet = field.jet2(x, y)
        return (jet.fx, jet.fy)

    return Foliation(direction=direction)


def expression_foliation(p_expr, q_expr) -> Foliation:
    """Foliation from a user expression pair (p(x, y), q(x, y))."""
    from .expr import ExprField

    p = ExprField(p_expr) if isinstance(p_expr, str) else p_expr
    q = ExprField(q_expr) if isinstance(q_expr, str) else q_expr
    return Foliation(direction=lambda x, y: (p.jet2(x, y).f, q.jet2(x, y).f))


def integrate_leaf(fol: Foliation, z0, step: float, max_len: float,
                   stop_radius: float) -> Polyline:
    """Fixed-step RK4 integration of the normalized direction field.

    Stops at max_len, on domain exit (the field raising), or when the local
    secant model of the field magnitude predicts a zero within stop_radius.
    The fixed step keeps polylines byte-for-byte reproducible.
    """
    x, y = float(z0[0]), float(z0[1])
    vx, vy = fol.at((x, y))
    mag = math.hypot(vx, vy)
    if mag < fol.singular_tol:
        raise StartsSingular(f"|field| = {mag:.3e} at {z0!r}")

    def unit(px, py):
        ux, uy = fol.at((px, py))
        m = math.hypot(ux, uy)
        if m < fol.singular_tol:
            raise _SingularHit(px, py)
        return (ux / m, uy / m)

    pts = [(x, y)]
    params = [0.0]
    n_steps = max(int(math.floor(max_len / step)), 0)
    reason = "max_len"
    prev_mag = mag
    for k in range(n_steps):
        try:
            k1 = unit(x, y)
            k2 = unit(x + 0.5 * step * k1[0], y + 0.5 * step * k1[1])
            k3 = unit(x + 0.5 * step * k2[0], y + 0.5 * step * k2[1])
            k4 = unit(x + step * k3[0], y + step * k3[1])
        except _SingularHit:
            reason = "singular"
            break
        except (ArithmeticError, ValueError):
            reason = "domain_exit"
            break
        nx = x + (step / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        ny = y + (step / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        try:
            fx, fy = fol.at((nx, ny))
        except (ArithmeticError, ValueError):
            reason = "domain_exit"
            break
        mag = math.hypot(fx, fy)
        x, y = nx, ny
        pts.append((x, y))
        params.append(params[-1] + step)
        if mag < fol.singular_tol:
            reason = "singular"
            break
        # secant estimate of the distance to a zero of |field|
        slope = (prev_mag - mag) / step
        if slope > 0.0 and mag / slope <= stop_radius:
            reason = "singular"
            break
        prev_mag = mag
    return Polyline(params=np.asarray(params), points=np.asarray(pts),
                    stop_reason=reason)


class _SingularHit(Exception):
    pass


@dataclass
class TransversalityReport:
    min_det: float
    first_violation: Optional[tuple]  # (parameter, point)
    samples_used: int
    verdict: str


def transversality_report(path, fol: Foliation,
                          stationary_tol: float = 1e-12,
                          tangent_tol: float = 1e-3) -> TransversalityReport:
    """Sign of det[velocity | direction] at the midpoints of path segments.

    Segments with |velocity| below stationary_tol are skipped (a stationary
    sub-path reduced to a point is allowed).  The verdict uses the
    normalized determinant (sine of the crossing angle) against
    tangent_tol; min_det reports the raw determinant.
    """
    params = np.asarray(path.params, dtype=float)
    pts = np.asarray(path.points, dtype=float)
    if len(pts) < 2:
        raise ValueError("path needs at least 2 vertices")
    min_det = math.inf
    max_abs_norm = 0.0
    min_norm_det = math.inf
    first_violation = None
    used = 0
    for k in range(len(pts) - 1):
        dt = params[k + 1] - params[k]
        if dt <= 0.0:
            continue
        v = (pts[k + 1] - pts[k]) / dt
        speed = math.hypot(v[0], v[1])
        if speed < stationary_tol:
            continue
        mid = 0.5 * (pts[k] + pts[k + 1])
        d = fol.at(mid)
        dmag = math.hypot(d[0], d[1])
        if dmag < fol.singular_tol:
            continue
        det = v[0] * d[1] - v[1] * d[0]
        norm_det = det / (speed * dmag)
        used += 1
        if det < min_det:
            min_det = det
        max_abs_norm = max(max_abs_norm, abs(norm_det))
        if norm_det < min_norm_det:
            min_norm_det = norm_det
        if first_violation is None and det <= 0.0:
            first_violation = (float(0.5 * (params[k] + params[k + 1])),
                               (float(mid[0]), float(mid[1])))
    if used == 0:
        raise AllStationary("every segment fell below the stationary tolerance")
    if max_abs_norm <= tangent_tol:
        verdict = TANGENT  # the whole path runs along leaves
    elif min_det > 0.0:
        verdict = POSITIVELY_TRANSVERSE
        first_violation = None
    elif min_norm_det >= -tangent_tol:
        verdict = TANGENT
    else:
        verdict = NEGATIVE
    return TransversalityReport(min_det=float(min_det),
                                first_violation=first_violation,
                                samples_used=used, verdict=verdict)


@dataclass
class SingularityReport:
    kind: str
    foliation_index: int


def classify_singularity(fol: Foliation, z0, radius: float,
                         samples: int = 256) -> SingularityReport:
    """Winding of the direction field on a circle plus radial sign pattern.

    Only the sink/source/saddle cases are decided; petals, cycles and mixed
    singularities come back Unknown, as does any circle carrying a radial
    component smaller than the strict-sign tolerance.
    """
    if samples < 64:
        raise InputError("samples must be >= 64")
    cx, cy = float(z0[0]), float(z0[1])

    def probe(s: float):
        a = 2.0 * math.pi * s
        return fol.at((cx + radius * math.cos(a), cy + radius * math.sin(a)))

    dirs = []
    radials = []
    params = []
    for i in range(samples):
        # half-step offset keeps generic radial zeros off the grid
        s = (i + 0.5) / samples
        d = probe(s)
        if math.hypot(d[0], d[1]) < fol.singular_tol:
            raise SingularOnCircle(i)
        a = 2.0 * math.pi * s
        radials.append(d[0] * math.cos(a) + d[1] * math.sin(a))
        dirs.append(d)
        params.append(s)
    path = build_winding_path(dirs, closed=True, refiner=probe, params=params)
    index = winding_number(path)

    if any(abs(r) < RADIAL_TOL for r in radials):
        return SingularityReport(kind=UNKNOWN, foliation_index=index)
    all_neg = all(r < 0.0 for r in radials)
    all_pos = all(r > 0.0 for r in radials)
    if index == 1 and all_neg:
        kind = SINK
    elif index == 1 and all_pos:
        kind = SOURCE
    elif index <= 0 and not all_neg and not all_pos:
        kind = SADDLE
    else:
        kind = UNKNOWN
    return SingularityReport(kind=kind, foliation_index=index)


def reversed_foliation(fol: Foliation) -> Foliation:
    d = fol.direction
    return Foliation(direction=lambda x, y: tuple(-c for c in d(x, y)),
                     singular_tol=fol.singular_tol)
