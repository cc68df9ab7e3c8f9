"""Blow-up rotation numbers, local rotation sets, torsion classification,
and the twist test on annulus lifts.

Angular quantities are measured in turns (period-1 units), matching the
first coordinate of the annular cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    IdentityCheckFailed, InputError, NotALift, NotOrientationPreserving,
)
from .genfunc import _newton, _seed_cells
from .geom import TWO_PI, angle_sweep
from .indices import PlanarIsotopy, trajectory_turns

TORSION_LOW = "TorsionLow"
NOT_TORSION_LOW = "NotTorsionLow"
INCONCLUSIVE = "Inconclusive"

CASE_COMPLEX = "ComplexEigen"
CASE_NEGATIVE_PAIR = "NegativeRealPair"
CASE_POSITIVE_SADDLE = "PositiveSaddle"
CASE_OTHER = "Other"

_EIG_IMAG_TOL = 1e-12
_DEGENERATE_TOL = 1e-8  # |det(D1 - I)| at or below this is degenerate
_BLOWUP_N0 = 256  # base grid of the anchor's angle sweep


def _eigen_case(A: np.ndarray):
    """(case_tag, data) for a 2x2 matrix with positive determinant."""
    ev = np.linalg.eigvals(np.asarray(A, dtype=float))
    if max(abs(ev[0].imag), abs(ev[1].imag)) > _EIG_IMAG_TOL:
        lam = ev[0] if ev[0].imag > 0 else ev[1]
        theta = math.atan2(lam.imag, lam.real)  # in (0, pi)
        return CASE_COMPLEX, theta
    l1, l2 = sorted(float(e.real) for e in ev)
    if l2 < 0.0:
        return CASE_NEGATIVE_PAIR, (l1, l2)
    if 0.0 < l1 < 1.0 < l2:
        return CASE_POSITIVE_SADDLE, (l1, l2)
    return CASE_OTHER, (l1, l2)


def linear_blowup_rotation(A) -> float:
    """Rotation number (mod 1) of the unit-circle map v -> A v / |A v|.

    Analytic: complex eigenvalues rho e^{+-i theta} give theta/2pi with the
    sign of the invariant rotation (sign of v x Av, constant when there is
    no real eigendirection); a positive real pair gives 0; a negative real
    pair gives 1/2.
    """
    A = np.asarray(A, dtype=float)
    if float(np.linalg.det(A)) <= 0.0:
        raise NotOrientationPreserving(f"det = {float(np.linalg.det(A)):.6g}")
    case, data = _eigen_case(A)
    if case == CASE_COMPLEX:
        theta = data
        # v x Av never vanishes; its sign at e1 is the lower-left entry
        if A[1, 0] > 0.0:
            return theta / TWO_PI
        return 1.0 - theta / TWO_PI
    if case == CASE_NEGATIVE_PAIR:
        return 0.5
    return 0.0  # positive real eigenvalues fix a direction


def isotopy_blowup_rotation(dpath: Callable[[float], np.ndarray]) -> float:
    """Real-valued rotation number of the derivative path of an isotopy.

    Tracks the angle of dpath(t) e1 continuously from t = 0 (where dpath
    must be the identity) to the anchor h(0), the isotopy's lift of the
    projectivized time-one map evaluated at 0, and returns the
    representative of the analytic mod-1 class nearest to it.
    """
    D0 = np.asarray(dpath(0.0), dtype=float)
    if not np.allclose(D0, np.eye(2), atol=1e-9):
        raise IdentityCheckFailed("dpath(0) must be the identity")
    D1 = np.asarray(dpath(1.0), dtype=float)
    det1 = float(np.linalg.det(D1))
    if det1 <= 0.0:
        raise NotOrientationPreserving(f"det dpath(1) = {det1:.6g}")

    def vec(t):
        M = np.asarray(dpath(t), dtype=float)
        return (float(M[0, 0]), float(M[1, 0]))  # image of e1

    anchor = angle_sweep(vec, n0=_BLOWUP_N0) / TWO_PI
    cls = linear_blowup_rotation(D1)
    # det D1 > 0 makes the lift h increasing, and D1(-v) = -D1 v gives
    # h(s + 1/2) = h(s) + 1/2, so h(s) - s varies by less than 1/2; both
    # rho and the anchor h(0) lie in that range, so exactly one
    # representative of the class lies within 1/2 of the anchor
    return cls + round(anchor - cls)


def compose_turn(dpath: Callable[[float], np.ndarray], turns: float = 1.0):
    """Derivative path of J^turns composed after the isotopy."""

    def composed(t: float) -> np.ndarray:
        if t <= 0.5:
            return np.asarray(dpath(2.0 * t), dtype=float)
        a = TWO_PI * turns * (2.0 * t - 1.0)
        R = np.array([[math.cos(a), -math.sin(a)],
                      [math.sin(a), math.cos(a)]])
        return R @ np.asarray(dpath(1.0), dtype=float)

    return composed


# --- local rotation sets ------------------------------------------------------

def _default_seeds(center, v_radius: float, u_radius: float, seeds: int):
    """Deterministic seed points in the open annulus V < |z - c| < U."""
    cx, cy = float(center[0]), float(center[1])
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    out = []
    for i in range(seeds):
        r = v_radius + (u_radius - v_radius) * (i + 1.0) / (seeds + 1.0)
        a = TWO_PI * ((i * golden) % 1.0)
        out.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return out


def rotation_samples(iso: PlanarIsotopy, center, U_radius: float,
                     V_radius: float, n: int, seeds: int = 24,
                     t_grid: int = 256,
                     seed_points: Optional[Sequence] = None) -> list:
    """Average angular displacement over orbits confined to an annular window.

    Keeps seeds z with |z - c| in (V, U) whose first n iterates stay inside
    the U-disk, with z and f^n(z) outside the closed V-disk (all strict);
    for kept orbits returns (start, rho_n) with rho_n in turns per step.
    """
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


@dataclass
class RotationSetEstimate:
    lo: Optional[float]
    hi: Optional[float]
    lo_unbounded: bool
    hi_unbounded: bool
    samples: list  # (n, rho_n, start point)
    annulus: tuple  # (U radius, V radius) of the deepest level
    n_min_used: int
    diagnostics: str = ""


def local_rotation_set_estimate(iso: PlanarIsotopy, center, r0: float,
                                levels: int, n_max: int,
                                divergence_threshold: float,
                                seeds: int = 24) -> RotationSetEstimate:
    """Finite-evidence interval estimate of the local rotation set.

    Level k uses U = r0/2^k, V = r0/2^{k+2} and a geometric schedule of
    orbit lengths up to n_max; the interval is the min/max of deep-level
    samples with n >= n_max/4, with escapes past the divergence threshold
    flagged instead of reported as unbounded reals.
    """
    if levels < 1:
        raise InputError("levels must be >= 1")
    if n_max < 4:
        raise InputError("n_max must be >= 4")
    schedule = []
    n = 1
    while n < n_max:
        schedule.append(n)
        n *= 2
    schedule.append(n_max)
    all_samples = []
    deep_samples = []
    deepest = levels - 1
    for k in range(levels):
        U = r0 / 2.0 ** k
        V = r0 / 2.0 ** (k + 2)
        t_grid = 256 * 2 ** k  # finer tracking for faster inner winding
        for n_len in schedule:
            for start, rho in rotation_samples(iso, center, U, V, n_len,
                                               seeds=seeds, t_grid=t_grid):
                all_samples.append((n_len, rho, start))
                if k == deepest and n_len >= n_max / 4:
                    deep_samples.append(rho)
    annulus = (r0 / 2.0 ** deepest, r0 / 2.0 ** (deepest + 2))
    if not all_samples:
        return RotationSetEstimate(
            lo=None, hi=None, lo_unbounded=False, hi_unbounded=False,
            samples=[], annulus=annulus, n_min_used=0,
            diagnostics="no orbit satisfied the window conditions at any level")
    if not deep_samples:
        deep_samples = [rho for (_, rho, _) in all_samples]
        note = "no deep-level samples; interval uses all levels"
    else:
        note = ""
    lo, hi = min(deep_samples), max(deep_samples)
    return RotationSetEstimate(
        lo=lo, hi=hi,
        lo_unbounded=bool(lo < -divergence_threshold),
        hi_unbounded=bool(hi > divergence_threshold),
        samples=all_samples,
        annulus=annulus,
        n_min_used=min(s[0] for s in all_samples),
        diagnostics=note)


# --- torsion classification ---------------------------------------------------

@dataclass
class TorsionVerdict:
    classification: str
    rho: float
    degenerate: bool
    case_tag: str


def torsion_low_classify(
        dpath: Callable[[float], np.ndarray]) -> TorsionVerdict:
    """Classify a fixed point's derivative isotopy by its rotation number.

    The verdict is TorsionLow when rho lies in [-1, 1] (strict when the
    fixed point is not degenerate), NotTorsionLow outside, Inconclusive
    when degeneracy puts |rho| exactly at 1 within tolerance.
    """
    rho = isotopy_blowup_rotation(dpath)
    D1 = np.asarray(dpath(1.0), dtype=float)
    degenerate = abs(float(np.linalg.det(D1 - np.eye(2)))) <= _DEGENERATE_TOL
    case, _ = _eigen_case(D1)
    if degenerate and abs(abs(rho) - 1.0) <= _DEGENERATE_TOL:
        cls = INCONCLUSIVE
    elif degenerate:
        cls = TORSION_LOW if -1.0 <= rho <= 1.0 else NOT_TORSION_LOW
    else:
        cls = TORSION_LOW if -1.0 < rho < 1.0 else NOT_TORSION_LOW
    return TorsionVerdict(classification=cls, rho=rho, degenerate=degenerate,
                          case_tag=case)


# --- annulus lifts and the twist condition -------------------------------------

@dataclass
class AnnulusLiftMap:
    """Lift f~: R x [-a, a] -> R x [-b, b] with f~(x+1, y) = f~(x, y) + (1, 0)."""

    lift: Callable[[float, float], tuple]
    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a <= self.b:
            raise InputError("need 0 < a <= b")
        for k in range(16):
            x = k / 16.0 - 0.5
            y = self.a * (2.0 * ((k * 7) % 16) / 15.0 - 1.0)
            p = self.lift(x, y)
            q = self.lift(x + 1.0, y)
            if abs(q[0] - p[0] - 1.0) > 1e-9 or abs(q[1] - p[1]) > 1e-9:
                raise NotALift(
                    f"lift(x+1, y) != lift(x, y) + (1, 0) at ({x}, {y})")


@dataclass
class TwistReport:
    twist_holds: bool
    boundary_products: dict  # sampled displacements on both boundaries
    fixed_points: list


def twist_check_and_search(m: AnnulusLiftMap, grid: int = 64) -> TwistReport:
    """Check the boundary twist hypothesis and hunt interior fixed points.

    twist_holds means the lifted horizontal displacements have opposite
    strict signs on the two boundary circles for every sampled pair.
    Fixed points are found by sign-change seeding of f(z) - z on the
    fundamental domain and Gauss-Newton refinement to residual <= 1e-9,
    deduplicated mod 1 in x.
    """
    if grid < 16:
        raise InputError("grid must be >= 16")
    xs = [i / grid for i in range(grid)]
    ys = np.linspace(-m.a, m.a, grid + 1)
    d1 = np.empty((grid + 1, grid + 1))
    d2 = np.empty((grid + 1, grid + 1))
    for i, x in enumerate(xs + [1.0]):
        for j, y in enumerate(ys):
            w = m.lift(x, y)
            d1[i, j] = w[0] - x
            d2[i, j] = w[1] - y
    # linspace keeps its endpoints exact: the last and first columns are
    # the displacements on the boundary circles y = a and y = -a
    top = d1[:grid, -1].tolist()
    bot = d1[:grid, 0].tolist()
    twist = (max(top) < 0.0 and min(bot) > 0.0) or \
            (min(top) > 0.0 and max(bot) < 0.0)

    h = 1e-7

    def lift_model(x, y):
        w = m.lift(x, y)
        r = np.array([w[0] - x, w[1] - y])

        def step():
            J = np.empty((2, 2))
            for k, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
                wp = m.lift(x + dx, y + dy)
                wm = m.lift(x - dx, y - dy)
                J[0, k] = (wp[0] - wm[0]) / (2 * h) - (1.0 if k == 0 else 0.0)
                J[1, k] = (wp[1] - wm[1]) / (2 * h) - (1.0 if k == 1 else 0.0)
            return np.linalg.lstsq(J, -r, rcond=None)[0]

        return float(np.hypot(r[0], r[1])), step

    found = []
    seeds = _seed_cells(d1, 1e-9) & _seed_cells(d2, 1e-9)
    for i, j in zip(*np.nonzero(seeds)):
        x0 = xs[i] + 0.5 / grid
        y0 = 0.5 * (ys[j] + ys[j + 1])
        pt = _newton(lift_model, (x0, y0), 1e-9, 60, 0.5)
        if pt is None:
            continue
        x, y, _ = pt
        x = x % 1.0
        if abs(y) > m.a + 1e-9:
            continue
        if any(min(abs(x - px), 1.0 - abs(x - px)) < 1e-6
               and abs(y - py) < 1e-6 for px, py in found):
            continue
        found.append((x, y))
    found.sort()
    return TwistReport(
        twist_holds=bool(twist),
        boundary_products={"top": list(zip(xs, top)), "bottom": list(zip(xs, bot))},
        fixed_points=found)
