"""Area-preserving maps and isotopies generated by a scalar function.

A scalar g with mixed second derivative bounded by c < 1 defines a
diffeomorphism implicitly through X - x = d2g(X, y), Y - y = -d1g(X, y);
the isotopy comes from scaling g by t.  Fixed points of the time-one map
are exactly the critical points of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, SolverDiverged, TwistBoundViolation
from .expr import Jet2
from .geom import Polyline

MORSE_MIN = "Min"
MORSE_MAX = "Max"
MORSE_SADDLE = "Saddle"
MORSE_DEGENERATE = "Degenerate"

DEGENERATE_DET_TOL = 1e-8

# points per array call of a grid scan: large enough to amortise the
# per-call cost, small enough to keep the temporaries in cache
GRID_BLOCK = 4096


class PolynomialField:
    """Bivariate polynomial scalar field with exact jets from coefficients.

    coeffs[i, j] multiplies x^i y^j.
    """

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 2:
            raise ValueError("coeffs must be a 2-D array")
        # nonzero (i, j, a) as Python numbers, in row-major order
        self._terms = [(i, j, a) for i, row in enumerate(self.coeffs.tolist())
                       for j, a in enumerate(row) if a != 0.0]

    def jet2(self, x, y) -> Jet2:
        """Jet at floats or broadcastable arrays (elementwise arithmetic)."""
        nx, ny = self.coeffs.shape
        px = [1.0] * nx
        for i in range(1, nx):
            px[i] = px[i - 1] * x
        py = [1.0] * ny
        for j in range(1, ny):
            py[j] = py[j - 1] * y
        f = fx = fy = fxx = fxy = fyy = 0.0
        for i, j, a in self._terms:
            f = f + a * px[i] * py[j]
            if i >= 1:
                fx = fx + a * i * px[i - 1] * py[j]
            if j >= 1:
                fy = fy + a * j * px[i] * py[j - 1]
            if i >= 2:
                fxx = fxx + a * i * (i - 1) * px[i - 2] * py[j]
            if i >= 1 and j >= 1:
                fxy = fxy + a * i * j * px[i - 1] * py[j - 1]
            if j >= 2:
                fyy = fyy + a * j * (j - 1) * px[i] * py[j - 2]
        return Jet2(f, fx, fy, fxx, fxy, fyy)


@dataclass
class GenIsotopy:
    """Isotopy (f_t) generated by t*g for a scalar field g."""

    field: object  # anything with jet2(x, y) -> Jet2
    twist_bound_c: float
    solver_tol: float = 1e-12
    solver_max_iter: int = 200

    def __post_init__(self):
        if not self.twist_bound_c < 1.0:
            raise TwistBoundViolation(
                f"twist bound c = {self.twist_bound_c} must be < 1")


def verify_twist_bound(iso: GenIsotopy, region: Sequence[float],
                       grid: int = 64) -> float:
    """Sample d2g/dxdy on a grid over region; a violation is a hard error.

    Returns the sampled maximum.  The certificate is only as global as the
    sampling region (unbounded second derivatives stay the caller's risk).
    """
    xmin, xmax, ymin, ymax = map(float, region)
    steps = np.arange(grid)
    xs = xmin + (xmax - xmin) * steps / (grid - 1)
    ys = ymin + (ymax - ymin) * steps / (grid - 1)
    worst = -math.inf
    for rows, jet in _grid_jets(iso.field, xs, ys):
        fxy = np.broadcast_to(jet.fxy, (len(xs[rows]), grid))
        # Python's max skips NaN samples and keeps the first of equal ones
        worst = max(worst, *fxy.ravel().tolist())
    if worst > iso.twist_bound_c:
        raise TwistBoundViolation(
            f"sampled d12 g = {worst:.6g} exceeds declared bound "
            f"{iso.twist_bound_c:.6g}")
    return worst


def _grid_jets(field, xs, ys):
    """Jets on the grid xs x ys in row blocks of about GRID_BLOCK points.

    Yields (slice of xs, jet) in row-major (x-outer) order, so the first
    failing point raises as in a point-by-point scan.
    """
    step = max(1, GRID_BLOCK // len(ys))
    for i in range(0, len(xs), step):
        rows = slice(i, i + step)
        yield rows, field.jet2(xs[rows, None], ys[None, :])


def _solve_X(iso: GenIsotopy, t: float, x: float, y: float,
             history: list | None = None):
    """Root X of F(X) = X - x - t d2g(X, y); returns (X, jet at (X, y)).

    Newton steps guarded by a bracket (rtsafe, Press et al., Numerical
    Recipes 9.4).  F' = 1 - t d12g comes from each jet; where d12g <= c it
    is >= 1 - t c > 0, so the one root lies between x and
    x - F(x)/(1 - t c), the first bracket.  A Newton step that stays inside
    the bracket, endpoints included, is taken, any other is replaced by
    bisection, and the sign of F at each iterate narrows the bracket.
    SolverDiverged is raised where F' <= 0 at an iterate (the bound fails
    there), where the residual is not finite, where the iterate stops
    moving or after solver_max_iter steps.  The residual must reach
    solver_tol, or a few float spacings of X and x where those exceed it
    (rounding alone keeps the residual there).
    """
    X = x
    for k in range(iso.solver_max_iter + 1):
        jet = iso.field.jet2(X, y)
        F = X - x - t * jet.fy
        residual = abs(F)
        if history is not None:
            history.append(residual)
        if not math.isfinite(residual):
            raise SolverDiverged(k, residual)
        if residual <= _solver_tol(iso, X, x):
            return X, jet
        if k == 0:
            lo, hi = sorted((x, x - F / (1.0 - t * iso.twist_bound_c)))
        elif F > 0.0:
            hi = X
        else:
            lo = X
        slope = 1.0 - t * jet.fxy
        if not slope > 0.0:
            raise SolverDiverged(k, residual)
        step = X - F / slope
        if not lo <= step <= hi:
            step = 0.5 * (lo + hi)
        if step == X:
            raise SolverDiverged(k, residual)
        X = step
    raise SolverDiverged(iso.solver_max_iter, residual)


def _solver_tol(iso: GenIsotopy, X: float, x: float) -> float:
    return max(iso.solver_tol, 8.0 * math.ulp(max(abs(X), abs(x))))


def gf_apply(iso: GenIsotopy, t: float, z) -> tuple:
    """Apply f_t to z = (x, y)."""
    if not 0.0 <= t <= 1.0:
        raise InputError("t must lie in [0, 1]")
    x, y = float(z[0]), float(z[1])
    if t == 0.0:
        return (x, y)
    X, jet = _solve_X(iso, t, x, y)
    return (X, y - t * jet.fx)


def gf_jacobian(iso: GenIsotopy, t: float, z) -> np.ndarray:
    """Closed-form Jacobian of f_t at z, evaluated at (X, y); det = 1."""
    if not 0.0 <= t <= 1.0:
        raise InputError("t must lie in [0, 1]")
    x, y = float(z[0]), float(z[1])
    if t == 0.0:
        return np.eye(2)
    _, jet = _solve_X(iso, t, x, y)
    return _map_jacobian(t, jet)


def _map_jacobian(t: float, jet: Jet2) -> np.ndarray:
    """Jacobian of f_t from the jet of g at (X, y)."""
    s = t * jet.fxy
    r = t * jet.fxx
    q = t * jet.fyy
    return (1.0 / (1.0 - s)) * np.array(
        [[1.0, q],
         [-r, -r * q + (1.0 - s) ** 2]])


def gf_alt_apply(iso: GenIsotopy, t: float, z) -> tuple:
    """Two-phase isotopy: horizontal to (X, y) first, vertical after t = 1/2."""
    if not 0.0 <= t <= 1.0:
        raise InputError("t must lie in [0, 1]")
    x, y = float(z[0]), float(z[1])
    return _two_phase(t, x, y, *gf_apply(iso, 1.0, z))


def _two_phase(t: float, x: float, y: float, X: float, Y: float) -> tuple:
    """f'_t(x, y) from the time-one image (X, Y) = f_1(x, y)."""
    if t <= 0.5:
        return (x + 2.0 * t * (X - x), y)
    return (X, y + (2.0 * t - 1.0) * (Y - y))


def alt_trajectory(iso: GenIsotopy, z, n_samples: int = 65) -> Polyline:
    """Sampled two-phase trajectory t -> f'_t(z) (includes t = 1/2).

    f_1(z) is solved once; every sample is the two-phase formula of
    gf_alt_apply on it.
    """
    if n_samples < 64:
        raise InputError("n_samples must be >= 64")
    ts = np.linspace(0.0, 1.0, n_samples)
    if 0.5 not in ts:
        ts = np.sort(np.append(ts, 0.5))
    x, y = float(z[0]), float(z[1])
    X, Y = gf_apply(iso, 1.0, z)
    pts = np.array([_two_phase(t, x, y, X, Y) for t in ts.tolist()])
    return Polyline(params=ts, points=pts)


def _critical_jet(iso: GenIsotopy, z_fixed) -> Jet2:
    """Jet of g at z_fixed, which must be a critical point (X = x there)."""
    jet = iso.field.jet2(float(z_fixed[0]), float(z_fixed[1]))
    if math.hypot(jet.fx, jet.fy) > 1e-8:
        raise InputError(f"{z_fixed!r} is not a critical point of g")
    return jet


def jacobian_path(iso: GenIsotopy, z_fixed):
    """t -> Jacobian of f_t at a fixed point (derivative isotopy path)."""
    jet = _critical_jet(iso, z_fixed)
    return lambda t: _map_jacobian(t, jet)


def alt_jacobian_path(iso: GenIsotopy, z_fixed):
    """t -> Jacobian of the two-phase isotopy f'_t at a fixed point."""
    jet = _critical_jet(iso, z_fixed)
    rho, sigma, tau = jet.fxx, jet.fxy, jet.fyy
    d1X = 1.0 / (1.0 - sigma)
    d2X = tau / (1.0 - sigma)
    d1Y = -rho / (1.0 - sigma)
    d2Y = 1.0 - sigma - rho * tau / (1.0 - sigma)

    def dpath(t: float) -> np.ndarray:
        if t <= 0.5:
            return np.array([[1.0 + 2.0 * t * (d1X - 1.0), 2.0 * t * d2X],
                             [0.0, 1.0]])
        u = 2.0 * t - 1.0
        return np.array([[d1X, d2X],
                         [u * d1Y, (1.0 - u) + u * d2Y]])

    return dpath


@dataclass
class CriticalPoint:
    location: tuple
    gradient_residual: float
    hessian: np.ndarray
    morse_type: str


def _morse_type(hess: np.ndarray) -> str:
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
    if abs(det) <= DEGENERATE_DET_TOL:
        return MORSE_DEGENERATE
    if det < 0.0:
        return MORSE_SADDLE
    return MORSE_MIN if hess[0, 0] + hess[1, 1] > 0.0 else MORSE_MAX


def find_critical_points(iso: GenIsotopy, region: Sequence[float],
                         grid_n: int,
                         residual_tol: float = 1e-9) -> list:
    """Newton on grad g seeded from grid cells with a sign change.

    A cell is seeded when either gradient component changes sign across it
    (a conjunction would miss zeros that touch without crossing, e.g. a
    non-negative component with a double zero).  Completeness is relative
    to the grid.
    """
    if grid_n < 8:
        raise InputError("grid_n must be >= 8")
    xmin, xmax, ymin, ymax = map(float, region)
    xs = np.linspace(xmin, xmax, grid_n + 1)
    ys = np.linspace(ymin, ymax, grid_n + 1)
    gx = np.empty((grid_n + 1, grid_n + 1))
    gy = np.empty((grid_n + 1, grid_n + 1))
    for rows, jet in _grid_jets(iso.field, xs, ys):
        gx[rows] = jet.fx
        gy[rows] = jet.fy

    field = iso.field

    def gradient_model(x, y):
        jet = field.jet2(x, y)
        fx, fy, fxx, fxy, fyy = (np.broadcast_to(a, x.shape) for a in (
            jet.fx, jet.fy, jet.fxx, jet.fxy, jet.fyy))

        def step(lanes):
            H = np.stack((fxx[lanes], fxy[lanes], fxy[lanes], fyy[lanes]),
                         axis=-1).reshape(-1, 2, 2)
            rhs = -np.stack((fx[lanes], fy[lanes]), axis=-1)
            try:
                return np.linalg.solve(H, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:  # a singular lane: one by one
                return np.array([_solve_or_lstsq(h, r)
                                 for h, r in zip(H, rhs)])

        res = [math.hypot(a, b) for a, b in zip(fx.tolist(), fy.tolist())]
        return res, step

    i, j = np.nonzero(_seed_cells(gx) | _seed_cells(gy))
    seeds = np.column_stack((0.5 * (xs[i] + xs[i + 1]),
                             0.5 * (ys[j] + ys[j + 1])))
    found = []
    for pt in _newton(gradient_model, seeds, residual_tol, 200, 1.0):
        if pt is None:
            continue
        x, y, res = pt
        if not (xmin - 1e-9 <= x <= xmax + 1e-9
                and ymin - 1e-9 <= y <= ymax + 1e-9):
            continue
        if any(math.hypot(x - p.location[0], y - p.location[1]) < 1e-6
               for p in found):
            continue
        jet = field.jet2(x, y)
        hess = np.array([[jet.fxx, jet.fxy], [jet.fxy, jet.fyy]])
        found.append(CriticalPoint(location=(x, y), gradient_residual=res,
                                   hessian=hess,
                                   morse_type=_morse_type(hess)))
    found.sort(key=lambda p: (p.location[1], p.location[0]))
    return found


def _seed_cells(a: np.ndarray, slack: float = 0.0) -> np.ndarray:
    """Cells whose corners satisfy min <= slack and max >= -slack (no NaN).

    With slack 0 this is a sign change of a across the cell.
    """

    def corners(mask):
        return mask[:-1, :-1] | mask[1:, :-1] | mask[:-1, 1:] | mask[1:, 1:]

    return (corners(a <= slack) & corners(a >= -slack)
            & ~corners(np.isnan(a)))


def _solve_or_lstsq(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H, rhs, rcond=None)[0]


def _newton(model, seeds, tol, max_iter, max_step):
    """Damped Newton from every seed at once; (x, y, residual) or None each.

    Each seed is a lane of array iterations.  model(xs, ys) takes the live
    lanes' points and returns their residual norms and step, where
    step(lanes) computes the Newton steps, one row each, of the lanes at
    those positions only: the lanes that take one.  A lane runs to stall,
    so degenerate (linearly converging) zeros are pinned well inside a 1e-6
    deduplication radius; a step longer than max_step is scaled down to
    max_step; a non-finite residual or step gives None.  The best iterate
    counts if its residual is <= tol.  Lanes make the decisions of a
    seed-by-seed run on its bits.  Where model or step raises, the lanes
    from the first failing one on stop, the others go on, and the error of
    the lowest failing lane is raised at the end: the error a seed-by-seed
    run raises.
    """
    x, y = np.array(seeds, dtype=float).reshape(-1, 2).T.copy()
    best = np.full((len(x), 3), np.inf)  # each lane's best x, y, residual
    stall = np.zeros(len(x), dtype=int)
    dropped = np.zeros(len(x), dtype=bool)
    live, error = np.arange(len(x)), None
    for _ in range(max_iter):
        live, got, error = _lanes(lambda k: model(x[k], y[k]), live, error)
        if not live.size:
            break
        res = np.asarray(got[0], dtype=float)
        dropped[live[~np.isfinite(res)]] = True
        better = res < best[live, 2]
        best[live[better]] = np.column_stack((x[live], y[live], res))[better]
        stall[live] = np.where(better, 0, stall[live] + 1)
        go = np.flatnonzero(np.isfinite(res) & (res != 0.0)
                            & (stall[live] < 3))
        go, delta, error = _lanes(got[1], go, error)
        live = live[go]
        if not live.size:
            continue
        delta = np.asarray(delta, dtype=float).reshape(-1, 2)
        finite = np.isfinite(delta).all(axis=1)
        dropped[live[~finite]] = True
        live, delta = live[finite], delta[finite]
        length = np.hypot(delta[:, 0], delta[:, 1])
        long = length > max_step
        delta[long] = delta[long] / (length[long] / max_step)[:, None]
        x[live] += delta[:, 0]
        y[live] += delta[:, 1]
    if error is not None:
        raise error
    return [None if dropped[k] or best[k, 2] > tol else tuple(best[k].tolist())
            for k in range(len(x))]


def _lanes(call, lanes: np.ndarray, error):
    """(lanes run, call(lanes run), error): all lanes, or where call raises,
    the lanes before the first one that raises alone, with its error."""
    if not lanes.size:
        return lanes, None, error
    try:
        return lanes, call(lanes), error
    except Exception:
        for k in range(len(lanes)):
            try:
                call(lanes[k:k + 1])
            except Exception as exc:
                return lanes[:k], (call(lanes[:k]) if k else None), exc
        raise
