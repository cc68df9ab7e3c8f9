"""Seeded workloads for the torsionlab benchmark, with an oracle per task.

Each workload is a pool of tasks drawn from the seed.  A run repeats the pool
in rounds, shuffling the order of each round with the same seeded generator.
A task is one call into torsionlab: either the in-process CLI
(``torsionlab.cli.main`` with stdout captured) or a library closure.  Every
task carries an oracle that knows the answer by construction, so the oracles
never compare torsionlab against itself, except for the catalog's
byte-identity check across passes.

Library functions are looked up through their module at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from torsionlab import cli, fixtures, indices, rotation
from torsionlab.indices import PlanarIsotopy

TWO_PI = 2.0 * math.pi

# orbit length of grid_scan: hyperbolic quadratic orbits grow past |X| = 1e4
# well before this; there gf_apply's absolute tolerance 1e-12 is below the
# float spacing and it raises SolverDiverged
ORBIT_STEPS = 60


class OracleMiss(Exception):
    """A task returned an output that its oracle rejects."""


@dataclass
class CliRun:
    rc: int
    stdout: str
    stderr: str


@dataclass
class Task:
    """One timed call into torsionlab and the oracle for its output.

    ``check`` raises OracleMiss for a wrong output.  A CLI task that exits
    with a code other than 0 fails before its check runs, unless
    ``check_exit`` hands the exit code to the check: ``fixture`` exits with
    1 when a claim fails, which is a wrong answer rather than an error.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    check_exit: bool = False


@dataclass
class Workload:
    tasks: list
    warmup: Task

    def round_order(self, rng: random.Random) -> list:
        order = list(self.tasks)
        rng.shuffle(order)
        return order


def run_cli(argv) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliRun(rc, out.getvalue(), err.getvalue())


def cli_task(kind, argv, check, check_exit=False) -> Task:
    return Task(kind, lambda: run_cli(argv), check, check_exit)


def need(cond, what) -> None:
    if not cond:
        raise OracleMiss(what)


def close(a, b, tol) -> bool:
    return abs(float(a) - float(b)) <= tol


def pt(z) -> str:
    """Point argument 'x,y'.  Callers pass it as --opt=x,y: argparse would
    read a separate value with a leading minus sign as an option."""
    return f"{float(z[0])!r},{float(z[1])!r}"


def shift(var: str, v: float) -> str:
    """'(x-0.3)' or '(x+0.3)'.

    Expression texts join signed numbers with + or - rather than writing a
    negative literal: a unary minus is a tree node of its own, and would
    make the evaluation cost of a scenario depend on the signs the seed drew.
    """
    return f"({var}{-v:+})"


def result_of(run: CliRun) -> dict:
    doc = json.loads(run.stdout)
    need("result" in doc, f"no result in output: {run.stdout[:200]}")
    return doc["result"]


def take_csv(path: Path) -> list:
    """Read an exported CSV and delete it, so that the next export creates a
    new file: rewriting a just-written file can wait on the file system's
    flush, which would time the disk instead of torsionlab."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    path.unlink()
    return rows


# --- catalog ------------------------------------------------------------------

def catalog(rng: random.Random, workdir: Path) -> Workload:
    """The eight shipped fixtures through ``main(["fixture", name])``."""
    refs = {}

    def task(name):
        def check(run):
            doc = json.loads(run.stdout)
            need(run.rc == 0 and doc["report"]["all_pass"],
                 f"{name}: a claim failed")
            # the first pass of this process is the reference for every later one
            need(refs.setdefault(name, run.stdout) == run.stdout,
                 f"{name}: JSON differs from the first pass")
        return cli_task(f"fixture.{name}", ["fixture", name], check,
                        check_exit=True)

    tasks = [task(n) for n in fixtures.fixture_names()]
    # ex5 is the heaviest fixture and builds the lazy Ex5Field value table
    warm = next(t for t in tasks if t.kind == "fixture.ex5_sin2_genfunc")
    return Workload(tasks, warm)


# --- grid_scan ------------------------------------------------------------------

class SinLattice:
    """g = A sin(p (x - x0)) sin(q (y - y0)) with A p q <= 0.45, below the
    declared twist bound 1/2.

    Saddles sit at (x0 + m pi/p, y0 + n pi/q), extrema at the half-period
    offsets; the region spans 1.25 half-periods each way, so it holds 9
    saddles and 4 extrema, none near its edge.
    """

    # critical-point scan grid; see Quadratic.cp_grid
    cp_grid = 128

    def __init__(self, rng, center_kind: str):
        self.p = round(rng.uniform(1.3, 1.8), 4)
        self.q = round(rng.uniform(1.3, 1.8), 4)
        self.A = round(rng.uniform(0.35, 0.45) / (self.p * self.q), 6)
        self.x0 = round(rng.uniform(-0.5, 0.5), 4)
        self.y0 = round(rng.uniform(-0.5, 0.5), 4)
        hx, hy = math.pi / self.p, math.pi / self.q
        self.region = [self.x0 - 1.25 * hx, self.x0 + 1.25 * hx,
                       self.y0 - 1.25 * hy, self.y0 + 1.25 * hy]
        self.points = [(self.x0 + m * hx, self.y0 + n * hy, "Saddle")
                       for m in (-1, 0, 1) for n in (-1, 0, 1)]
        for m in (-0.5, 0.5):
            for n in (-0.5, 0.5):
                sign = math.sin(self.p * m * hx) * math.sin(self.q * n * hy)
                kind = "Max" if self.A * sign > 0 else "Min"
                self.points.append((self.x0 + m * hx, self.y0 + n * hy, kind))
        self.radius = 0.25 * min(hx, hy)
        # bound on the Hessian's norm
        self.hess_bound = 2.0 * self.A * max(self.p, self.q) ** 2
        self.center = rng.choice([z[:2] for z in self.points
                                  if z[2] == center_kind])
        self.center_kind = center_kind
        sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
        saddle = rng.choice(self.points[:9])
        # halfway between a saddle and a diagonal extremum: the gradient is
        # far from zero there
        self.transversal_at = (saddle[0] + 0.25 * sx * hx,
                               saddle[1] + 0.25 * sy * hy)
        self.orbit_start = (rng.uniform(*self.region[:2]),
                            rng.uniform(*self.region[2:]))

    def text(self):
        return (f"{self.A!r}*sin({self.p!r}*{shift('x', self.x0)})"
                f"*sin({self.q!r}*{shift('y', self.y0)})")

    def jet(self, x, y):
        """(g, gx, gy, gxx, gxy, gyy) in closed form."""
        A, p, q = self.A, self.p, self.q
        su, cu = math.sin(p * (x - self.x0)), math.cos(p * (x - self.x0))
        sv, cv = math.sin(q * (y - self.y0)), math.cos(q * (y - self.y0))
        return (A * su * sv, A * p * cu * sv, A * q * su * cv,
                -A * p * p * su * sv, A * p * q * cu * cv, -A * q * q * su * sv)

    def orbit_ok(self, rows):
        """Every step solves X - x = d2g(X, y), Y - y = -d1g(X, y)."""
        for (_, x, y), (_, X, Y) in zip(rows, rows[1:]):
            _, gx, gy, _, _, _ = self.jet(X, y)
            need(close(X - x, gy, 1e-9) and close(Y - y, -gx, 1e-9),
                 f"orbit step ({x}, {y}) -> ({X}, {Y}) misses the implicit map")


class Quadratic:
    """g = a u^2 + b v^2 + c u v with (u, v) = (x - x0, y - y0).

    The time-one map is linear in (u, v).  A definite Hessian (Min, Max)
    gives an elliptic map, so orbits stay bounded; an indefinite one
    (Saddle) gives a hyperbolic map whose orbits grow by a factor of at
    least 1.47 a step.
    """

    # The lattice's scan refines about five times as many Newton seeds; this
    # finer grid makes the two scans cost alike, so the p90 falls inside
    # one group of similar tasks.
    cp_grid = 160

    def __init__(self, rng, center_kind: str):
        s = -1.0 if center_kind == "Max" else 1.0
        t = -s if center_kind == "Saddle" else s
        # |a|, |b| >= 0.2: 4ab - c^2 >= 0.12 for Min and Max
        self.a = round(s * rng.uniform(0.2, 0.4), 4)
        self.b = round(t * rng.uniform(0.2, 0.4), 4)
        self.c = round(rng.choice((-1, 1)) * rng.uniform(0.1, 0.2), 4)
        self.x0 = round(rng.uniform(-0.5, 0.5), 4)
        self.y0 = round(rng.uniform(-0.5, 0.5), 4)
        self.region = [self.x0 - 1.0, self.x0 + 1.0, self.y0 - 1.0, self.y0 + 1.0]
        self.points = [(self.x0, self.y0, center_kind)]
        self.center, self.center_kind = (self.x0, self.y0), center_kind
        self.radius = 0.3
        self.hess_bound = 2 * abs(self.a) + 2 * abs(self.b) + abs(self.c)
        phi = rng.uniform(0.0, TWO_PI)
        self.transversal_at = (self.x0 + 0.5 * math.cos(phi),
                               self.y0 + 0.5 * math.sin(phi))
        phi = rng.uniform(0.0, TWO_PI)
        self.orbit_start = (self.x0 + 0.3 * math.cos(phi),
                            self.y0 + 0.3 * math.sin(phi))

    def text(self):
        u, v = shift("x", self.x0), shift("y", self.y0)
        if self.center_kind == "Max":  # a, b < 0: one leading minus, always
            return f"-({-self.a!r}*{u}^2{-self.b:+}*{v}^2{-self.c:+}*{u}*{v})"
        return f"{self.a!r}*{u}^2{self.b:+}*{v}^2{self.c:+}*{u}*{v}"

    def jet(self, x, y):
        a, b, c = self.a, self.b, self.c
        u, v = x - self.x0, y - self.y0
        return (a * u * u + b * v * v + c * u * v, 2 * a * u + c * v,
                2 * b * v + c * u, 2 * a, c, 2 * b)

    def orbit_ok(self, rows):
        a, b, c = self.a, self.b, self.c
        u, v = rows[0][1] - self.x0, rows[0][2] - self.y0
        for _, x, y in rows[1:]:
            u = (u + 2 * b * v) / (1 - c)
            v = v - 2 * a * u - c * v
            scale = max(1.0, math.hypot(u, v))
            need(close(x - self.x0, u, 1e-9 * scale)
                 and close(y - self.y0, v, 1e-9 * scale),
                 f"orbit point ({x}, {y}) differs from the linear map")


def time_one_jacobian(g, z) -> np.ndarray:
    """Jacobian of the generated time-one map at a critical point of g."""
    _, _, _, r, s, q = g.jet(*z)
    return (1.0 / (1.0 - s)) * np.array([[1.0, q], [-r, -r * q + (1.0 - s) ** 2]])


def rotation_oracle(M) -> tuple:
    """(case, rho) of a unit-determinant map near its identity path.

    Complex eigenvalues e^{+-i theta} give rho = +-theta/2pi with the sign of
    the lower-left entry; positive real eigenvalues give rho = 0.
    """
    tr = float(np.trace(M))
    if abs(tr) < 2.0:
        theta = math.acos(tr / 2.0)
        return "ComplexEigen", math.copysign(theta / TWO_PI, M[1, 0])
    return "PositiveSaddle", 0.0


def grid_scan(rng: random.Random, workdir: Path) -> Workload:
    """Expression generating functions with critical points known by
    construction, through ``analyze`` and ``export``.

    The centre kinds are fixed per round so that every seed does the same
    mix of work.  The Saddle quadratic's orbit grows past |X| = 1e4, where
    the solver's absolute tolerance is below the float spacing (see
    ORBIT_STEPS); it is drawn like any other orbit.
    """
    kinds = ("Saddle", "Min", "Max")
    scenarios = [SinLattice(rng, k) for k in kinds * 3]
    scenarios += [Quadratic(rng, k) for k in kinds]
    tasks = []
    for i, g in enumerate(scenarios):
        path = workdir / f"grid{i}.json"
        path.write_text(json.dumps({
            "schema": 1, "kind": "genfunc", "name": f"grid{i}",
            "expressions": {"g": g.text()},
            "parameters": {"twist_bound_c": 0.5}, "region": g.region}))
        tasks += _grid_tasks(g, path, workdir / f"grid{i}")
    return Workload(tasks, tasks[0])


def _grid_tasks(g, path: Path, stem: Path) -> list:
    analyze = ["analyze", "--scenario", path]
    cz = pt(g.center)

    def critical(run):
        found = result_of(run)["critical_points"]
        need(len(found) == len(g.points),
             f"{len(found)} critical points, expected {len(g.points)}")
        for x, y, kind in g.points:
            hit = [p for p in found if math.hypot(p["x"] - x, p["y"] - y) <= 1e-6]
            need(len(hit) == 1 and hit[0]["morse"] == kind,
                 f"critical point ({x}, {y}) {kind} not found once")

    def fol_index(run):
        res = result_of(run)
        want = {"Saddle": (-1, "Saddle"), "Min": (1, "Source"),
                "Max": (1, "Sink")}[g.center_kind]
        need((res["index"], res["class"]) == want, f"foliation index {res}")

    M = time_one_jacobian(g, g.center)
    lef_want = int(np.sign(np.linalg.det(M - np.eye(2))))
    case, rho = rotation_oracle(M)

    def lefschetz(run):
        need(result_of(run)["index"] == lef_want, "Lefschetz index")

    def torsion(run):
        res = result_of(run)
        need(res["classification"] == "TorsionLow" and res["case"] == case
             and not res["degenerate"] and close(res["rho"], rho, 1e-9),
             f"torsion-low {res}, expected {case} rho {rho}")

    def transversal(run):
        res = result_of(run)
        need(res["verdict"] == "PositivelyTransverse" and res["min_det"] > 0,
             f"transversality {res}")

    # leaves short enough that leaves from a saddle or a minimum do not
    # reach the next critical point
    n_leaves, seed_r, step, max_len = 6, 0.5 * g.radius, 0.01, 0.6
    leaves_csv = stem.with_suffix(".leaves.csv")

    def leaves(run):
        rows = take_csv(leaves_csv)
        need(rows[0] == ["leaf_id", "s", "x", "y"], "leaves header")
        by_leaf = {}
        for r in rows[1:]:
            by_leaf.setdefault(int(r[0]), []).append(tuple(map(float, r[1:])))
        need(sorted(by_leaf) == list(range(n_leaves)), "leaf ids")
        H = g.hess_bound
        for k, pts in by_leaf.items():
            a = TWO_PI * k / n_leaves
            need(close(pts[0][1], g.center[0] + seed_r * math.cos(a), 1e-12)
                 and close(pts[0][2], g.center[1] + seed_r * math.sin(a), 1e-12),
                 f"leaf {k} does not start on the seed circle")
            # unit-speed steps uphill along grad g; only within about two
            # steps of a critical point (|grad g| <= 2 step H) may the fixed
            # step overshoot, and then by less than H step^2 in g
            for i, ((_, x0, y0), (s1, x1, y1)) in enumerate(zip(pts, pts[1:])):
                need(close(s1, (i + 1) * step, 1e-9), f"leaf {k} parameter")
                need(math.hypot(x1 - x0, y1 - y0) <= step * (1 + 1e-9),
                     f"leaf {k} step longer than {step}")
                g0, gx, gy = g.jet(x0, y0)[:3]
                drop = g0 - g.jet(x1, y1)[0]
                if drop > 1e-15:
                    need(math.hypot(gx, gy) <= 2 * step * H
                         and drop <= H * step * step,
                         f"leaf {k} goes downhill by {drop} at step {i}")

    orbit_csv = stem.with_suffix(".orbit.csv")

    def orbit(run):
        rows = take_csv(orbit_csv)
        need(rows[0] == ["iter", "x", "y"] and len(rows) == ORBIT_STEPS + 2,
             "orbit header or length")
        g.orbit_ok([(int(r[0]), float(r[1]), float(r[2])) for r in rows[1:]])

    r = repr(g.radius)
    return [
        cli_task("analyze.critical-points",
                 analyze + ["--op", "critical-points", "--grid", g.cp_grid],
                 critical),
        cli_task("analyze.foliation-index",
                 analyze + ["--op", "foliation-index", f"--center={cz}",
                            "--radius", r], fol_index),
        cli_task("analyze.lefschetz",
                 analyze + ["--op", "lefschetz", f"--center={cz}", "--radius", r],
                 lefschetz),
        cli_task("analyze.torsion-low",
                 analyze + ["--op", "torsion-low", f"--at={cz}"], torsion),
        cli_task("analyze.transversality",
                 analyze + ["--op", "transversality",
                            f"--at={pt(g.transversal_at)}"], transversal),
        cli_task("export.leaves",
                 ["export", "--scenario", path, "--leaves", n_leaves,
                  f"--around={cz}", "--seed-radius", repr(seed_r),
                  "--step", step, "--max-len", max_len, "--out", leaves_csv],
                 leaves),
        cli_task("export.orbit",
                 ["export", "--scenario", path, f"--orbit={pt(g.orbit_start)}",
                  "--steps", ORBIT_STEPS, "--out", orbit_csv], orbit),
    ]


# --- winding_track ----------------------------------------------------------------

def escape_isotopy(k: float) -> PlanarIsotopy:
    """Rotation about the origin by k t / |z| turns: rho = k / |z|."""

    def ev(t, z):
        a = TWO_PI * k * t / math.hypot(z[0], z[1])
        c, s = math.cos(a), math.sin(a)
        return (c * z[0] - s * z[1], s * z[0] + c * z[1])

    return PlanarIsotopy(eval=ev, fixed_point_hint=(0.0, 0.0),
                         provenance=f"escape k={k}")


class Traceless:
    """L = [[a, b], [c, -a]]; t -> expm(t L) in closed form.

    det L > 0 is elliptic with rho = +-sqrt(det L)/2pi (sign of c); det L < 0
    is hyperbolic with rho = 0.  Elliptic draws keep rho at least 0.05 from
    an integer.
    """

    def __init__(self, rng, elliptic: bool):
        self.elliptic = elliptic
        while True:
            a, b, c = (round(rng.uniform(-2.0, 2.0), 4) for _ in range(3))
            det = -a * a - b * c
            if elliptic and det > 0:
                frac = math.sqrt(det) / TWO_PI
                if 0.05 < frac < 1.8 and abs(frac - round(frac)) > 0.05:
                    break
            if not elliptic and det < -0.25:
                break
        self.a, self.b, self.c = a, b, c
        self.mu = math.sqrt(abs(det))
        self.rho = math.copysign(self.mu / TWO_PI, c) if elliptic else 0.0

    def coeffs(self, t):
        """(C, S) with expm(t L) = C I + S L."""
        m = self.mu
        if self.elliptic:
            return math.cos(m * t), math.sin(m * t) / m
        return math.cosh(m * t), math.sinh(m * t) / m

    def matrix(self, t) -> np.ndarray:
        C, S = self.coeffs(t)
        return np.array([[C + S * self.a, S * self.b], [S * self.c, C - S * self.a]])

    def isotopy(self) -> PlanarIsotopy:
        def ev(t, z):
            C, S = self.coeffs(t)
            return (C * z[0] + S * (self.a * z[0] + self.b * z[1]),
                    C * z[1] + S * (self.c * z[0] - self.a * z[1]))

        return PlanarIsotopy(eval=ev, fixed_point_hint=(0.0, 0.0),
                             provenance="expm(tL)")

    def expressions(self):
        m = repr(self.mu)
        if self.elliptic:
            C, S = f"cos({m}*t)", f"sin({m}*t)/{m}"
        else:
            C = f"(exp({m}*t)+exp(-{m}*t))/2"
            S = f"(exp({m}*t)-exp(-{m}*t))/(2*{m})"
        # x' = (C + S a) x + S b y,  y' = (C - S a) y + S c x
        a, b, c = self.a, self.b, self.c
        return {"x": f"({C}{a:+}*{S})*x{b:+}*{S}*y",
                "y": f"({C}{-a:+}*{S})*y{c:+}*{S}*x"}

    def isotopy_index(self) -> int:
        # elliptic: every trajectory turns the same way, so the lifted
        # displacement never points along the fibre; hyperbolic with
        # positive eigenvalues: the lift winds -2
        return 0 if self.elliptic else -2

    def classification(self) -> str:
        return "TorsionLow" if -1.0 < self.rho < 1.0 else "NotTorsionLow"


def rotation_expressions(center, k):
    """J^k about center: z' = c + R(2 pi k t)(z - c)."""
    cx, cy = center
    dx, dy = shift("x", cx), shift("y", cy)
    c, s = f"cos(2*pi*{abs(k)}*t)", f"sin(2*pi*{abs(k)}*t)"
    minus, plus = ("-", "+") if k > 0 else ("+", "-")
    return {"x": f"{c}*{dx}{minus}{s}*{dy}{cx:+}",
            "y": f"{c}*{dy}{plus}{s}*{dx}{cy:+}"}


ESC_LEVELS, ESC_NMAX, ESC_SEEDS = 2, 4, 6
# levels x orbit lengths (1, 2, 4) x seeds: rotation keeps |z|, so every
# window seed is kept
ESC_KEPT = ESC_LEVELS * 3 * ESC_SEEDS


def _escape(rng):
    """Escape rate k and an outer radius 0.05 k: scaling the windows with k
    keeps every draw at the same 20-80 turns a step, so cost does not
    depend on the draw."""
    k = round(rng.uniform(0.5, 2.0), 4)
    return k, 0.05 * k


def _escape_rho_ok(k, z, rho):
    need(close(rho, k / math.hypot(*z), 1e-9), f"rho {rho} at {z}, k {k}")


def _escape_set_ok(k, r0, lo, hi, lo_unbounded, hi_unbounded, threshold):
    U, V = r0 / 2.0 ** (ESC_LEVELS - 1), r0 / 2.0 ** (ESC_LEVELS + 1)
    need(k / U - 1e-9 <= lo <= hi <= k / V + 1e-9,
         f"[{lo}, {hi}] outside [{k / U}, {k / V}]")
    need(hi_unbounded == (hi > threshold) and not lo_unbounded,
         "divergence flags")


def _rigid(rng):
    """J^k about a seeded centre and a second point: linking = k."""
    c = (round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4))
    k = rng.choice((-3, -2, -1, 1, 2, 3))
    d, a = rng.uniform(0.2, 1.0), rng.uniform(0.0, TWO_PI)
    return c, k, (c[0] + d * math.cos(a), c[1] + d * math.sin(a))


def _write(path, kind, exprs) -> Path:
    path.write_text(json.dumps({"schema": 1, "kind": kind, "expressions": exprs}))
    return path


def w_samples(rng, path):
    k, U = _escape(rng)
    iso = escape_isotopy(k)

    def check(out):
        need(len(out) == ESC_SEEDS, f"{len(out)} of {ESC_SEEDS} seeds kept")
        for z, rho in out:
            _escape_rho_ok(k, z, rho)

    return Task("lib.rotation_samples", lambda: rotation.rotation_samples(
        iso, (0.0, 0.0), U, U / 4, n=2, seeds=ESC_SEEDS), check)


def w_rotation_set(rng, path):
    k, r0 = _escape(rng)
    thr = round(rng.uniform(5.0, 500.0), 2)
    iso = escape_isotopy(k)

    def check(est):
        need(len(est.samples) == ESC_KEPT, f"{len(est.samples)} samples")
        for _, rho, z in est.samples:
            _escape_rho_ok(k, z, rho)
        _escape_set_ok(k, r0, est.lo, est.hi, est.lo_unbounded,
                       est.hi_unbounded, thr)

    return Task("lib.local_rotation_set_estimate",
                lambda: rotation.local_rotation_set_estimate(
                    iso, (0.0, 0.0), r0, ESC_LEVELS, ESC_NMAX, thr,
                    seeds=ESC_SEEDS), check)


def w_scen_rotation_set(rng, path):
    k, r0 = _escape(rng)
    thr = round(rng.uniform(5.0, 500.0), 2)
    _write(path, "annulus_isotopy", {"X": f"x-{k!r}*t/y", "Y": "y"})

    def check(run):
        res = result_of(run)
        need(res["n_samples"] == ESC_KEPT, f"{res['n_samples']} samples")
        _escape_set_ok(k, r0, res["lo"], res["hi"], res["lo_unbounded"],
                       res["hi_unbounded"], thr)

    return cli_task("analyze.rotation-set", [
        "analyze", "--scenario", path, "--op", "rotation-set", "--center", "star",
        "--r0", repr(r0), "--levels", ESC_LEVELS, "--n-max", ESC_NMAX,
        "--threshold", thr, "--seeds", ESC_SEEDS], check)


def w_linking(rng, path):
    c, k, z1 = _rigid(rng)
    return Task("lib.linking_number",
                lambda: indices.linking_number(indices.rotation_isotopy(c, k),
                                               c, z1),
                lambda out: need(out == k, f"linking {out}, expected {k}"))


def w_compare(rng, path):
    c, k, _ = _rigid(rng)
    k2 = rng.choice([j for j in (-3, -2, -1, 1, 2, 3) if j != k])
    want = "Greater" if k > k2 else "Less"
    return Task("lib.compare_isotopies",
                lambda: indices.compare_isotopies(
                    indices.rotation_isotopy(c, k),
                    indices.rotation_isotopy(c, k2), c, 0.3, grid=8),
                lambda out: need(out.relation == want,
                                 f"{out.relation}, expected {want}"))


def w_scen_linking(rng, path):
    c, k, z1 = _rigid(rng)
    _write(path, "isotopy", rotation_expressions(c, k))
    return cli_task("analyze.linking", [
        "analyze", "--scenario", path, "--op", "linking", f"--z0={pt(c)}",
        f"--z1={pt(z1)}"], lambda run: need(result_of(run)["linking"] == k,
                                            "linking"))


def w_scen_blowup(rng, path):
    c, k, _ = _rigid(rng)
    _write(path, "isotopy", rotation_expressions(c, k))
    return cli_task("analyze.blowup-rotation", [
        "analyze", "--scenario", path, "--op", "blowup-rotation", f"--at={pt(c)}"],
        lambda run: need(close(result_of(run)["rho"], k, 1e-6), "rho"))


def w_blowup(rng, path, elliptic, half_turn):
    L = Traceless(rng, elliptic)
    # a closing half turn adds 1/2 to rho: the negative-pair class
    shift = 0.5 if half_turn else 0.0
    dpath = (lambda t: rotation.compose_turn(L.matrix, 0.5)(t)) if half_turn \
        else L.matrix
    return Task("lib.isotopy_blowup_rotation",
                lambda: rotation.isotopy_blowup_rotation(dpath),
                lambda out: need(close(out, L.rho + shift, 1e-8),
                                 f"rho {out}, expected {L.rho + shift}"))


def w_torsion(rng, path, elliptic):
    L = Traceless(rng, elliptic)

    def check(v):
        need(close(v.rho, L.rho, 1e-8) and not v.degenerate
             and v.classification == L.classification()
             and (v.case_tag == "ComplexEigen") == L.elliptic,
             f"torsion verdict {v}")

    return Task("lib.torsion_low_classify",
                lambda: rotation.torsion_low_classify(L.matrix), check)


def w_isotopy_index(rng, path, elliptic):
    L = Traceless(rng, elliptic)
    iso = L.isotopy()
    return Task("lib.isotopy_index",
                lambda: indices.isotopy_index(iso, (0.0, 0.0), 0.5, 64),
                lambda out: need(out == L.isotopy_index(), f"isotopy index {out}"))


def w_scen_torsion(rng, path, elliptic):
    L = Traceless(rng, elliptic)
    _write(path, "isotopy", L.expressions())

    def check(run):
        res = result_of(run)
        need(close(res["rho"], L.rho, 1e-6)
             and res["classification"] == L.classification(),
             f"torsion-low {res}")

    return cli_task("analyze.torsion-low", [
        "analyze", "--scenario", path, "--op", "torsion-low", "--at=0.0,0.0"],
        check)


def w_scen_isotopy_index(rng, path, elliptic):
    L = Traceless(rng, elliptic)
    _write(path, "isotopy", L.expressions())
    return cli_task("analyze.isotopy-index", [
        "analyze", "--scenario", path, "--op", "isotopy-index",
        "--center=0.0,0.0", "--radius", "0.5", "--samples", "64"],
        lambda run: need(result_of(run)["index"] == L.isotopy_index(),
                         "isotopy index"))


ELL, HYP = {"elliptic": True}, {"elliptic": False}

# (builder, keyword arguments, tasks per round).  19 of the 29 tasks are
# library closures.  Sorted by cost, the counts put the median inside the
# four compare_isotopies tasks and the p90 inside the four rotation-set
# scenarios; neither task's cost depends on the drawn parameters, so both
# percentiles hold steady across seeds.
WINDING_POOL = (
    (w_linking, {}, 2),
    (w_torsion, ELL, 1), (w_torsion, HYP, 1),
    (w_blowup, dict(ELL, half_turn=False), 1),
    (w_blowup, dict(ELL, half_turn=True), 1),
    (w_blowup, dict(HYP, half_turn=False), 1),
    (w_blowup, dict(HYP, half_turn=True), 1),
    (w_scen_linking, {}, 1),
    (w_samples, {}, 2),
    (w_isotopy_index, ELL, 1), (w_isotopy_index, HYP, 1),
    (w_compare, {}, 4),
    (w_scen_blowup, {}, 1),
    (w_scen_torsion, ELL, 1), (w_scen_torsion, HYP, 1),
    (w_rotation_set, {}, 3),
    (w_scen_isotopy_index, ELL, 1), (w_scen_isotopy_index, HYP, 1),
    (w_scen_rotation_set, {}, 4),
)


def winding_track(rng: random.Random, workdir: Path) -> Workload:
    """Isotopies with closed-form rotation numbers, indices and linking:
    the escape model, rigid rotations J^k and derivative paths expm(t L).

    Two thirds of the tasks are library closures; the rest are the same
    systems as ``isotopy`` / ``annulus_isotopy`` scenarios through
    ``analyze``, evaluated one point at a time by the expression value
    interpreter.
    """
    tasks = []
    for build, kwargs, count in WINDING_POOL:
        for _ in range(count):
            tasks.append(build(rng, workdir / f"wind{len(tasks)}.json", **kwargs))
    warm = next(t for t in tasks if t.kind == "analyze.rotation-set")
    return Workload(tasks, warm)


WORKLOADS = {"catalog": catalog, "grid_scan": grid_scan,
             "winding_track": winding_track}
