"""Named scenario catalog: explicit planar and cylinder systems with their
published claims encoded as expected values.

Sphere-model scenarios live on the cylinder R/Z x [0, 1] with the two
boundary circles standing for the blown-down points S and N; rotation
numbers at S and N are translation numbers of the lift on the boundary
circles.  The local disk model at N that preserves orientation is
w = (1 - y) e^{+2 pi i x}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import UnknownFixture
from .expr import ExprField, Jet2
from .foliate import (
    Foliation, gradient_foliation, classify_singularity, transversality_report,
)
from .genfunc import GenIsotopy, find_critical_points, gf_apply, gf_jacobian
from .geom import TWO_PI, Polyline, circle_rotation_number
from .indices import (
    PlanarIsotopy, genfunc_isotopy, homothety_isotopy, index_relation_check,
    isotopy_index, lefschetz_index,
)
from .rotation import (
    AnnulusLiftMap, local_rotation_set_estimate, rotation_samples,
    twist_check_and_search,
)

PROV_PAPER = "paper"
PROV_DERIVED = "derived"
PROV_TRIVIAL = "trivial"


# --- pinned bump functions ----------------------------------------------------

PHI5_A = 1.0 / 96.0  # positive-bump amplitude; negative bump is 3x deeper


def phi5(s: float) -> float:
    """1-periodic C^1 bump: positive on (0, 3/4), negative on (3/4, 1).

    Masses cancel exactly (A * 3/8 = 3A * 1/8) and the negative branch
    stays strictly below s sin^2(pi/s) (amplitude ratio at s -> 1 is
    48 * A = 1/2).  An array gets the float path's bits lane by lane (a
    test holds numpy's sin to math's): float_power squares with libm's
    pow, as ** does on floats.
    """
    u = s % 1.0
    if isinstance(u, np.ndarray):
        return np.where(
            u <= 0.75,
            PHI5_A * np.float_power(np.sin(4.0 * np.pi * u / 3.0), 2),
            -3.0 * PHI5_A
            * np.float_power(np.sin(4.0 * np.pi * (u - 0.75)), 2))
    if u <= 0.75:
        return PHI5_A * math.sin(4.0 * math.pi * u / 3.0) ** 2
    return -3.0 * PHI5_A * math.sin(4.0 * math.pi * (u - 0.75)) ** 2


def phi5_prime(s: float) -> float:
    u = s % 1.0
    if isinstance(u, np.ndarray):
        return np.where(
            u <= 0.75,
            PHI5_A * (4.0 * np.pi / 3.0) * np.sin(8.0 * np.pi * u / 3.0),
            -3.0 * PHI5_A * 4.0 * np.pi * np.sin(8.0 * np.pi * (u - 0.75)))
    if u <= 0.75:
        return PHI5_A * (4.0 * math.pi / 3.0) * math.sin(8.0 * math.pi * u / 3.0)
    return -3.0 * PHI5_A * 4.0 * math.pi * math.sin(8.0 * math.pi * (u - 0.75))


def phi5_integral(y: float) -> float:
    """Exact antiderivative of phi5 on [0, 1] with phi5_integral(0) = 0."""
    if isinstance(y, np.ndarray):
        v = y - 0.75
        return np.where(y <= 0.75, PHI5_A * (
            y / 2.0 - 3.0 * np.sin(8.0 * np.pi * y / 3.0) / (16.0 * np.pi)),
            PHI5_A * 0.375 - 3.0 * PHI5_A * (
                v / 2.0 - np.sin(8.0 * np.pi * v) / (16.0 * np.pi)))
    if y <= 0.75:
        return PHI5_A * (y / 2.0 - 3.0 * math.sin(8.0 * math.pi * y / 3.0)
                         / (16.0 * math.pi))
    v = y - 0.75
    mass = PHI5_A * 0.375
    return mass - 3.0 * PHI5_A * (v / 2.0 - math.sin(8.0 * math.pi * v)
                                  / (16.0 * math.pi))


def phi4(y: float) -> float:
    """Diffeomorphism of [0, 1]: identity outside (1/6, 5/6), below it inside."""
    if y <= 1.0 / 6.0 or y >= 5.0 / 6.0:
        return y
    return y - 0.15 * math.sin(math.pi * (6.0 * y - 1.0) / 4.0) ** 2


class Ex5Field:
    """The sin^2 generating function with the pinned bump phi5.

    Partial derivatives are closed-form; the value integrates the
    oscillatory s sin^2(pi/s) term from a cached cumulative table (display
    accuracy only; no computation below depends on the value).
    """

    _table: Optional[tuple] = None

    @classmethod
    def _value_table(cls):
        if cls._table is None:
            n = 1 << 15
            s = np.linspace(0.0, 1.0, n + 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                integrand = np.where(s > 0.0,
                                     s * np.sin(np.pi / np.maximum(s, 1e-300)) ** 2,
                                     0.0)
            cum = np.concatenate(
                ([0.0], np.cumsum((integrand[1:] + integrand[:-1]) * 0.5 / n)))
            cls._table = (s, cum)
        return cls._table

    def _ih(self, y: float) -> float:
        s, cum = self._value_table()
        return float(np.interp(y, s, cum))

    def jet2(self, x, y) -> Jet2:
        """Jet at floats or broadcastable arrays.

        Arrays get the scalar path's bits: the terms take numpy's sin and
        cos (held to math's by a test), one np.interp reads the value
        table, and the terms combine elementwise with the same operations.
        """
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            x, y = np.asarray(x, float), np.asarray(y, float)
            inside = ~((y <= 0.0) | (y >= 1.0))  # NaN falls inside, as below
            y_in = np.where(inside, y, 0.5)
            with np.errstate(over="ignore"):  # math.sin(inf) raises
                if np.isinf(x).any() or np.isinf(math.pi / y_in).any():
                    raise ValueError("math domain error")
            jet = self._combine(self._x_terms(x),
                                np.interp(y_in, *self._value_table()),
                                self._y_terms(y_in))
            outside = (np.where(y <= 0.0, 0.0, self._ih(1.0)),
                       0.0, 0.0, 0.0, 0.0, 0.0)
            return Jet2(*(np.where(inside, a, b) for a, b in zip(
                (jet.f, jet.fx, jet.fy, jet.fxx, jet.fxy, jet.fyy), outside)))
        if y <= 0.0:
            return Jet2(0.0)
        if y >= 1.0:
            return Jet2(self._ih(1.0))
        return self._combine(self._x_terms(x), self._ih(y), self._y_terms(y))

    @staticmethod
    def _x_terms(x: float) -> tuple:
        sin, cos = (np.sin, np.cos) if isinstance(x, np.ndarray) else \
            (math.sin, math.cos)
        return (sin(math.pi * x), sin(2.0 * math.pi * x),
                cos(2.0 * math.pi * x))

    @staticmethod
    def _y_terms(y: float) -> tuple:
        piy = math.pi / y
        if isinstance(y, np.ndarray):
            sq, s2 = np.float_power(np.sin(piy), 2), np.sin(2.0 * piy)
        else:
            sq, s2 = math.sin(piy) ** 2, math.sin(2.0 * piy)
        return (y * sq, sq - piy * s2, phi5(y), phi5_prime(y),
                phi5_integral(y))

    @staticmethod
    def _combine(x_terms, ih, y_terms) -> Jet2:
        sx, s2x, c2x = x_terms
        h, hp, p, pp, big_phi = y_terms
        return Jet2(
            ih + big_phi * sx * sx,
            math.pi * s2x * big_phi,
            h + p * sx * sx,
            2.0 * math.pi ** 2 * c2x * big_phi,
            math.pi * p * s2x,
            hp + pp * sx * sx,
        )


def ex5_north_model_field() -> Foliation:
    """Gradient field of the ex5 generating function pushed to the disk
    model w = (1 - y) e^{+2 pi i x} around the blown-down circle y = 1."""
    g = Ex5Field()

    def direction(wx: float, wy: float) -> tuple:
        rho = math.hypot(wx, wy)
        if rho == 0.0 or rho >= 1.0:
            return (0.0, 0.0)
        x = math.atan2(wy, wx) / TWO_PI
        y = 1.0 - rho
        jet = g.jet2(x, y)
        a = TWO_PI * x
        ca, sa = math.cos(a), math.sin(a)
        return (jet.fx * (-TWO_PI * rho * sa) + jet.fy * (-ca),
                jet.fx * (TWO_PI * rho * ca) + jet.fy * (-sa))

    return Foliation(direction=direction)


# --- example 1: homothety and its two cover-line foliations --------------------

def ex1_foliation_f1() -> Foliation:
    """Push-forward of the cover lines y = theta + c (upward): spiral sink."""

    def direction(x: float, y: float) -> tuple:
        r = math.hypot(x, y)
        if r == 0.0:
            return (0.0, 0.0)
        return (-TWO_PI * y - x / r, TWO_PI * x - y / r)

    return Foliation(direction=direction)


def ex1_foliation_f2() -> Foliation:
    """Push-forward of the cover lines y = -theta + c (downward): source."""

    def direction(x: float, y: float) -> tuple:
        r = math.hypot(x, y)
        if r == 0.0:
            return (0.0, 0.0)
        return (-TWO_PI * y + x / r, TWO_PI * x + y / r)

    return Foliation(direction=direction)


# --- example 2: the quadrant flow ----------------------------------------------

def ex2_vector_field(x: float, y: float) -> tuple:
    if x > 0.0 and y > 0.0:
        r2 = x * x + y * y
        return (x * (x * x - 3.0 * y * y) / r2, y * (3.0 * x * x - y * y) / r2)
    if x <= 0.0 and y >= 0.0:
        return (-x, -y)
    if x <= 0.0 and y <= 0.0:
        return (-x, y)
    return (x, y)


def ex2_transverse_field(x: float, y: float) -> tuple:
    vx, vy = ex2_vector_field(x, y)
    return (-vy, vx)  # rotate the flow field by +90 degrees


def ex2_flow(t: float, z) -> tuple:
    x, y = float(z[0]), float(z[1])
    if x > 0.0 and y > 0.0:
        num = x * x + y * y
        den = x * x * math.exp(-2.0 * t) + y * y * math.exp(2.0 * t)
        return (num / den * x * math.exp(-t), num / den * y * math.exp(t))
    if x <= 0.0 and y >= 0.0:
        return (x * math.exp(-t), y * math.exp(-t))
    if x <= 0.0 and y <= 0.0:
        return (x * math.exp(-t), y * math.exp(t))
    return (x * math.exp(t), y * math.exp(t))


# --- example 3: annulus escape --------------------------------------------------

def ex3_isotopy() -> PlanarIsotopy:
    """Planar model at the upper end of the annulus map (x, y) -> (x - 1/y, y):
    rotation by t / |z| turns (counterclockwise; the escape is to +infinity)."""

    def ev(t, z):
        r = math.hypot(z[0], z[1])
        a = TWO_PI * t / r
        c, s = math.cos(a), math.sin(a)
        return (c * z[0] - s * z[1], s * z[0] + c * z[1])

    return PlanarIsotopy(eval=ev, fixed_point_hint=(0.0, 0.0),
                         provenance="annulus escape model")


# --- cylinder lifts --------------------------------------------------------------

def ex4_lift(x: float, y: float) -> tuple:
    return (x + 3.0 * y, phi4(y))


def ex6_lift(x: float, y: float) -> tuple:
    if y <= 1.0 / 3.0:
        return (x, y)
    if y <= 2.0 / 3.0:
        return (x + 3.0 * y - 1.0, y)
    return (x + 1.0, y)


def ex7_lift(x: float, y: float) -> tuple:
    return (x + y, y)


def boundary_rotation_number(lift: Callable[[float, float], tuple],
                             y_boundary: float, n_iter: int = 8) -> float:
    """Translation number of the lift restricted to a boundary circle."""
    return circle_rotation_number(lambda x: lift(x, y_boundary)[0], n_iter)


# --- scenario / claim machinery --------------------------------------------------

@dataclass
class Claim:
    description: str
    operation: str
    args: dict
    expected: object
    tolerance: float
    provenance: str
    comparator: str  # approx | exact | contains_points | at_least | all_equal
    compute: Callable[["Scenario"], object] = dc_field(repr=False, default=None)

    def spec(self) -> dict:
        return {
            "description": self.description,
            "operation": self.operation,
            "args": self.args,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "provenance": self.provenance,
            "comparator": self.comparator,
        }


@dataclass
class Scenario:
    name: str
    kind: str
    definition: dict
    claims: list
    objects: dict = dc_field(default_factory=dict, repr=False)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "definition": self.definition,
            "claims": [c.spec() for c in self.claims],
        }


def _compare(comparator: str, computed, expected, tol: float):
    if comparator == "approx":
        return abs(float(computed) - float(expected)) <= tol
    if comparator == "exact":
        return computed == expected
    if comparator == "at_least":
        return float(computed) >= float(expected)
    if comparator == "all_equal":
        return all(v == expected for v in computed)
    if comparator == "contains_points":
        pts = list(computed)
        for ex, ey in expected:
            if not any(math.hypot(px - ex, py - ey) <= tol for px, py in pts):
                return False
        return True
    raise ValueError(f"unknown comparator {comparator!r}")


def run_fixture_claims(scenario: Scenario) -> dict:
    """Execute every claim; failures are reported, never thrown."""
    results = []
    n_pass = 0
    for claim in scenario.claims:
        entry = claim.spec()
        try:
            computed = claim.compute(scenario)
            ok = bool(_compare(claim.comparator, computed, claim.expected,
                               claim.tolerance))
            entry["computed"] = computed
            entry["error"] = None
        except Exception as exc:  # claim failures are data, not crashes
            ok = False
            entry["computed"] = None
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entry["pass"] = ok
        n_pass += ok
        results.append(entry)
    return {
        "fixture": scenario.name,
        "kind": scenario.kind,
        "claims": results,
        "counts": {"pass": n_pass, "fail": len(results) - n_pass},
        "all_pass": n_pass == len(results),
    }


# --- fixture builders -------------------------------------------------------------

def _build_ex1() -> Scenario:
    iso = homothety_isotopy()
    sample_z = [(0.8, 0.5), (-0.6, 0.9), (-0.7, -0.8), (0.9, -0.6),
                (1.0, 0.0), (0.0, -1.0)]

    def traj(z, n=65):
        ts = np.linspace(0.0, 1.0, n)
        return Polyline(params=ts,
                        points=np.array([iso.eval(t, z) for t in ts]))

    def pt_verdicts(fol):
        return lambda s: [transversality_report(traj(z), fol).verdict
                          for z in sample_z]

    claims = [
        Claim("homothety time-one map has Lefschetz index 1 at the origin",
              "lefschetz_index", {"center": [0, 0], "radius": 0.5}, 1, 0,
              PROV_DERIVED, "exact",
              lambda s: lefschetz_index(s.objects["iso"].time_one(),
                                        (0.0, 0.0), 0.5)),
        Claim("every local isotopy of a map with index 1 has isotopy index 0",
              "isotopy_index", {"center": [0, 0], "radius": 0.4}, 0, 0,
              PROV_PAPER, "exact",
              lambda s: isotopy_index(s.objects["iso"], (0.0, 0.0), 0.4)),
        Claim("trajectories cross the inward-spiral foliation positively",
              "transversality_report", {"points": sample_z},
              "PositivelyTransverse", 0, PROV_PAPER, "all_equal",
              pt_verdicts(ex1_foliation_f1())),
        Claim("trajectories cross the outward-spiral foliation positively",
              "transversality_report", {"points": sample_z},
              "PositivelyTransverse", 0, PROV_PAPER, "all_equal",
              pt_verdicts(ex1_foliation_f2())),
        Claim("origin is a sink of the inward-spiral foliation",
              "classify_singularity", {"center": [0, 0], "radius": 0.3},
              "Sink", 0, PROV_PAPER, "exact",
              lambda s: classify_singularity(ex1_foliation_f1(),
                                             (0.0, 0.0), 0.3).kind),
        Claim("origin is a source of the outward-spiral foliation",
              "classify_singularity", {"center": [0, 0], "radius": 0.3},
              "Source", 0, PROV_PAPER, "exact",
              lambda s: classify_singularity(ex1_foliation_f2(),
                                             (0.0, 0.0), 0.3).kind),
    ]
    return Scenario(
        name="ex1_homothety", kind="ExplicitIsotopy",
        definition={
            "isotopy": "f_t = (1 + t) * id",
            "foliations": {
                "F1": "push-forward of cover lines y = theta + c, upward",
                "F2": "push-forward of cover lines y = -theta + c, downward",
            },
        },
        claims=claims, objects={"iso": iso})


def _build_ex2() -> Scenario:
    iso = PlanarIsotopy(eval=ex2_flow, fixed_point_hint=(0.0, 0.0),
                        provenance="quadrant flow")
    fol = Foliation(direction=ex2_transverse_field)
    sample_z = [(0.8, 0.5), (0.5, 1.2), (-0.6, 0.9), (-1.1, 0.3),
                (-0.7, -0.8), (-0.2, -1.0), (0.9, -0.6), (0.3, -0.4),
                (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]

    def traj(z, n=97):
        ts = np.linspace(0.0, 1.0, n)
        return Polyline(params=ts, points=np.array([ex2_flow(t, z) for t in ts]))

    claims = [
        Claim("flow trajectories are positively transverse to the rotated field",
              "transversality_report", {"points": sample_z},
              "PositivelyTransverse", 0, PROV_PAPER, "all_equal",
              lambda s: [transversality_report(traj(z), fol).verdict
                         for z in sample_z]),
        Claim("the rotated field has winding number 1 around the origin",
              "classify_singularity", {"center": [0, 0], "radius": 0.8},
              1, 0, PROV_DERIVED, "exact",
              lambda s: classify_singularity(fol, (0.0, 0.0), 0.8)
              .foliation_index),
    ]
    return Scenario(
        name="ex2_piecewise_flow", kind="PiecewiseFlow",
        definition={
            "flow": "quadrant-defined time flow of the continuous field V",
            "transverse_field": "V rotated by +90 degrees (vanishes only at 0)",
        },
        claims=claims, objects={"iso": iso, "foliation": fol})


def _build_ex3() -> Scenario:
    iso = ex3_isotopy()

    @functools.cache
    def samples():  # one run for both claims; an error is not cached
        return rotation_samples(iso, (0.0, 0.0), 0.05, 0.0125, n=3, seeds=10)

    def min_abs_rho(s):
        return min((abs(r) for _, r in samples()), default=0.0)

    def max_oracle_err(s):
        return max(abs(r - 1.0 / math.hypot(*z)) for z, r in samples())

    claims = [
        Claim("every windowed orbit sample exceeds 20 turns per step",
              "rotation_samples",
              {"U_radius": 0.05, "V_radius": 0.0125, "n": 3, "seeds": 10},
              20.0, 0, PROV_PAPER, "at_least", min_abs_rho),
        Claim("orbit samples match the closed form 1/|z| (lift x - 1/y)",
              "rotation_samples",
              {"U_radius": 0.05, "V_radius": 0.0125, "n": 3, "seeds": 10},
              0.0, 1e-9, PROV_DERIVED, "approx", max_oracle_err),
        Claim("the local rotation set estimate flags escape to +infinity",
              "local_rotation_set_estimate",
              {"r0": 0.05, "levels": 2, "n_max": 4, "divergence_threshold": 10},
              True, 0, PROV_PAPER, "exact",
              lambda s: local_rotation_set_estimate(
                  iso, (0.0, 0.0), 0.05, 2, 4, 10.0).hi_unbounded),
    ]
    return Scenario(
        name="ex3_annulus_escape", kind="AnnulusMap",
        definition={
            "lift": "x - 1/y",
            "model": "planar model at the upper end: rotate by t/|z| turns",
        },
        claims=claims, objects={"iso": iso})


def _sum_rule_claims(lift, s_value, n_value, provenance_sum):
    claims = [
        Claim("rotation number at S is the bottom-circle translation number",
              "circle_rotation_number", {"boundary_y": 0.0}, s_value, 1e-9,
              PROV_DERIVED, "approx",
              lambda s: boundary_rotation_number(s.objects["lift"], 0.0)),
        Claim("rotation number at N is the top-circle translation number",
              "circle_rotation_number", {"boundary_y": 1.0}, n_value, 1e-9,
              PROV_DERIVED, "approx",
              lambda s: boundary_rotation_number(s.objects["lift"], 1.0)),
        Claim("the rotation numbers at the two fixed points sum as published",
              "circle_rotation_number", {"boundaries": [0.0, 1.0]},
              s_value + n_value, 1e-9, provenance_sum, "approx",
              lambda s: boundary_rotation_number(s.objects["lift"], 0.0)
              + boundary_rotation_number(s.objects["lift"], 1.0)),
    ]
    return claims


def _build_ex4() -> Scenario:
    claims = _sum_rule_claims(ex4_lift, 0.0, 3.0, PROV_PAPER)
    return Scenario(
        name="ex4_sphere_3shear", kind="SphereShear",
        definition={
            "lift": "(x + 3y, phi(y))",
            "phi": "y - 0.15 sin^2(pi (6y - 1)/4) on (1/6, 5/6), identity outside",
        },
        claims=claims, objects={"lift": ex4_lift})


def _build_ex6() -> Scenario:
    claims = _sum_rule_claims(ex6_lift, 0.0, 1.0, PROV_PAPER)

    def twist_result(s):
        m = AnnulusLiftMap(lift=lambda x, y: (x + 3.0 * y, y),
                           a=1.0 / 6.0, b=1.0 / 6.0)
        rep = twist_check_and_search(m, grid=24)
        ok = rep.twist_holds and bool(rep.fixed_points) and \
            all(abs(y) <= 1e-9 for _, y in rep.fixed_points)
        return ok

    claims.append(Claim(
        "the middle band (recentered at y = 1/3) is a twist with fixed line"
        " 3y - 1 = 0",
        "twist_check_and_search", {"band_center": 1 / 3, "half_width": 1 / 6,
                                   "grid": 24},
        True, 0, PROV_DERIVED, "exact", twist_result))
    return Scenario(
        name="ex6_threeband_shear", kind="AnnulusMap",
        definition={
            "lift": "x for y <= 1/3; x + 3y - 1 for 1/3 < y <= 2/3; x + 1 above",
        },
        claims=claims, objects={"lift": ex6_lift})


def _build_ex7() -> Scenario:
    claims = _sum_rule_claims(ex7_lift, 0.0, 1.0, PROV_PAPER)
    return Scenario(
        name="ex7_linear_shear", kind="SphereShear",
        definition={"lift": "(x + y, y)"},
        claims=claims, objects={"lift": ex7_lift})


def _build_ex5() -> Scenario:
    field = Ex5Field()
    iso = GenIsotopy(field, twist_bound_c=0.11)
    fol = gradient_foliation(field)
    region = (-0.6, 0.6, 0.05, 0.95)
    targets = [(0.0, 0.5), (0.0, 1.0 / 3.0), (0.0, 0.25)]

    def located(s):
        return [p.location
                for p in find_critical_points(s.objects["iso"], region, 400)]

    def saddle_kinds(s):
        return [classify_singularity(fol, z, 0.03).kind for z in targets]

    def north_kind(s):
        return classify_singularity(ex5_north_model_field(), (0.0, 0.0),
                                    0.1).kind

    def max_partial_err(s):
        # displayed partials against a trapezoid quadrature of phi5
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(40):
            x = rng.uniform(-0.6, 0.6)
            y = rng.uniform(0.05, 0.95)
            jet = field.jet2(x, y)
            ss = np.linspace(0.0, y, 20001)
            phi_int = np.trapezoid(phi5(ss), ss)
            d1 = math.pi * math.sin(2 * math.pi * x) * phi_int
            d2 = y * math.sin(math.pi / y) ** 2 \
                + phi5(y) * math.sin(math.pi * x) ** 2
            worst = max(worst, abs(jet.fx - d1), abs(jet.fy - d2))
        return worst

    claims = [
        Claim("the critical set contains (0, 1/2), (0, 1/3), (0, 1/4)",
              "find_critical_points", {"region": list(region), "grid_n": 400},
              [[0.0, 0.5], [0.0, 1.0 / 3.0], [0.0, 0.25]], 1e-6,
              PROV_PAPER, "contains_points", located),
        Claim("the three pinned critical points are saddles of the gradient"
              " foliation",
              "classify_singularity", {"radius": 0.03, "points": [
                  [0.0, 0.5], [0.0, 1.0 / 3.0], [0.0, 0.25]]},
              "Saddle", 0, PROV_PAPER, "all_equal", saddle_kinds),
        Claim("the blown-down top circle N is a sink of the foliation",
              "classify_singularity", {"model": "north disk", "radius": 0.1},
              "Sink", 0, PROV_PAPER, "exact", north_kind),
        Claim("gradient matches the displayed partial derivatives against"
              " numerically integrated phi",
              "gradient_foliation", {"samples": 40}, 0.0, 1e-8,
              PROV_PAPER, "approx", max_partial_err),
    ]
    return Scenario(
        name="ex5_sin2_genfunc", kind="GenFunc",
        definition={
            "g": "integral_0^y [s sin^2(pi/s) + phi(s) sin^2(pi x)] ds on"
                 " 0 < y < 1, constant outside",
            "phi": "piecewise sin^2 bumps, +1/96 sin^2(4 pi s / 3) on"
                   " [0, 3/4], -1/32 sin^2(4 pi (s - 3/4)) on [3/4, 1]",
            "twist_bound_c": 0.11,
            "region": list(region),
        },
        claims=claims, objects={"iso": iso, "foliation": fol})


def _build_appa() -> Scenario:
    g = ExprField("x^2+y^2")
    iso = GenIsotopy(g, twist_bound_c=0.1)
    fol = gradient_foliation(g)
    planar = genfunc_isotopy(iso, fixed_point_hint=(0.0, 0.0))

    def max_det_err(s):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(20):
            t = rng.uniform(0.0, 1.0)
            z = rng.uniform(-1.5, 1.5, size=2)
            J = gf_jacobian(iso, t, z)
            worst = max(worst, abs(float(np.linalg.det(J)) - 1.0))
        return worst

    def indices_triple(s):
        rep = index_relation_check(planar.time_one(), planar, fol,
                                   (0.0, 0.0), 0.4)
        return [rep.lefschetz, rep.isotopy, rep.foliation,
                rep.both_identities_hold]

    claims = [
        Claim("the closed-form Jacobian has unit determinant",
              "gf_jacobian", {"samples": 20}, 0.0, 1e-9, PROV_PAPER,
              "approx", max_det_err),
        Claim("the generated map sends (1, 0) to (1, -2)",
              "gf_apply", {"t": 1.0, "z": [1.0, 0.0]}, 0.0, 1e-9,
              PROV_DERIVED, "approx",
              lambda s: max(abs(a - b) for a, b in
                            zip(gf_apply(iso, 1.0, (1.0, 0.0)), (1.0, -2.0)))),
        Claim("index relations i(F) = i(I) + 1 with i(f) = 1, i(I) = 0,"
              " i(F) = 1",
              "index_relation_check", {"center": [0, 0], "radius": 0.4},
              [1, 0, 1, True], 0, PROV_DERIVED, "exact", indices_triple),
        Claim("the only critical point in the unit box is a minimum at 0",
              "find_critical_points", {"region": [-1, 1, -1, 1], "grid_n": 16},
              [[0.0, 0.0]], 1e-9, PROV_TRIVIAL, "contains_points",
              lambda s: [p.location for p in
                         find_critical_points(iso, (-1, 1, -1, 1), 16)]),
    ]
    return Scenario(
        name="appA_quadratic", kind="GenFunc",
        definition={"g": "x^2+y^2", "twist_bound_c": 0.1},
        claims=claims, objects={"iso": iso, "foliation": fol,
                                "planar": planar})


_BUILDERS = {
    "ex1_homothety": _build_ex1,
    "ex2_piecewise_flow": _build_ex2,
    "ex3_annulus_escape": _build_ex3,
    "ex4_sphere_3shear": _build_ex4,
    "ex5_sin2_genfunc": _build_ex5,
    "ex6_threeband_shear": _build_ex6,
    "ex7_linear_shear": _build_ex7,
    "appA_quadratic": _build_appa,
}


def fixture_names() -> list:
    return sorted(_BUILDERS)


def load_fixture(name: str) -> Scenario:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownFixture(name) from None
    return builder()
