"""Command-line front end: scenario ingestion, operation dispatch, JSON
output, CSV export.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 operation or claim failure, 2 input error.  Identical invocations produce
byte-identical stdout (no timestamps; the version sits in a header field).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from .errors import (
    ExprSyntaxError, InputError, TorsionlabError, UnknownFixture,
    UnknownIdentifier,
)
from .expr import ExprField, eval_jet2, eval_value, parse_expr
from .fixtures import fixture_names, load_fixture, run_fixture_claims
from .foliate import (
    Foliation, classify_singularity, expression_foliation, gradient_foliation,
    integrate_leaf, transversality_report,
)
from .genfunc import (
    GenIsotopy, alt_trajectory, find_critical_points, gf_apply, jacobian_path,
    verify_twist_bound,
)
from .geom import TWO_PI
from .indices import (
    PlanarIsotopy, _check_center_fixed, expr_isotopy, genfunc_isotopy,
    isotopy_index, lefschetz_index, linking_number,
)
from .rotation import (
    AnnulusLiftMap, isotopy_blowup_rotation, local_rotation_set_estimate,
    torsion_low_classify, twist_check_and_search,
)

SCHEMA_VERSION = 1

_KINDS = {
    "genfunc": {"expressions": {"g"}, "parameters": {"twist_bound_c"}},
    "isotopy": {"expressions": {"x", "y"}, "parameters": set()},
    "annulus_isotopy": {"expressions": {"X", "Y"}, "parameters": set()},
    "annulus_map": {"expressions": {"X", "Y"}, "parameters": {"a", "b"}},
    "vector_field": {"expressions": {"p", "q"}, "parameters": set()},
}

_TOP_KEYS = {"schema", "kind", "name", "expressions", "parameters", "region"}

OPS = ("lefschetz", "isotopy-index", "foliation-index", "linking",
       "rotation-set", "blowup-rotation", "torsion-low", "twist",
       "critical-points", "transversality")


# --- scenario loading ---------------------------------------------------------

def load_scenario_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read scenario file: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"scenario parse error at line {exc.lineno}, column {exc.colno}:"
            f" {exc.msg}")
    if not isinstance(doc, dict):
        raise InputError("scenario must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InputError(f"unknown scenario keys: {sorted(unknown)}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise InputError(
            f"unsupported schema version {doc.get('schema')!r}"
            f" (expected {SCHEMA_VERSION})")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise InputError(f"unknown kind {kind!r}; expected one of "
                         f"{sorted(_KINDS)}")
    spec = _KINDS[kind]
    exprs = doc.get("expressions", {})
    if not isinstance(exprs, dict) or set(exprs) != spec["expressions"]:
        raise InputError(
            f"kind {kind!r} needs expressions {sorted(spec['expressions'])}")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise InputError("parameters must be an object")
    missing = spec["parameters"] - set(params)
    if missing:
        raise InputError(f"kind {kind!r} needs parameters {sorted(missing)}")
    region = doc.get("region")
    if region is not None and (
            not isinstance(region, list) or len(region) != 4
            or not all(isinstance(v, (int, float)) for v in region)):
        raise InputError("region must be [xmin, xmax, ymin, ymax]")
    return doc


def _parse_scenario_expr(text: str, variables) -> object:
    try:
        return parse_expr(text, variables=variables)
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        raise InputError(f"expression error in {text!r}: {exc}")


class LoadedScenario:
    """Executable objects built from a validated scenario document."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.kind = doc["kind"]
        self.params = doc.get("parameters", {})
        self.region = doc.get("region")
        exprs = doc["expressions"]
        if self.kind == "genfunc":
            tree = _parse_scenario_expr(exprs["g"], ("x", "y"))
            self.gen = GenIsotopy(ExprField(tree, exprs["g"]),
                                  twist_bound_c=float(self.params["twist_bound_c"]))
            if self.region:
                verify_twist_bound(self.gen, self.region)
        elif self.kind == "isotopy":
            self.trees = [_parse_scenario_expr(exprs[k], ("t", "x", "y"))
                          for k in ("x", "y")]
            self.planar = expr_isotopy(*self.trees)
        elif self.kind == "annulus_isotopy":
            ex = _parse_scenario_expr(exprs["X"], ("t", "x", "y"))
            ey = _parse_scenario_expr(exprs["Y"], ("t", "x", "y"))

            def lift_ev(t, x, y):
                env = {"t": t, "x": x, "y": y}
                return (eval_value(ex, env), eval_value(ey, env))

            self.lift_ev = lift_ev
        elif self.kind == "annulus_map":
            ex = _parse_scenario_expr(exprs["X"], ("x", "y"))
            ey = _parse_scenario_expr(exprs["Y"], ("x", "y"))
            self.annulus = AnnulusLiftMap(
                lift=lambda x, y: (eval_value(ex, {"x": x, "y": y}),
                                   eval_value(ey, {"x": x, "y": y})),
                a=float(self.params["a"]), b=float(self.params["b"]))
        elif self.kind == "vector_field":
            self.foliation = expression_foliation(exprs["p"], exprs["q"])

    # objects requested by operations ------------------------------------

    def planar_isotopy(self, center=None) -> PlanarIsotopy:
        if self.kind == "genfunc":
            return genfunc_isotopy(self.gen, fixed_point_hint=center)
        if self.kind == "isotopy":
            return self.planar
        if self.kind == "annulus_isotopy":
            lift_ev = self.lift_ev

            def ev(t, z):
                r = math.hypot(z[0], z[1])
                x0 = math.atan2(z[1], z[0]) / TWO_PI
                X, Y = lift_ev(t, x0, -r)
                a = TWO_PI * X
                return (-Y * math.cos(a), -Y * math.sin(a))

            return PlanarIsotopy(eval=ev, provenance="annulus end model")
        raise InputError(f"kind {self.kind!r} does not define an isotopy")

    def time_one(self):
        iso = self.planar_isotopy()
        return iso.time_one()

    def gradient_fol(self) -> Foliation:
        if self.kind == "genfunc":
            return gradient_foliation(self.gen.field)
        if self.kind == "vector_field":
            return self.foliation
        raise InputError(
            f"kind {self.kind!r} does not define a foliation")

    def derivative_path(self, at):
        if self.kind == "genfunc":
            return jacobian_path(self.gen, at)
        if self.kind == "isotopy":
            _check_center_fixed(self.planar, at)

            def dpath(t):
                X, Y = (eval_jet2(e, at[0], at[1], {"t": t})
                        for e in self.trees)
                return np.array([[X.fx, X.fy], [Y.fx, Y.fy]])

            return dpath
        raise InputError(
            f"kind {self.kind!r} does not define a derivative path")


# --- helpers -------------------------------------------------------------------

def _parse_point(text: str):
    if text == "star":
        return (0.0, 0.0)  # annulus end model is centered at the origin
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise InputError(f"bad point {text!r}; expected 'x,y'")
    if len(parts) != 2:
        raise InputError(f"bad point {text!r}; expected 'x,y'")
    return tuple(parts)


def _sanitize(obj):
    """Make results JSON-serializable and deterministic."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit(payload: dict) -> None:
    doc = {"schema": SCHEMA_VERSION, "version": __version__}
    doc.update(payload)
    sys.stdout.write(json.dumps(_sanitize(doc), sort_keys=True, indent=2))
    sys.stdout.write("\n")


# --- operations ------------------------------------------------------------------

def _op_result(loaded: LoadedScenario, args) -> dict:
    op = args.op
    if op == "lefschetz":
        center = _parse_point(args.center)
        return {"index": lefschetz_index(loaded.time_one(), center,
                                         args.radius, args.samples)}
    if op == "isotopy-index":
        center = _parse_point(args.center)
        iso = loaded.planar_isotopy(center)
        return {"index": isotopy_index(iso, center, args.radius, args.samples)}
    if op == "foliation-index":
        center = _parse_point(args.center)
        rep = classify_singularity(loaded.gradient_fol(), center, args.radius,
                                   args.samples)
        return {"index": rep.foliation_index, "class": rep.kind}
    if op == "linking":
        iso = loaded.planar_isotopy()
        return {"linking": linking_number(iso, _parse_point(args.z0),
                                          _parse_point(args.z1),
                                          args.t_samples)}
    if op == "rotation-set":
        center = _parse_point(args.center)
        est = local_rotation_set_estimate(
            loaded.planar_isotopy(center), center, args.r0, args.levels,
            args.n_max, args.threshold, seeds=args.seeds)
        return {
            "lo": est.lo, "hi": est.hi,
            "lo_unbounded": est.lo_unbounded,
            "hi_unbounded": est.hi_unbounded,
            "n_samples": len(est.samples),
            "annulus": list(est.annulus),
            "diagnostics": est.diagnostics,
        }
    if op == "blowup-rotation":
        at = _parse_point(args.at)
        rho = isotopy_blowup_rotation(loaded.derivative_path(at))
        return {"rho": rho}
    if op == "torsion-low":
        at = _parse_point(args.at)
        v = torsion_low_classify(loaded.derivative_path(at))
        return {"classification": v.classification, "rho": v.rho,
                "case": v.case_tag, "degenerate": v.degenerate}
    if op == "twist":
        if loaded.kind != "annulus_map":
            raise InputError("twist needs an annulus_map scenario")
        rep = twist_check_and_search(loaded.annulus, grid=args.grid)
        return {"twist_holds": rep.twist_holds,
                "fixed_points": rep.fixed_points,
                "boundary_products": rep.boundary_products}
    if op == "critical-points":
        if loaded.kind != "genfunc":
            raise InputError("critical-points needs a genfunc scenario")
        region = loaded.region or _region_from_flag(args)
        pts = find_critical_points(loaded.gen, region, args.grid)
        return {"critical_points": [
            {"x": p.location[0], "y": p.location[1],
             "residual": p.gradient_residual, "morse": p.morse_type,
             "hessian": p.hessian} for p in pts]}
    if op == "transversality":
        if loaded.kind != "genfunc":
            raise InputError("transversality needs a genfunc scenario")
        at = _parse_point(args.at)
        rep = transversality_report(alt_trajectory(loaded.gen, at,
                                                   args.samples),
                                    gradient_foliation(loaded.gen.field))
        return {"verdict": rep.verdict, "min_det": rep.min_det,
                "samples_used": rep.samples_used,
                "first_violation": rep.first_violation}
    raise InputError(f"unknown op {op!r}")


def _region_from_flag(args):
    if not args.region:
        raise InputError("critical-points needs --region or a scenario region")
    try:
        parts = [float(p) for p in args.region.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4:
        raise InputError("--region expects xmin,xmax,ymin,ymax")
    return tuple(parts)


# --- commands ----------------------------------------------------------------------

def cmd_fixture(args) -> int:
    try:
        scenario = load_fixture(args.name)
    except UnknownFixture as exc:
        sys.stderr.write(f"{exc}\nknown fixtures: {', '.join(fixture_names())}\n")
        return 2
    if args.describe:
        _emit({"command": "fixture", "fixture": args.name,
               "scenario": scenario.describe()})
        return 0
    report = run_fixture_claims(scenario)
    _emit({"command": "fixture", "fixture": args.name, "report": report})
    return 0 if report["all_pass"] else 1


def cmd_analyze(args) -> int:
    doc = load_scenario_file(args.scenario)
    loaded = LoadedScenario(doc)
    try:
        result = _op_result(loaded, args)
    except InputError:
        raise
    except TorsionlabError as exc:
        _emit({"command": "analyze", "op": args.op, "scenario": doc,
               "error": {"name": type(exc).__name__, "detail": str(exc)}})
        return 1
    _emit({"command": "analyze", "op": args.op, "scenario": doc,
           "result": result})
    return 0


def _export_rows(args) -> tuple:
    """(header, rows) for the requested export."""
    if args.fixture:
        scenario = load_fixture(args.fixture)
        gen = scenario.objects.get("iso")
        name = args.fixture
    else:
        doc = load_scenario_file(args.scenario)
        loaded = LoadedScenario(doc)
        gen = loaded.gen if loaded.kind == "genfunc" else (
            loaded.foliation if loaded.kind == "vector_field"
            else loaded.planar_isotopy())
        name = doc.get("name", "scenario")

    if args.leaves:
        if isinstance(gen, GenIsotopy):
            fol = gradient_foliation(gen.field)
        elif isinstance(gen, Foliation):
            fol = gen
        else:
            raise InputError(f"{name} does not define a foliation for leaves")
        around = _parse_point(args.around)
        rows = []
        for k in range(args.leaves):
            a = TWO_PI * k / args.leaves
            z0 = (around[0] + args.seed_radius * math.cos(a),
                  around[1] + args.seed_radius * math.sin(a))
            leaf = integrate_leaf(fol, z0, step=args.step, max_len=args.max_len,
                                  stop_radius=args.stop_radius)
            for s, (x, y) in zip(leaf.params, leaf.points):
                rows.append((k, s, x, y))
        return ("leaf_id,s,x,y", rows)

    z = _parse_point(args.orbit)
    if isinstance(gen, GenIsotopy):
        step_map = lambda p: gf_apply(gen, 1.0, p)
    elif isinstance(gen, PlanarIsotopy):
        step_map = gen.time_one()
    else:
        raise InputError(f"{name} does not define a map for orbits")
    rows = [(0, z[0], z[1])]
    for k in range(1, args.steps + 1):
        z = step_map(z)
        rows.append((k, z[0], z[1]))
    return ("iter,x,y", rows)


def cmd_export(args) -> int:
    if bool(args.leaves) == bool(args.orbit):
        raise InputError("export needs exactly one of --leaves or --orbit")
    header, rows = _export_rows(args)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                cells = []
                for v in row:
                    if isinstance(v, (float, np.floating)):
                        cells.append(repr(float(v)))
                    else:
                        cells.append(str(int(v)))
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        sys.stderr.write(f"cannot write {args.out}: {exc}\n")
        return 1
    sys.stderr.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 0


# --- parser --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torsionlab",
        description="Rotation numbers, fixed-point indices and transverse"
                    " foliations for planar and annular maps.")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fixture", help="run or describe a named fixture")
    f.add_argument("name")
    g = f.add_mutually_exclusive_group()
    g.add_argument("--claims", action="store_true", default=True,
                   help="run the fixture's claims (default)")
    g.add_argument("--describe", action="store_true",
                   help="echo the scenario instead of running claims")
    f.set_defaults(func=cmd_fixture)

    a = sub.add_parser("analyze", help="run one operation on a scenario file")
    a.add_argument("--scenario", required=True)
    a.add_argument("--op", required=True, choices=OPS)
    a.add_argument("--center", default="0,0")
    a.add_argument("--radius", type=float, default=0.25)
    a.add_argument("--samples", type=int, default=256)
    a.add_argument("--at", default="0,0")
    a.add_argument("--z0", default="0,0")
    a.add_argument("--z1", default="1,0")
    a.add_argument("--t-samples", dest="t_samples", type=int, default=256)
    a.add_argument("--r0", type=float, default=0.1)
    a.add_argument("--levels", type=int, default=2)
    a.add_argument("--n-max", dest="n_max", type=int, default=16)
    a.add_argument("--threshold", type=float, default=100.0)
    a.add_argument("--seeds", type=int, default=24)
    a.add_argument("--grid", type=int, default=64)
    a.add_argument("--region", default=None)
    a.set_defaults(func=cmd_analyze)

    e = sub.add_parser("export", help="export leaves or orbits as CSV")
    src = e.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario")
    src.add_argument("--fixture", choices=fixture_names())
    e.add_argument("--leaves", type=int, default=0)
    e.add_argument("--orbit", default=None)
    e.add_argument("--steps", type=int, default=20)
    e.add_argument("--out", required=True)
    e.add_argument("--around", default="0,0")
    e.add_argument("--seed-radius", dest="seed_radius", type=float, default=0.25)
    e.add_argument("--step", type=float, default=0.01)
    e.add_argument("--max-len", dest="max_len", type=float, default=3.0)
    e.add_argument("--stop-radius", dest="stop_radius", type=float,
                   default=1e-3)
    e.set_defaults(func=cmd_export)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ExprSyntaxError, UnknownIdentifier) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except TorsionlabError as exc:
        _emit({"command": args.command,
               "error": {"name": type(exc).__name__, "detail": str(exc)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
