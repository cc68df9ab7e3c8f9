"""Span tracing of torsionlab's layers, installed from outside the package.

``Tracer.install`` replaces each public entry point of the layer modules by a
wrapper that records a span (name, parent, start, end) in flat in-memory
arrays.  The replacement happens in every module namespace that binds the
function: ``from .geom import angle_sweep`` leaves copies in ``indices`` and
``rotation``, and each copy is wrapped.  ``remove`` restores the originals,
so untraced rounds run the program exactly as shipped.  Nothing in ``src/``
changes.

Self time of a span is its duration minus the durations of its direct child
spans.  Direct recursion (``eval_value`` walking its own tree) is folded into
one span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("expr", "genfunc", "geom", "foliate", "indices", "rotation",
          "fixtures", "cli")

# Public functions that fixtures evaluate once per point inside traced entry
# points (bumps, lifts, flows).  A span per call would multiply the tracing
# cost without naming any work that the enclosing span does not already show.
PER_POINT = {
    "fixtures": {"phi4", "phi5", "phi5_prime", "phi5_integral",
                 "ex2_vector_field", "ex2_transverse_field", "ex2_flow",
                 "ex4_lift", "ex6_lift", "ex7_lift"},
}

# Scalar-field jets that are methods rather than module functions.
JET_METHODS = (("genfunc", "PolynomialField", "jet2"),
               ("fixtures", "Ex5Field", "jet2"))
JET_SPANS = ("expr.eval_jet2", "genfunc.PolynomialField.jet2",
             "fixtures.Ex5Field.jet2")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self._patches = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        for arr in (self.span_name, self.parent, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.counts.clear()

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, span: str, fn, before=None, after=None):
        nid = self._id(span)
        names, parents, starts, ends = (self.span_name, self.parent,
                                        self.start, self.end)
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                counts[f"{span}!{type(exc).__name__}"] += 1
                raise
            ends[i] = clock()
            stack.pop()
            if after is not None:
                after(self, args, kwargs, result, ends[i] - starts[i])
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in every namespace that binds it."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"torsionlab.{layer}"]
            skip = PER_POINT.get(layer, set())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in skip):
                    hooks = HOOKS.get(f"{layer}.{attr}", {})
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj,
                                                         **hooks))
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "torsionlab" or n.startswith("torsionlab.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for layer, cls_name, meth in JET_METHODS:
            cls = getattr(sys.modules[f"torsionlab.{layer}"], cls_name)
            self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}",
                                              getattr(cls, meth)))
        fol = sys.modules["torsionlab.foliate"].Foliation
        self._patch(fol, "at", self._counted("foliate.direction_calls", fol.at))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- metrics ----------------------------------------------------------------

    def metrics(self, fixture_names) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.span_name)
        name = np.frombuffer(self.span_name, dtype=np.int32)[:n].copy()
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n].copy()
        start = np.frombuffer(self.start, dtype=np.float64)[:n].copy()
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - start
        k = len(self.names)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=n)
        self_t = np.bincount(name, weights=dur - child, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        calls = np.bincount(name, minlength=k)
        ids = self._ids
        c = self.counts

        def of(arr, span):
            return float(arr[ids[span]]) if span in ids else 0.0

        def layer_self(layer):
            return float(sum(self_t[i] for s, i in ids.items()
                             if s.startswith(layer + ".")))

        def under(ancestors):
            """Mask of spans that have an ancestor named in ``ancestors``.

            Spans are stored in start order, so the descendants of span a
            are the spans after it that start before it ends.
            """
            aid = [ids[s] for s in ancestors if s in ids]
            anc = np.flatnonzero(np.isin(name, aid))
            ends = start[anc] + dur[anc]
            last = np.searchsorted(start, ends, side="left")
            diff = np.zeros(n + 1, dtype=np.int64)
            np.add.at(diff, anc + 1, 1)
            np.add.at(diff, last, -1)
            return np.cumsum(diff)[:n] > 0

        jet = np.isin(name, [ids[s] for s in JET_SPANS if s in ids])

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        applies = of(calls, "genfunc.gf_apply")
        sweeps = of(calls, "geom.angle_sweep")
        layers = {layer: layer_self(layer) for layer in LAYERS}
        m = {
            "expr.jet_calls": of(calls, "expr.eval_jet2"),
            "expr.jet_self_s": of(self_t, "expr.eval_jet2"),
            "expr.value_calls": of(calls, "expr.eval_value"),
            "expr.value_self_s": of(self_t, "expr.eval_value"),
            "expr.parse_s": of(total, "expr.parse_expr"),
            "genfunc.apply_calls": applies,
            "genfunc.apply_self_s": (of(self_t, "genfunc.gf_apply")
                                     + of(self_t, "genfunc.gf_alt_apply")),
            "genfunc.jets_per_apply": ratio(
                np.count_nonzero(jet & under(["genfunc.gf_apply"])), applies),
            "genfunc.solver_failures": float(
                c["genfunc.gf_apply!SolverDiverged"]
                + c["genfunc.gf_jacobian!SolverDiverged"]),
            "genfunc.scan_s": of(total, "genfunc.find_critical_points"),
            "genfunc.scan_jets_per_point": ratio(
                np.count_nonzero(jet & under(["genfunc.find_critical_points"])),
                c["genfunc.scan_points"]),
            "genfunc.twist_verify_s": of(total, "genfunc.verify_twist_bound"),
            "geom.sweep_calls": sweeps,
            "geom.evals_per_sweep": ratio(c["geom.sweep_evals"], sweeps),
            "geom.path_builds": of(calls, "geom.build_winding_path"),
            "geom.refine_ratio": ratio(c["geom.vectors_out"],
                                       c["geom.vectors_in"]),
            "foliate.rk4_steps": float(c["foliate.rk4_steps"]),
            "foliate.direction_calls": float(c["foliate.direction_calls"]),
            "foliate.leaf_s": of(total, "foliate.integrate_leaf"),
            "foliate.classify_s": of(total, "foliate.classify_singularity"),
            "foliate.transversality_s": of(total,
                                           "foliate.transversality_report"),
            "indices.trajectory_turns_calls": of(calls,
                                                 "indices.trajectory_turns"),
            "indices.isotopy_index_s": of(total, "indices.isotopy_index"),
            "indices.lefschetz_s": of(total, "indices.lefschetz_index"),
            "indices.linking_s": of(total, "indices.linking_number"),
            "indices.compare_s": of(total, "indices.compare_isotopies"),
            "rotation.samples_calls": of(calls, "rotation.rotation_samples"),
            "rotation.orbits_kept_frac": ratio(c["rotation.orbits_kept"],
                                               c["rotation.seeds_tried"]),
            "rotation.rotation_set_s": of(
                total, "rotation.local_rotation_set_estimate"),
            "rotation.blowup_s": of(total, "rotation.isotopy_blowup_rotation"),
            "rotation.twist_s": of(total, "rotation.twist_check_and_search"),
            "fixtures.ex5_jet_calls": of(calls, "fixtures.Ex5Field.jet2"),
        }
        for fx in fixture_names:
            m[f"fixtures.claim_s.{fx}"] = float(c[f"fixtures.claim_s.{fx}"])
        for layer, s in layers.items():
            m[f"{layer}.self_s"] = s
        m["trace.self_total_s"] = sum(layers.values())
        return m


# --- counting hooks ------------------------------------------------------------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _sweep_before(tracer, args, kwargs):
    """Count calls of the vec_fn that angle_sweep samples and refines."""
    if args:
        return (tracer._counted("geom.sweep_evals", args[0]),) + args[1:], kwargs
    counted = tracer._counted("geom.sweep_evals", kwargs["vec_fn"])
    return args, dict(kwargs, vec_fn=counted)


def _path_after(tracer, args, kwargs, result, dur):
    tracer.counts["geom.vectors_in"] += len(_arg(args, kwargs, 0, "vectors"))
    tracer.counts["geom.vectors_out"] += len(result.samples)


def _scan_after(tracer, args, kwargs, result, dur):
    tracer.counts["genfunc.scan_points"] += len(result)


def _leaf_after(tracer, args, kwargs, result, dur):
    tracer.counts["foliate.rk4_steps"] += len(result.points) - 1


def _samples_after(tracer, args, kwargs, result, dur):
    fn = sys.modules["torsionlab.rotation"].rotation_samples
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    seeds = bound.arguments["seed_points"]
    tracer.counts["rotation.seeds_tried"] += (
        len(seeds) if seeds is not None else bound.arguments["seeds"])
    tracer.counts["rotation.orbits_kept"] += len(result)


def _claims_after(tracer, args, kwargs, result, dur):
    name = _arg(args, kwargs, 0, "scenario").name
    tracer.counts[f"fixtures.claim_s.{name}"] += dur


HOOKS = {
    "geom.angle_sweep": {"before": _sweep_before},
    "geom.build_winding_path": {"after": _path_after},
    "genfunc.find_critical_points": {"after": _scan_after},
    "foliate.integrate_leaf": {"after": _leaf_after},
    "rotation.rotation_samples": {"after": _samples_after},
    "fixtures.run_fixture_claims": {"after": _claims_after},
}
