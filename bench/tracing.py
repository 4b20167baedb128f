"""In-memory spans around the public functions of ``entropydiff`` and the
per-layer metrics derived from them.

The program is not changed: :meth:`Tracer.install` rebinds each traced
function's name in every ``entropydiff.*`` namespace that holds it (modules
use ``from .x import y``, so patching the defining module alone misses the
callers) and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

import numpy as np

FIELDS = ("metric_fields", "entropy_field", "hopf_field", "norm_fields")
CHECKS = ("ricci_residual", "ecritical_residual", "soliton_check", "weighted_entropy_norm", "hill_round_trip")
GRID_CHECKS = ("verify.ricci_residual", "verify.ecritical_residual", "verify.soliton_check")

# (metric, unit); counts must repeat exactly from pass to pass.
LAYER_METRICS = (
    [("jets.eval_jet.calls", "count"), ("jets.eval_jet.points", "count"),
     ("jets.eval_jet.self_s", "s"), ("jets.eval_jet.us_per_point", "us"),
     ("jets.AnalyticExpr.eval.calls", "count"), ("jets.AnalyticExpr.eval.self_s", "s")]
    + [(f"weierstrass.{f}.{q}", u) for f in FIELDS for q, u in (("calls", "count"), ("points", "count"), ("self_s", "s"))]
    + [("weierstrass.jet_passes_per_point", "ratio"), ("weierstrass.nonfinite_nodes", "count")]
    + [(f"geomnum.integrate2d.{q}", u) for q, u in (
        ("calls", "count"), ("panels", "count"), ("density_calls", "count"),
        ("density_points", "count"), ("error", "abs"), ("self_s", "s"))]
    + [("geomnum.integrate_segment.calls", "count"), ("geomnum.integrate_segment.panels", "count"),
       ("geomnum.integrate_segment.self_s", "s"), ("geomnum.stencil.self_s", "s")]
    + [(f"verify.{c}.s", "s") for c in CHECKS]
    + [("verify.metric_fields_per_grid", "ratio"),
       ("hill.solve_on_grid.calls", "count"), ("hill.solve_on_grid.self_s", "s"),
       ("hill.solve_on_grid.rhs_calls", "count"), ("hill.solve_on_grid.rhs_calls_per_segment", "ratio"),
       ("hill.integrate_hill.calls", "count"), ("hill.integrate_hill.self_s", "s"),
       ("hill.wronskian_drift", "abs"),
       ("surface.sample_mesh.self_s", "s"),
       ("surface.write_obj.s", "s"), ("surface.write_obj.bytes", "bytes"),
       ("surface.write_sidecar.s", "s"), ("surface.write_sidecar.bytes", "bytes"),
       ("cli.dumps_json.s", "s"), ("cli.report_bytes", "bytes"), ("cli.main.self_s", "s")]
)
IMPORT_METRICS = [("import.entropydiff_s", "s"), ("import.numpy_s", "s"), ("import.scipy_s", "s")]
PER_LAYER = LAYER_METRICS + IMPORT_METRICS + [("trace.overhead_ratio", "ratio")]
TIMES = {name for name, unit in LAYER_METRICS if unit in ("s", "us")}


def _points(z) -> int:
    return int(np.size(z))


def _nonfinite(value) -> int:
    return int(np.count_nonzero(~np.isfinite(value)))


class Tracer:
    """Spans ``[name, start, end, parent, info]`` kept in a list."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._bindings: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, pre=None, post=None, outermost=False):
        """``pre(args, kwargs) -> (args, kwargs, info)`` may substitute
        arguments; ``post(info, result)`` fills ``info`` after the call."""
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and active.get(name):
                return fn(*args, **kwargs)
            info = None
            if pre is not None:
                args, kwargs, info = pre(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, info]
            stack.append(len(spans))
            spans.append(rec)
            active[name] = active.get(name, 0) + 1
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                active[name] -= 1
            if post is not None:
                post(info, result)
            return result

        return traced

    def _rebind(self, owner_module: str, attr: str, wrapper_for):
        orig = getattr(sys.modules[owner_module], attr)
        wrapper = wrapper_for(orig)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "entropydiff" and getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)
                self._bindings.append((mod, attr, orig))

    def install(self):
        import entropydiff.cli  # noqa: F401  (loads every module that gets patched)
        from entropydiff.jets import AnalyticExpr

        def arg(args, kwargs, i, key):
            return args[i] if len(args) > i else kwargs[key]

        def pre_jet(args, kwargs):
            return args, kwargs, {"points": _points(arg(args, kwargs, 1, "z")), "expr": id(arg(args, kwargs, 0, "expr"))}

        self._rebind("entropydiff.jets", "eval_jet", lambda f: self.wrap("jets.eval_jet", f, pre_jet))
        ev = AnalyticExpr.eval
        traced_eval = self.wrap("jets.AnalyticExpr.eval", ev)
        for attr in ("eval", "__call__"):
            self._bindings.append((AnalyticExpr, attr, getattr(AnalyticExpr, attr)))
            setattr(AnalyticExpr, attr, traced_eval)

        def pre_field(args, kwargs):
            data, z = arg(args, kwargs, 0, "data"), arg(args, kwargs, 1, "z")
            # z is kept so that the identity of the point set stays unique
            return args, kwargs, {"points": _points(z), "G": id(data.G), "z": z}

        def post_field(pick):
            def post(info, result):
                info["nonfinite"] = _nonfinite(pick(result))
            return post

        picks = {
            "metric_fields": lambda r: r["K"],
            "entropy_field": lambda r: r,
            "hopf_field": lambda r: r,
            "norm_fields": lambda r: r[0],
        }
        for f in FIELDS:
            self._rebind(
                "entropydiff.weierstrass", f,
                lambda fn, f=f: self.wrap(f"weierstrass.{f}", fn, pre_field, post_field(picks[f])),
            )

        def counted(name):
            def pre(args, kwargs):
                args = (self.wrap(name, args[0], lambda a, k: (a, k, {"points": _points(a[0])})),) + args[1:]
                return args, kwargs, {}
            return pre

        def post_quad(info, result):
            info["panels"] = int(result.panels)
            info["error"] = float(result.error)

        self._rebind("entropydiff.geomnum", "integrate2d", lambda f: self.wrap(
            "geomnum.integrate2d", f, counted("geomnum.integrate2d.density"), post_quad))
        self._rebind("entropydiff.geomnum", "integrate_segment", lambda f: self.wrap(
            "geomnum.integrate_segment", f, counted("geomnum.integrate_segment.integrand"), post_quad))
        for f in ("laplacian_conformal", "tracefree_hessian_conformal"):
            self._rebind("entropydiff.geomnum", f, lambda fn: self.wrap("geomnum.stencil", fn))
        for c in CHECKS:
            self._rebind("entropydiff.verify", c, lambda fn, c=c: self.wrap(f"verify.{c}", fn))

        def pre_grid(args, kwargs):
            sys_, grid = arg(args, kwargs, 0, "sys"), arg(args, kwargs, 1, "grid")
            corner = grid.xs[0] + 1j * grid.ys[0]
            segments = (grid.nx - 1) + (grid.ny - 1) + (corner != sys_.base)
            return args, kwargs, {"segments": int(segments)}

        def post_grid(info, result):
            info["drift"] = float(result["wronskian_drift"])

        def post_path(info, result):
            info["drift"] = float(result.wronskian_drift)

        self._rebind("entropydiff.hill", "solve_on_grid", lambda f: self.wrap(
            "hill.solve_on_grid", f, pre_grid, post_grid))
        self._rebind("entropydiff.hill", "integrate_hill", lambda f: self.wrap(
            "hill.integrate_hill", f, lambda a, k: (a, k, {}), post_path))
        self._rebind("entropydiff.surface", "sample_mesh", lambda f: self.wrap("surface.sample_mesh", f))

        def pre_writer(args, kwargs):
            return args, kwargs, {"path": arg(args, kwargs, 1, "path")}

        def post_writer(info, result):
            info["bytes"] = os.path.getsize(info.pop("path"))

        for f in ("write_obj", "write_sidecar"):
            self._rebind("entropydiff.surface", f, lambda fn, f=f: self.wrap(
                f"surface.{f}", fn, pre_writer, post_writer))
        self._rebind("entropydiff.cli", "dumps_json", lambda f: self.wrap("cli.dumps_json", f, outermost=True))

        def pre_main(args, kwargs):
            argv = list(args[0])
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            return args, kwargs, {"path": out}

        def post_main(info, result):
            path = info.pop("path")
            info["bytes"] = os.path.getsize(path) if path else 0

        self._rebind("entropydiff.cli", "main", lambda f: self.wrap("cli.main", f, pre_main, post_main))

    def uninstall(self):
        for owner, attr, orig in reversed(self._bindings):
            setattr(owner, attr, orig)
        self._bindings.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path):
        """Write the spans (without in-memory point sets) as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, info) in enumerate(self.spans):
                info = {k: v for k, v in (info or {}).items() if k != "z"}
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1, "parent": parent, **info}) + "\n")


def layer_metrics(spans: list, start: int = 0) -> dict:
    """Per-layer metrics of the spans ``spans[start:]`` (one traced pass)."""
    n = len(spans)
    child_time = [0.0] * n
    for i in range(start, n):
        parent = spans[i][3]
        if parent >= start:
            child_time[parent] += spans[i][2] - spans[i][1]

    def ancestors(i):
        p = spans[i][3]
        while p >= start:
            yield p
            p = spans[p][3]

    calls: dict = {}
    self_s: dict = {}
    total_s: dict = {}
    points: dict = {}
    for i in range(start, n):
        name, t0, t1, _, info = spans[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_time[i])
        total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
        if info and "points" in info:
            points[name] = points.get(name, 0) + info["points"]

    def spans_named(name):
        return [i for i in range(start, n) if spans[i][0] == name]

    m: dict = {}
    jet = "jets.eval_jet"
    m[f"{jet}.calls"] = calls.get(jet, 0)
    m[f"{jet}.points"] = points.get(jet, 0)
    m[f"{jet}.self_s"] = self_s.get(jet, 0.0)
    m[f"{jet}.us_per_point"] = 1e6 * self_s.get(jet, 0.0) / max(1, points.get(jet, 0))
    m["jets.AnalyticExpr.eval.calls"] = calls.get("jets.AnalyticExpr.eval", 0)
    m["jets.AnalyticExpr.eval.self_s"] = self_s.get("jets.AnalyticExpr.eval", 0.0)

    field_names = {f"weierstrass.{f}" for f in FIELDS}
    for f in FIELDS:
        name = f"weierstrass.{f}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.points"] = points.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)

    # Outermost field calls: what the callers asked for.  G-jet points are
    # jets of the asking call's data.G; the asked points count each point
    # set once, however many field calls shared it.
    outer = {}
    for i in range(start, n):
        if spans[i][0] in field_names and not any(spans[a][0] in field_names for a in ancestors(i)):
            outer[i] = spans[i][4]
    g_points = 0
    for i in spans_named(jet):
        owner = next((a for a in ancestors(i) if a in outer), None)
        if owner is not None and spans[i][4]["expr"] == outer[owner]["G"]:
            g_points += spans[i][4]["points"]
    asked = {id(info["z"]): info["points"] for info in outer.values()}
    m["weierstrass.jet_passes_per_point"] = g_points / max(1, sum(asked.values()))
    m["weierstrass.nonfinite_nodes"] = sum(info["nonfinite"] for info in outer.values())

    quad = "geomnum.integrate2d"
    m[f"{quad}.calls"] = calls.get(quad, 0)
    m[f"{quad}.panels"] = sum(spans[i][4]["panels"] for i in spans_named(quad))
    m[f"{quad}.density_calls"] = calls.get(f"{quad}.density", 0)
    m[f"{quad}.density_points"] = points.get(f"{quad}.density", 0)
    m[f"{quad}.error"] = sum(spans[i][4]["error"] for i in spans_named(quad))
    m[f"{quad}.self_s"] = self_s.get(quad, 0.0)
    seg = "geomnum.integrate_segment"
    m[f"{seg}.calls"] = calls.get(seg, 0)
    m[f"{seg}.panels"] = sum(spans[i][4]["panels"] for i in spans_named(seg))
    m[f"{seg}.self_s"] = self_s.get(seg, 0.0)
    m["geomnum.stencil.self_s"] = self_s.get("geomnum.stencil", 0.0)

    for c in CHECKS:
        m[f"verify.{c}.s"] = total_s.get(f"verify.{c}", 0.0)
    grid_calls = [
        i for i in outer
        if spans[i][0] == "weierstrass.metric_fields" and any(spans[a][0] in GRID_CHECKS for a in ancestors(i))
    ]
    grids = {id(outer[i]["z"]) for i in grid_calls}
    m["verify.metric_fields_per_grid"] = len(grid_calls) / max(1, len(grids))

    sog = "hill.solve_on_grid"
    sog_spans = spans_named(sog)
    rhs = sum(1 for i in spans_named("jets.AnalyticExpr.eval") if any(spans[a][0] == sog for a in ancestors(i)))
    m[f"{sog}.calls"] = len(sog_spans)
    m[f"{sog}.self_s"] = self_s.get(sog, 0.0)
    m[f"{sog}.rhs_calls"] = rhs
    m[f"{sog}.rhs_calls_per_segment"] = rhs / max(1, sum(spans[i][4]["segments"] for i in sog_spans))
    m["hill.integrate_hill.calls"] = calls.get("hill.integrate_hill", 0)
    m["hill.integrate_hill.self_s"] = self_s.get("hill.integrate_hill", 0.0)
    drifts = [spans[i][4]["drift"] for i in sog_spans + spans_named("hill.integrate_hill")]
    m["hill.wronskian_drift"] = max(drifts, default=0.0)

    m["surface.sample_mesh.self_s"] = self_s.get("surface.sample_mesh", 0.0)
    for f in ("write_obj", "write_sidecar"):
        name = f"surface.{f}"
        m[f"{name}.s"] = total_s.get(name, 0.0)
        m[f"{name}.bytes"] = sum(spans[i][4]["bytes"] for i in spans_named(name))
    m["cli.dumps_json.s"] = total_s.get("cli.dumps_json", 0.0)
    m["cli.report_bytes"] = sum(spans[i][4]["bytes"] for i in spans_named("cli.main"))
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    return m


def combine_passes(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median of each time over the traced passes; every other metric must
    read the same in each pass.  Returns the metrics and the mismatches."""
    out, mismatched = {}, []
    for name, _unit in LAYER_METRICS:
        values = [p[name] for p in per_pass]
        if name in TIMES:
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(name)
    return out, mismatched


def parse_importtime(stderr: str) -> dict:
    """Seconds spent importing ``entropydiff``, ``numpy`` and ``scipy``,
    from ``python -X importtime`` output: the cumulative times of each
    package's outermost imports (those with no ancestor of the same package)."""
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip().split(".")[0], int(parts[1])))
    totals = {"entropydiff": 0, "numpy": 0, "scipy": 0}
    stack: list = []  # ancestors; the output lists a parent after its children
    for depth, top, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if top in totals and all(t != top for _, t in stack):
            totals[top] += cumulative
        stack.append((depth, top))
    return {k: v / 1e6 for k, v in totals.items()}
