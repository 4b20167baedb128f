"""Command-line front door.

Subcommands: ``analyze`` (fields + summary of lambda^2, K, q, rho, |T|,
|That| on a grid), ``reconstruct`` (Hill-equation inverse problem with
round-trip residuals and optional OBJ mesh), ``verify`` (named identity
checks), ``norm`` (weighted entropy norm), ``mesh`` (OBJ + JSON sidecar).

Surfaces come either from the catalog (--surface NAME [--t T | --mu MU])
or from expression strings (--G EXPR --h EXPR --domain x0,x1,y0,y1).
Reports are JSON (schema 1) with floats printed to 17 significant digits
and fixed key order, so identical configs produce byte-identical files.
Exit codes: 0 success, 1 bad input (expressions that do not parse, grids
over MAX_GRID_NODES, samples over MAX_SAMPLES too), 2 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from .errors import DegeneratePoint, EntropyDiffError, ExpressionParseError
from .geomnum import RectDomain
from .hill import (
    HOPF_SIGN_CONVENTION,
    HillSystem,
    canonical_state_mu_nu,
    canonical_state_phi_alpha,
    integrate_hill,
    reconstruct_weierstrass,
    solve_on_grid,
)
from .jets import parse_expression
from .models import MODEL_NAMES, get_model
from .surface import sample_mesh, spinor_mesh, write_obj, write_sidecar
from .verify import hill_round_trip, run_checks, weighted_entropy_norm
from .weierstrass import SurfaceFields, WeierstrassData

SCHEMA_VERSION = 1
T_CLAMP = 1e-3
MAX_GRID_NODES = 1 << 20  # 1024x1024; analyze at 512x512 peaks near 250 MB
MAX_SAMPLES = 10_000  # reconstruct --samples; about 2 s and 16 MB of JSON


# ---------------------------------------------------------------------------
# Deterministic JSON
# ---------------------------------------------------------------------------

def dumps_json(obj, indent: int = 0) -> str:
    """JSON with 17-significant-digit floats and insertion-ordered keys; a
    list over 100 characters prints one element per line, and a 1-D ndarray
    is formatted by one ``%`` call, its non-finite elements as null."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {dumps_json(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray) and obj.ndim == 1:
            finite = np.isfinite(obj)
            seq = (", ".join(np.where(finite, "%.17g", "null").tolist()) % tuple(obj[finite].tolist())).split(", ")
        else:
            seq = [dumps_json(v, indent) for v in obj]
        flat = ", ".join(seq)
        if len(flat) <= 100:
            return "[" + flat + "]"
        return "[\n" + pad + "  " + (",\n" + pad + "  ").join(seq) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return "null" if math.isnan(obj) else format(float(obj), ".17g")
    if isinstance(obj, complex):
        return dumps_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(doc: dict, out_path: str | None):
    text = dumps_json(doc) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

class _CliParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1 = bad input
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


class BadInput(ValueError):
    pass


@contextlib.contextmanager
def _refused_as_bad_input():
    """A plain ValueError from the library means it refused the input."""
    try:
        yield
    except ValueError as exc:
        if isinstance(exc, (BadInput, EntropyDiffError)):
            raise
        raise BadInput(str(exc)) from exc


def _parse_grid(text: str):
    try:
        nx, ny = (int(p) for p in text.lower().split("x"))
    except Exception as exc:
        raise BadInput(f"bad grid spec {text!r}; expected NXxNY") from exc
    if nx < 8 or ny < 8:
        raise BadInput("grid resolution must be at least 8x8")
    _check_nodes(nx, ny)
    return nx, ny


def _check_nodes(nx: float, ny: float):
    if not nx * ny <= MAX_GRID_NODES:
        raise BadInput(f"a {nx:.0f}x{ny:.0f} grid has {nx * ny:.0f} nodes, over the limit of {MAX_GRID_NODES}")


def _parse_domain(text: str) -> RectDomain:
    try:
        x0, x1, y0, y1 = (float(p) for p in text.split(","))
        if not all(map(math.isfinite, (x0, x1, y0, y1))):
            raise ValueError("non-finite bound")
        return RectDomain(x0, x1, y0, y1)
    except Exception as exc:
        raise BadInput(f"bad domain {text!r}; expected finite x0,x1,y0,y1") from exc


def _positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise BadInput(f"{name} must be a finite number > 0, not {value!r}")
    return value


def _parse_complex(text: str) -> complex:
    return complex(parse_expression(text).eval(0.0))


def _surface_from_args(args) -> tuple[WeierstrassData, dict]:
    """Resolve exactly one surface spec: catalog name or expression pair."""
    has_catalog = args.surface is not None
    has_expr = args.G is not None or args.h is not None
    if has_catalog == has_expr:
        raise BadInput("give exactly one surface spec: --surface NAME or --G/--h/--domain")
    if has_catalog:
        params: dict = {"surface": args.surface}
        t = args.t
        if t is not None:
            if not -1.0 < t < 1.0:
                raise BadInput("t must lie in (-1,1)")
            if abs(t) > 1.0 - T_CLAMP:
                t = math.copysign(1.0 - T_CLAMP, t)
                params["t_clamped"] = t
        kwargs = {}
        if t is not None:
            kwargs["t"] = t
            params["t"] = t
        if args.mu is not None:
            kwargs["mu"] = args.mu
            params["mu"] = args.mu
        try:
            model = get_model(args.surface, **kwargs)
        except (ValueError, TypeError) as exc:
            raise BadInput(str(exc)) from exc
        data = model.data
        if args.domain is not None:
            data = WeierstrassData(data.G, data.h, _parse_domain(args.domain), data.periodic_y, data.label)
        return data, params
    if args.G is None or args.h is None or args.domain is None:
        raise BadInput("expression surfaces need --G, --h and --domain")
    G = parse_expression(args.G)
    h = parse_expression(args.h)
    dom = _parse_domain(args.domain)
    data = WeierstrassData(G, h, dom, periodic_y=args.periodic_y, label="custom")
    return data, {"G": args.G, "h": args.h, "domain": args.domain}


def _add_surface_args(p: argparse.ArgumentParser):
    p.add_argument("--surface", choices=MODEL_NAMES, help="catalog surface name")
    p.add_argument("--t", type=float, help="deformation parameter for the deformed families")
    p.add_argument("--mu", type=float, help="scale parameter (Enneper catalog / reconstruct state)")
    p.add_argument("--G", help="Gauss map expression, e.g. '-exp(z)'")
    p.add_argument("--h", help="height differential coefficient expression")
    p.add_argument("--domain", help="rectangle x0,x1,y0,y1")
    p.add_argument("--periodic-y", dest="periodic_y", type=float, help="y-period of the data")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> dict:
    data, params = _surface_from_args(args)
    nx, ny = _parse_grid(args.grid)
    grid = data.domain.grid(nx, ny)
    f = SurfaceFields(data, grid.zs)
    mf, q, rho = f.metric, f.q, f.rho
    T, That = f.norms
    K = mf["K"]
    finiteK = K[np.isfinite(K)]
    if not finiteK.size:
        raise DegeneratePoint("the curvature K is not finite at any grid node")
    finite_rho = np.abs(rho[np.isfinite(rho)])
    return {
        "schema": SCHEMA_VERSION,
        "command": "analyze",
        "params": params,
        "grid": {"nx": nx, "ny": ny, "domain": [grid.domain.x0, grid.domain.x1, grid.domain.y0, grid.domain.y1]},
        "summary": {
            "K_min": float(finiteK.min()),
            "K_max": float(finiteK.max()),
            "max_abs_rho": float(finite_rho.max()) if finite_rho.size else None,
            # fmax/fmin skip NaN as nanmax/nanmin do, but give NaN for all-NaN without a warning
            "max_T_norm": float(np.fmax.reduce(np.where(np.isfinite(T), T, np.nan), axis=None)),
            "max_That_norm": float(np.fmax.reduce(np.where(np.isfinite(That), That, np.nan), axis=None)),
        },
        "fields": {
            "lambda_sq": mf["lambda_sq"],
            "K": K,
            "q_re": q.real,
            "q_im": q.imag,
            "rho_re": rho.real,
            "rho_im": rho.imag,
            "T_norm": T,
            "That_norm": That,
        },
    }


def _reconstruct_system(args) -> tuple[HillSystem, dict]:
    rho = parse_expression(args.rho)
    params: dict = {"rho": args.rho}
    with _refused_as_bad_input():
        if args.phi is not None or args.alpha is not None:
            if args.phi is None or args.alpha is None:
                raise BadInput("the exponential normal form needs both --phi and --alpha")
            alpha = _parse_complex(args.alpha)
            state = canonical_state_phi_alpha(args.phi, alpha)
            params.update({"phi": args.phi, "alpha": args.alpha})
        else:
            mu = args.mu if args.mu is not None else 1.0
            nu = _parse_complex(args.nu) if args.nu is not None else 0j
            state = canonical_state_mu_nu(mu, nu)
            params.update({"mu": mu, "nu": [nu.real, nu.imag]})
        return HillSystem(rho, 0.0, state), params


def cmd_reconstruct(args) -> dict:
    sys_, params = _reconstruct_system(args)
    dom = _parse_domain(args.domain) if args.domain else RectDomain(-1.0, 1.0, -1.0, 1.0)
    nsamp = _positive("--samples", args.samples)
    if nsamp > MAX_SAMPLES:
        raise BadInput(f"--samples {nsamp} is over the limit of {MAX_SAMPLES}")
    nx, ny = _parse_grid(args.grid)
    reach = complex(dom.x1, dom.y1) * 0.9
    pts = [reach * t for t in np.linspace(1.0 / nsamp, 1.0, nsamp)]
    sol = integrate_hill(sys_, [0.0] + pts)
    recs = reconstruct_weierstrass(sol)
    sample_rows = [
        {
            "z": complex(r.z),
            "G": None if r.G is None else complex(r.G),
            "h": complex(r.h),
            "lambda_sq": r.lambda_sq,
            "u": r.u,
        }
        for r in recs[:: max(1, len(recs) // (2 * nsamp))]
    ]
    trip = hill_round_trip(sys_.rho, n_samples=min(nsamp, 50), reach=reach, state=sys_.state_at_base)

    doc = {
        "schema": SCHEMA_VERSION,
        "command": "reconstruct",
        "params": params,
        "hopf_sign": HOPF_SIGN_CONVENTION,
        "wronskian_drift": sol.wronskian_drift,
        "round_trip": trip.to_dict(),
        "samples": sample_rows,
    }
    if args.obj:
        grid = dom.grid(nx, ny)
        fields = solve_on_grid(sys_, grid, with_positions=True)
        mesh = spinor_mesh(grid, fields, sys_.rho)
        write_obj(mesh, args.obj)
        doc["obj"] = args.obj
        if args.sidecar:
            write_sidecar(mesh, args.sidecar)
            doc["sidecar"] = args.sidecar
        doc["mesh_wronskian_drift"] = fields["wronskian_drift"]
    return doc


def cmd_verify(args) -> dict:
    data, params = _surface_from_args(args)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        raise BadInput("no checks requested")
    delta = _positive("--delta", args.delta)
    patch = RectDomain(1.0, 3.0, -1.0, 1.0) if args.surface == "enneper" else RectDomain(-1.0, 1.0, -1.0, 1.0)
    if args.domain is not None:
        patch = _parse_domain(args.domain)
    # float counts (rint ties to even, like round()) so a side / delta that overflows reaches the check
    n, ny = (max(8.0, np.rint(s / delta) + 1.0) for s in (patch.x1 - patch.x0, patch.y1 - patch.y0))
    _check_nodes(n, ny)
    grid = patch.grid(int(n), int(ny))
    with _refused_as_bad_input():
        reports = run_checks(checks, data, grid, args.surface, params.get("t"))  # the clamped t
    return {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "params": {**params, "checks": checks, "delta": delta},
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }


def cmd_norm(args) -> dict:
    data, params = _surface_from_args(args)
    dom = data.domain
    x_cut = args.x_cut
    if x_cut is None and args.domain is None and data.periodic_y is not None:
        # periodic families live on the full strip; the sech-type tails of
        # the model densities are below tol/10 by |x| = 20
        x_cut = 20.0
    if x_cut is not None:
        x_cut = _positive("--x-cut", x_cut)
        dom = RectDomain(-x_cut, x_cut, dom.y0, dom.y1)
    value = weighted_entropy_norm(data, dom, tol=_positive("--tol", args.tol))
    return {
        "schema": SCHEMA_VERSION,
        "command": "norm",
        "params": {**params, "domain": [dom.x0, dom.x1, dom.y0, dom.y1], "tol": args.tol},
        "norm": value,
    }


def cmd_mesh(args) -> dict:
    data, params = _surface_from_args(args)
    nx, ny = _parse_grid(args.grid)
    mesh = sample_mesh(data, (nx, ny))
    write_obj(mesh, args.obj)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "mesh",
        "params": {**params, "nx": nx, "ny": ny},
        "obj": args.obj,
        "vertices": int(mesh.vertex_count),
        "faces": int(mesh.faces.shape[0]),
        "K_min": float(np.fmin.reduce(mesh.K, axis=None)),
    }
    if args.sidecar:
        write_sidecar(mesh, args.sidecar)
        doc["sidecar"] = args.sidecar
    return doc


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _CliParser(prog="entropydiff", description="entropy differentials of minimal surfaces")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="fields and summary stats on a grid")
    _add_surface_args(pa)
    pa.add_argument("--grid", default="32x32")
    pa.add_argument("--out")
    pa.set_defaults(fn=cmd_analyze)

    pr = sub.add_parser("reconstruct", help="rebuild a surface from its entropy coefficient")
    pr.add_argument("--rho", required=True, help="entropy coefficient expression")
    pr.add_argument("--mu", type=float, help="mu > 0 of the (mu, nu + z/(2 mu)) state")
    pr.add_argument("--nu", help="nu of the linear state (complex literal)")
    pr.add_argument("--phi", type=float, help="phi of the exponential normal form")
    pr.add_argument("--alpha", help="alpha of the exponential normal form (complex literal)")
    pr.add_argument("--domain")
    pr.add_argument("--samples", type=int, default=25)
    pr.add_argument("--grid", default="32x32")
    pr.add_argument("--obj")
    pr.add_argument("--sidecar")
    pr.add_argument("--out")
    pr.set_defaults(fn=cmd_reconstruct)

    pv = sub.add_parser("verify", help="run identity checks")
    _add_surface_args(pv)
    pv.add_argument("--checks", default="ricci,ecritical")
    pv.add_argument("--delta", type=float, default=0.01)
    pv.add_argument("--out")
    pv.set_defaults(fn=cmd_verify)

    pn = sub.add_parser("norm", help="weighted entropy norm")
    _add_surface_args(pn)
    pn.add_argument("--x-cut", dest="x_cut", type=float, help="truncate the x-range at +/- this value")
    pn.add_argument("--tol", type=float, default=1e-6)
    pn.add_argument("--out")
    pn.set_defaults(fn=cmd_norm)

    pm = sub.add_parser("mesh", help="sample and export an OBJ mesh")
    _add_surface_args(pm)
    pm.add_argument("--grid", default="64x64")
    pm.add_argument("--obj", required=True)
    pm.add_argument("--sidecar")
    pm.add_argument("--out")
    pm.set_defaults(fn=cmd_mesh)
    return p


_VALUE_FLAGS = {"--domain", "--nu", "--alpha", "--G", "--h"}


def _join_negative_values(argv):
    """Fold '--domain -1,1,-1,1' into '--domain=-1,1,-1,1' so argparse does
    not mistake leading-minus values for option flags."""
    out, it = [], iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        doc = args.fn(args)
    except (BadInput, ExpressionParseError) as exc:
        _emit({"schema": SCHEMA_VERSION, "error": {"code": "bad-input", "message": str(exc)}}, getattr(args, "out", None))
        return 1
    except EntropyDiffError as exc:
        _emit({"schema": SCHEMA_VERSION, "error": {"code": exc.code, "message": str(exc)}}, getattr(args, "out", None))
        return 2
    _emit(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
