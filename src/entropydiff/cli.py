"""Command-line front door.

Subcommands: ``analyze`` (fields + summary of lambda^2, K, q, rho, |T|,
|That| on a grid), ``reconstruct`` (Hill-equation inverse problem with
round-trip residuals and optional OBJ mesh), ``verify`` (named identity
checks), ``norm`` (weighted entropy norm), ``mesh`` (OBJ + JSON sidecar).

Surfaces come either from the catalog (--surface NAME [--t T | --mu MU])
or from expression strings (--G EXPR --h EXPR --domain x0,x1,y0,y1).
Reports are JSON (schema 1) with floats printed to 17 significant digits
and fixed key order, so identical configs produce byte-identical files.
Exit codes: 0 success, 1 bad input (usage errors, options the run does not
use, expressions that do not parse, grids over MAX_GRID_NODES, samples over
MAX_SAMPLES too), 2 numeric failure; a failure writes the error document.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
from .jets import AnalyticExpr, parse_expression
from .models import MODEL_NAMES, get_model
from .surface import sample_mesh, spinor_mesh, write_obj, write_sidecar
from .verify import hill_round_trip, run_checks, weighted_entropy_norm
from .weierstrass import WeierstrassData, fields_of

SCHEMA_VERSION = 1
T_CLAMP = 1e-3
MAX_GRID_NODES = 1 << 20  # 1024x1024; analyze peaks near 69 MB at 512x512, 180 MB at 1024x1024
MAX_SAMPLES = 10_000  # reconstruct --samples; about 0.6 s and 3 MB of JSON


# ---------------------------------------------------------------------------
# Deterministic JSON
# ---------------------------------------------------------------------------

def dumps_json(obj, indent: int = 0) -> str:
    """JSON with 17-significant-digit floats and insertion-ordered keys; a
    list over 100 characters prints one element per line, and non-finite
    elements of an ndarray print as null.  A dict is the join of
    :func:`_pieces`; an ndarray with rows of 35 or more elements is written
    by the text module ``_text`` (:func:`_dumps_long_array`).  A
    numpy bool and a 0-d array take the rule of their Python scalar."""
    if isinstance(obj, dict):
        return "".join(_pieces(obj, indent))
    pad = " " * indent
    if isinstance(obj, np.ndarray) and not obj.ndim:
        obj = obj.item()
    if isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray):
            if obj.size and obj.shape[-1] >= 35:
                return _dumps_long_array(obj, pad)
            if obj.ndim == 1:
                obj = [v if math.isfinite(v) else None for v in obj.tolist()]
        seq = [dumps_json(v, indent) for v in obj]
        flat = ", ".join(seq)
        if len(flat) <= 100:
            return "[" + flat + "]"
        return "[\n" + pad + "  " + (",\n" + pad + "  ").join(seq) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
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


def _dumps_long_array(arr: np.ndarray, pad: str) -> str:
    """n elements joined by ", " take at least 3n - 2 characters, so rows of
    35 or more are over 100 whatever their values: every level prints one
    element per line, all at ``pad``.  The text module ``_text`` writes
    every element, ``%.17g`` or ``null`` for a non-finite one, Python's
    ``format`` those it cannot vouch for, one call per ``_text.BLOCK``
    elements; after each it writes the text up to the next: the line
    break, or the ends of the rows the element closes and the starts of
    those that follow."""
    from . import _text  # on first use: compiled with the CLI, it added 1 ms and 0.3 MB to every command

    begin, end, line = "[\n" + pad + "  ", "\n" + pad + "]", ",\n" + pad + "  "
    flat = arr.reshape(-1)
    closed = np.zeros(arr.shape, dtype=np.uint8)  # the rows an element closes: its trailing axes at their end
    for m in range(1, arr.ndim + 1):
        closed[(...,) + (-1,) * m] += 1
    closed = closed.reshape(-1)
    inner = (closed == 0).view(np.uint8)
    pieces = [begin * arr.ndim]  # each element, then the line break or the byte m if it closes m rows
    for i in range(0, flat.size, _text.BLOCK):
        block = flat[i : i + _text.BLOCK]
        after = [inner[i : i + _text.BLOCK] * c for c in line.encode()] + [closed[i : i + _text.BLOCK]]
        piece = _text.text([_text.float_rows(block, _text.G17), after], block.size)
        for m in range(1, arr.ndim):
            piece = piece.replace(chr(m), end * m + line + begin * m)
        pieces.append(piece)
    pieces[-1] = pieces[-1][:-1] + end * arr.ndim  # the last element closes every row
    return "".join(pieces)


def _pieces(obj: dict, indent: int = 0):
    """The text of the dict ``obj`` in pieces: each of its values, and each
    value of a dict nested in it, is one piece, so a writer never holds the
    whole document."""
    if not obj:
        yield "{}"
        return
    pad, sep = " " * indent, "{\n"
    for k, v in obj.items():
        yield f'{sep}{pad}  "{k}": '
        if isinstance(v, dict):
            yield from _pieces(v, indent + 2)
        else:
            yield dumps_json(v, indent + 2)
        sep = ",\n"
    yield "\n" + pad + "}"


def _error_doc(code: str, message: str) -> dict:
    return {"schema": SCHEMA_VERSION, "error": {"code": code, "message": message}}


def _emit(doc: dict, out_path: str | None):
    """Write ``doc`` and a newline to ``out_path``, or to stdout, one piece
    of :func:`_pieces` at a time."""
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(_pieces(doc))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

class _CliParser(argparse.ArgumentParser):
    # argparse prints usage errors to stderr and exits 2; here they are bad
    # input: the error document on stdout (--out is not parsed yet), exit 1
    def error(self, message):
        _emit(_error_doc("bad-input", f"{self.prog}: {message}"), None)
        self.exit(1)


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


def _parse(flag: str, text: str) -> AnalyticExpr:
    try:
        return parse_expression(text)
    except ExpressionParseError as exc:
        raise BadInput(f"{flag}: {exc}") from exc


def _constant(e: AnalyticExpr) -> bool:
    """No z in the folded tree."""
    return e.kind != "z" and all(map(_constant, e.args))


def _parse_complex(flag: str, text: str) -> complex:
    e = _parse(flag, text)
    value = e.eval(np.zeros(1))[0]  # at z = 0; a pole there reads NaN
    if not (_constant(e) and np.isfinite(value)):
        raise BadInput(f"{flag} must be a finite constant, not {text!r}")
    return complex(value)


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
    if args.t is not None or args.mu is not None:
        raise BadInput("an expression surface takes no --t or --mu")
    if args.G is None or args.h is None or args.domain is None:
        raise BadInput("expression surfaces need --G, --h and --domain")
    G, h = _parse("--G", args.G), _parse("--h", args.h)
    dom = _parse_domain(args.domain)
    data = WeierstrassData(G, h, dom, label="custom")
    return data, {"G": args.G, "h": args.h, "domain": args.domain}


def _add_surface_args(p: argparse.ArgumentParser):
    p.add_argument("--surface", choices=MODEL_NAMES, help="catalog surface name")
    p.add_argument("--t", type=float, help="deformation parameter for the deformed families")
    p.add_argument("--mu", type=float, help="scale parameter (Enneper catalog / reconstruct state)")
    p.add_argument("--G", help="Gauss map expression, e.g. '-exp(z)'")
    p.add_argument("--h", help="height differential coefficient expression")
    p.add_argument("--domain", help="rectangle x0,x1,y0,y1")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> dict:
    data, params = _surface_from_args(args)
    nx, ny = _parse_grid(args.grid)
    grid = data.domain.grid(nx, ny)
    lambda_sq, K, q, rho, T, That = fields_of(data, grid.zs, lambda f: (
        f.metric["lambda_sq"], f.metric["K"], f.q, f.rho, *f.norms))
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
            "lambda_sq": lambda_sq,
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
    rho = _parse("--rho", args.rho)
    params: dict = {"rho": args.rho}
    with _refused_as_bad_input():
        if args.phi is not None or args.alpha is not None:
            if args.phi is None or args.alpha is None:
                raise BadInput("the exponential normal form needs both --phi and --alpha")
            if args.mu is not None or args.nu is not None:
                raise BadInput("--mu and --nu set the linear state, not the exponential one of --phi/--alpha")
            alpha = _parse_complex("--alpha", args.alpha)
            state = canonical_state_phi_alpha(args.phi, alpha)
            params.update({"phi": args.phi, "alpha": args.alpha})
        else:
            mu = args.mu if args.mu is not None else 1.0
            nu = _parse_complex("--nu", args.nu) if args.nu is not None else 0j
            state = canonical_state_mu_nu(mu, nu)
            params.update({"mu": mu, "nu": [nu.real, nu.imag]})
        return HillSystem(rho, 0.0, state), params


def cmd_reconstruct(args) -> dict:
    for flag, value in (("--grid", args.grid), ("--sidecar", args.sidecar)):
        if value is not None and not args.obj:
            raise BadInput(f"{flag} describes the mesh of --obj; give --obj too")
    sys_, params = _reconstruct_system(args)
    dom = _parse_domain(args.domain) if args.domain else RectDomain(-1.0, 1.0, -1.0, 1.0)
    nsamp = _positive("--samples", args.samples)
    if nsamp > MAX_SAMPLES:
        raise BadInput(f"--samples {nsamp} is over the limit of {MAX_SAMPLES}")
    nx, ny = _parse_grid("32x32" if args.grid is None else args.grid) if args.obj else (0, 0)
    reach = complex(dom.x1, dom.y1) * 0.9
    pts = [reach * t for t in np.linspace(1.0 / nsamp, 1.0, nsamp)]
    sol = integrate_hill(sys_, [0.0] + pts)
    sample_rows = [
        {
            "z": complex(r.z),
            "G": None if r.G is None else complex(r.G),
            "h": complex(r.h),
            "lambda_sq": r.lambda_sq,
            "u": r.u,
        }
        for r in reconstruct_weierstrass(sol)
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
        doc.update({f"mesh_{k}": fields[k] for k in ("wronskian_drift", "steps", "rejected")})
    return doc


def cmd_verify(args) -> dict:
    data, params = _surface_from_args(args)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        raise BadInput("no checks requested")
    delta = _positive("--delta", args.delta)
    patch = RectDomain(-1.0, 1.0, -1.0, 1.0) if args.domain is None else _parse_domain(args.domain)
    # float counts (rint ties to even) let an overflowing side / delta reach the check; 9 nodes give 5 at stride 2
    n, ny = (max(9.0, np.rint(s / delta) + 1.0) for s in (patch.x1 - patch.x0, patch.y1 - patch.y0))
    _check_nodes(n, ny)
    grid = patch.grid(int(n), int(ny))
    with _refused_as_bad_input():
        reports = run_checks(checks, data, grid, args.surface, params.get("t"))  # the clamped t
    return {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "params": {**params, "checks": checks, "delta": max(grid.hx, grid.hy)},
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }


def cmd_norm(args) -> dict:
    data, params = _surface_from_args(args)
    dom = None if args.domain is None else data.domain
    if args.x_cut is not None:
        x_cut = _positive("--x-cut", args.x_cut)
        dom = RectDomain(-x_cut, x_cut, data.domain.y0, data.domain.y1)
    value = weighted_entropy_norm(data, dom, tol=_positive("--tol", args.tol))
    d = value.domain
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "norm",
        "params": {**params, "domain": [d.x0, d.x1, d.y0, d.y1], "tol": args.tol},
        "norm": float(value),
    }
    if value.diagnostics is not None:
        doc["error_estimate"] = value.error_estimate
        doc["diagnostics"] = value.diagnostics
    return doc


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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by
    every later one: building it takes about 1 ms, parsing 0.05 ms, and
    ``parse_args`` keeps no state between calls."""
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
    pr.add_argument("--nu", help="nu of the linear state (constant expression)")
    pr.add_argument("--phi", type=float, help="phi of the exponential normal form")
    pr.add_argument("--alpha", help="alpha of the exponential normal form (constant expression)")
    pr.add_argument("--domain")
    pr.add_argument("--samples", type=int, default=25)
    pr.add_argument("--grid", help="mesh of --obj (default 32x32)")
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


_VALUE_FLAGS = {"--domain", "--nu", "--alpha", "--G", "--h", "--rho"}


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
        _emit(_error_doc("bad-input", str(exc)), args.out)
        return 1
    except EntropyDiffError as exc:
        _emit(_error_doc(exc.code, str(exc)), args.out)
        return 2
    _emit(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
