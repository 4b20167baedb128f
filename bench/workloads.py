"""Seeded CLI workloads and the oracle that checks each command's output.

A workload is a fixed list of ``entropydiff`` commands (one *pass*).  The
seed picks the deformation ``t`` of C_t/H_t and the ``alpha`` of
``reconstruct``; the CLI only ever sees the generated arguments.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("norm", "mesh", "grid")


# The weighted entropy norm of the catenoid (PAPER.md).
NORM_EXACT = 2.0 * math.sqrt(2.0) * math.pi**4
# The CLI default: ``tol`` bounds the inner integral I of the reported I^2.
NORM_TOL = 1e-6
# rho = q (P = Q/2) on C_t, relative to max(1, |q|), at finite nodes.
RELATION_TOL = 1e-6
# OBJ positions are printed with 9 significant digits.
OBJ_REL_TOL = 1e-7
# Least share of analyze nodes with finite rho and q.
MIN_FINITE_SHARE = 0.99


@dataclass(frozen=True)
class Params:
    t: float
    alpha: float


def params_for(seed: int) -> Params:
    # Over t in [0.3, 0.42] the norm quadrature of C_t and H_t takes the same
    # 85 panels (0.45 takes 101, 0.6 takes 117), so the seed changes the
    # inputs but not the amount of work.
    rng = random.Random(seed)
    return Params(t=round(rng.uniform(0.3, 0.42), 4), alpha=round(rng.uniform(0.5, 1.0), 4))


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``check(paths, out_dir)`` returns an error
    message or None; ``paths`` maps each output flag to its file."""

    key: str
    argv: tuple
    outputs: tuple  # (flag, suffix) pairs the harness fills with paths
    check: Callable


def output_paths(cmd: Command, out_dir) -> dict:
    return {flag: str(Path(out_dir) / f"{cmd.key}{suffix}") for flag, suffix in cmd.outputs}


def digest(paths: dict) -> str:
    h = hashlib.sha256()
    for flag in sorted(paths):
        h.update(flag.encode())
        h.update(Path(paths[flag]).read_bytes())
    return h.hexdigest()


def _doc(paths: dict) -> dict:
    return json.loads(Path(paths["--out"]).read_text())


def norm_error_bound(value: float) -> float:
    """Error of I^2 implied by the CLI's tolerance on I: 2 sqrt(I^2) tol."""
    return 2.0 * math.sqrt(abs(value)) * NORM_TOL


def check_catenoid_norm(paths, out_dir):
    value = _doc(paths)["norm"]
    if abs(value - NORM_EXACT) > norm_error_bound(NORM_EXACT):
        return f"catenoid norm {value!r} differs from 2 sqrt(2) pi^4 = {NORM_EXACT!r}"
    return None


def check_ct_norm(paths, out_dir):
    """C_t and H_t at the same t have pointwise identical densities."""
    ct = _doc(paths)["norm"]
    ht = _doc({"--out": Path(out_dir) / "norm.ht.json"})["norm"]
    if abs(ct - ht) > norm_error_bound(ct):
        return f"C_t norm {ct!r} and H_t norm {ht!r} disagree"
    return None


def _no_check(paths, out_dir):
    return None


def _obj_vertices(path) -> np.ndarray:
    with open(path) as fh:
        rows = [line[2:] for line in fh if line.startswith("v ")]
    return np.array([r.split() for r in rows], dtype=np.float64)


def check_mesh(paths, out_dir, t, nx, ny):
    from entropydiff.models import deformed_catenoid

    model = deformed_catenoid(t)
    dom = model.data.domain
    xs, ys = np.linspace(dom.x0, dom.x1, nx), np.linspace(dom.y0, dom.y1, ny)
    origin = model.closed_form(xs[0], ys[0])
    ref = np.array([model.closed_form(x, y) - origin for y in ys for x in xs])
    got = _obj_vertices(paths["--obj"])
    if got.shape != ref.shape:
        return f"OBJ has {got.shape[0]} vertices, expected {ref.shape[0]}"
    err = float(np.max(np.abs(got - ref)))
    if not err <= OBJ_REL_TOL * max(1.0, float(np.max(np.abs(ref)))):
        return f"OBJ positions differ from the C_t closed form by {err:.3g}"
    side = json.loads(Path(paths["--sidecar"]).read_text())
    if len(side["K"]) != nx * ny:
        return "sidecar vertex count mismatch"
    return None


def check_round_trip(paths, out_dir):
    doc = _doc(paths)
    if not doc["round_trip"]["pass"]:
        return "reconstruct round trip failed"
    if not Path(paths["--obj"]).stat().st_size:
        return "reconstruct wrote an empty OBJ"
    return None


# The verdict each check must reach on the catenoid.  Its E-critical metric
# is not a gradient Ricci soliton (only Enneper's is), so ``soliton`` must
# fail, with an O(1) Hessian residual, and ``all_passed`` must be false.
CATENOID_VERDICTS = {"ricci": True, "ecritical": True, "liouville": True, "soliton": False}
SOLITON_MIN_RESIDUAL = 0.1


def check_verify(paths, out_dir):
    doc = _doc(paths)
    got = {r["check"]: r["pass"] for r in doc["reports"]}
    if got != CATENOID_VERDICTS:
        return f"verify verdicts {got} differ from {CATENOID_VERDICTS}"
    if doc["all_passed"] is not all(CATENOID_VERDICTS.values()):
        return "verify all_passed disagrees with its reports"
    soliton = next(r for r in doc["reports"] if r["check"] == "soliton")
    if not soliton["stats"]["hessian_residual"] > SOLITON_MIN_RESIDUAL:
        return "the catenoid passed for a soliton"
    return None


def check_analyze(paths, out_dir):
    fields = _doc(paths)["fields"]

    def grid(name):
        return np.array(fields[name], dtype=np.float64)  # JSON null -> nan

    rho = grid("rho_re") + 1j * grid("rho_im")
    q = grid("q_re") + 1j * grid("q_im")
    finite = np.isfinite(rho) & np.isfinite(q)
    if finite.mean() < MIN_FINITE_SHARE:
        return f"only {finite.mean():.3f} of the analyze nodes are finite"
    resid = np.abs(rho - q)[finite] / np.maximum(1.0, np.abs(q[finite]))
    if resid.max() > RELATION_TOL:
        return f"rho = q fails on C_t by {resid.max():.3g}"
    return None


NORM_CATENOID = Command(
    "norm.catenoid", ("norm", "--surface", "catenoid"), (("--out", ".json"),), check_catenoid_norm
)


def commands(workload: str, seed: int, small: bool = False) -> list[Command]:
    """The commands of one pass.  ``small`` shrinks grids for smoke tests."""
    p = params_for(seed)
    t = repr(p.t)
    if workload == "norm":
        return [
            NORM_CATENOID,
            Command("norm.ht", ("norm", "--surface", "deformed-helicoid", "--t", t), (("--out", ".json"),), _no_check),
            Command("norm.ct", ("norm", "--surface", "deformed-catenoid", "--t", t), (("--out", ".json"),), check_ct_norm),
        ]
    if workload == "mesh":
        n, nr = (32, 16) if small else (256, 128)
        return [
            Command(
                "mesh.ct",
                ("mesh", "--surface", "deformed-catenoid", "--t", t, "--grid", f"{n}x{n}"),
                (("--obj", ".obj"), ("--sidecar", ".sidecar.json"), ("--out", ".json")),
                lambda paths, out_dir: check_mesh(paths, out_dir, p.t, n, n),
            ),
            Command(
                "reconstruct",
                ("reconstruct", f"--rho=-{p.alpha!r}^2", "--phi", "0", "--alpha", repr(p.alpha),
                 "--grid", f"{nr}x{nr}"),
                (("--obj", ".obj"), ("--out", ".json")),
                check_round_trip,
            ),
        ]
    if workload == "grid":
        delta, n = ("0.05", 32) if small else ("0.005", 256)
        return [
            Command(
                "verify",
                ("verify", "--surface", "catenoid", "--checks", "ricci,ecritical,soliton,liouville", "--delta", delta),
                (("--out", ".json"),),
                check_verify,
            ),
            Command(
                "analyze",
                ("analyze", "--surface", "deformed-catenoid", "--t", t, "--grid", f"{n}x{n}"),
                (("--out", ".json"),),
                check_analyze,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")
