"""The Weierstrass representation made concrete.

Immersion points by adaptive line quadrature of the three Weierstrass
1-forms, period vectors over closed cycles, and full mesh sampling with
Gauss-map normals, curvature and entropy-form norms per vertex.  Meshes
export to ASCII OBJ (v/vn/f) with a JSON sidecar of per-vertex scalars.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import PoleOnPath
from .geomnum import RectDomain, UniformGrid, integrate_segment
from .jets import eval_jet, jet_div, jet_mul
from .weierstrass import SurfaceFields, WeierstrassData

__all__ = [
    "ImmersionPoint",
    "SurfaceMesh",
    "weierstrass_integrand",
    "immersion_point",
    "period_vector",
    "inverse_stereographic",
    "sample_mesh",
    "write_obj",
    "grid_faces",
    "write_sidecar",
]

SEGMENT_TOL = 1e-10


def weierstrass_integrand(data: WeierstrassData):
    """The three 1-form coefficients ((G^-1 - G)h/2, i(G^-1 + G)h/2, h).

    Returns a callable mapping sample points (last axis) to a (3, ...)
    complex array; removable combinations like h/G are jet-cancelled, so
    the integrand evaluates cleanly through Gauss-map poles and zeros of
    immersion data.
    """

    def f(zs):
        zz = np.asarray(zs, dtype=np.complex128)
        jG = eval_jet(data.G, zz, 1)
        jh = eval_jet(data.h, zz, 1)
        with np.errstate(all="ignore"):
            h_over_G = jet_div(jh, jG).value
            hG = jet_mul(jh, jG).value
            return np.stack(
                [
                    0.5 * (h_over_G - hG),
                    0.5j * (h_over_G + hG),
                    jh.value,
                ]
            )

    return f


@dataclass
class ImmersionPoint:
    z: complex
    x: np.ndarray  # ambient 3-vector


def _integrate_polyline(f, path, tol: float):
    total = np.zeros(3, dtype=np.complex128)
    for a, b in zip(path[:-1], path[1:]):
        a, b = complex(a), complex(b)
        probe = f(np.linspace(0.0, 1.0, 33) * (b - a) + a)
        if not np.all(np.isfinite(probe)):
            raise PoleOnPath(f"Weierstrass integrand singular on segment {a} -> {b}")
        res = integrate_segment(f, a, b, tol=tol)
        if not np.all(np.isfinite(res.value)):
            raise PoleOnPath(f"Weierstrass integrand singular on segment {a} -> {b}")
        total = total + res.value
    return total


def immersion_point(
    data: WeierstrassData, p0: complex, p: complex, path=None, tol: float = SEGMENT_TOL
) -> ImmersionPoint:
    """x(p) - x(p0) = Re of the path integral of the Weierstrass forms."""
    if path is None:
        path = [p0, p]
    else:
        path = [complex(q) for q in path]
        if abs(path[0] - p0) > 1e-12 or abs(path[-1] - p) > 1e-12:
            raise ValueError("path must run from p0 to p")
    total = _integrate_polyline(weierstrass_integrand(data), path, tol)
    return ImmersionPoint(z=complex(p), x=np.real(total))


def period_vector(data: WeierstrassData, cycle, tol: float = SEGMENT_TOL) -> np.ndarray:
    """Real part of the Weierstrass integral around a closed polyline.

    On y-periodic data a polyline whose endpoints differ by a multiple of
    i*period is already closed on the quotient cylinder.  The zero vector
    means the immersion is single-valued around the cycle (the period
    condition holds there).
    """
    cycle = [complex(q) for q in cycle]
    d = cycle[-1] - cycle[0]
    closed = abs(d) < 1e-9
    if not closed and data.periodic_y:
        k = round(d.imag / data.periodic_y)
        closed = abs(d.real) < 1e-9 and abs(d.imag - k * data.periodic_y) < 1e-9
    if not closed:
        cycle = cycle + [cycle[0]]
    total = _integrate_polyline(weierstrass_integrand(data), cycle, tol)
    return np.real(total)


def inverse_stereographic(G):
    """Unit normal from the Gauss-map value: (2 Re G, 2 Im G, |G|^2 - 1)/(|G|^2 + 1).

    Large |G| is folded through 1/G so the north pole comes out exact;
    non-finite G maps to (0, 0, 1).
    """
    Gv = np.asarray(G, dtype=np.complex128)
    out = np.empty(Gv.shape + (3,), dtype=np.float64)
    big = ~np.isfinite(Gv) | (np.abs(Gv) > 1.0)
    with np.errstate(all="ignore"):
        denom = np.abs(Gv) ** 2 + 1.0
        out[..., 0] = 2 * np.real(Gv) / denom
        out[..., 1] = 2 * np.imag(Gv) / denom
        out[..., 2] = (np.abs(Gv) ** 2 - 1.0) / denom
        if np.any(big):
            u = np.where(big, 1.0 / np.where(Gv == 0, 1.0, Gv), 0.0)
            finite_u = np.isfinite(u)
            u = np.where(finite_u, u, 0.0)
            du = np.abs(u) ** 2 + 1.0
            out[..., 0] = np.where(big, 2 * np.real(u) / du, out[..., 0])
            out[..., 1] = np.where(big, -2 * np.imag(u) / du, out[..., 1])
            out[..., 2] = np.where(big, (1.0 - np.abs(u) ** 2) / du, out[..., 2])
    return out


@dataclass
class SurfaceMesh:
    """Sampled immersion on a parameter grid (arrays indexed [iy, ix])."""

    grid: UniformGrid
    zs: np.ndarray          # actual sample points (pole hits perturbed)
    positions: np.ndarray   # (ny, nx, 3)
    normals: np.ndarray     # (ny, nx, 3), unit
    K: np.ndarray
    T_norm: np.ndarray
    That_norm: np.ndarray
    faces: np.ndarray = field(default=None)  # (nfaces, 3) row-major vertex ids

    @property
    def vertex_count(self) -> int:
        return self.zs.size


def grid_faces(ny: int, nx: int) -> np.ndarray:
    """Quads split into two triangles, counterclockwise in (x, y) so the
    right-hand rule matches the Gauss-map normal."""
    iy, ix = np.meshgrid(np.arange(ny - 1), np.arange(nx - 1), indexing="ij")
    v00 = iy * nx + ix
    v10 = v00 + 1          # +x neighbor
    v01 = v00 + nx         # +y neighbor
    v11 = v01 + 1
    tri1 = np.stack([v00, v10, v11], axis=-1).reshape(-1, 3)
    tri2 = np.stack([v00, v11, v01], axis=-1).reshape(-1, 3)
    faces = np.empty((tri1.shape[0] * 2, 3), dtype=np.int64)
    faces[0::2] = tri1
    faces[1::2] = tri2
    return faces


def sample_mesh(
    data: WeierstrassData,
    resolution,
    domain: RectDomain | None = None,
    tol: float = SEGMENT_TOL,
) -> SurfaceMesh:
    """Sample the immersion on an nx-by-ny grid.

    Positions come from cumulative path integration: along x on the bottom
    row, then along y up each column (path independence makes the order
    immaterial).  Grid nodes that hit data singularities exactly are
    perturbed by half a step in x before field evaluation.
    """
    nx, ny = resolution
    grid = (domain or data.domain).grid(nx, ny)
    f = weierstrass_integrand(data)

    # detect exact singular hits and perturb those sample points
    zs = grid.zs.copy()
    probe = f(zs)
    bad = ~np.all(np.isfinite(probe), axis=0)
    if np.any(bad):
        zs = np.where(bad, zs + 0.5 * grid.hx, zs)
        if not np.all(np.isfinite(f(zs[bad]))):
            raise PoleOnPath("mesh nodes hit a non-removable singularity even after perturbation")

    positions = np.empty((ny, nx, 3), dtype=np.float64)
    acc = np.zeros(3, dtype=np.complex128)
    positions[0, 0] = 0.0
    # bottom row, left to right
    for i in range(1, nx):
        res = integrate_segment(f, zs[0, i - 1], zs[0, i], tol=tol)
        acc = acc + res.value
        positions[0, i] = np.real(acc)
    # all columns in lockstep, bottom to top
    col_acc = positions[0, :, :].astype(np.complex128).T  # (3, nx)

    for j in range(1, ny):
        za_row = zs[j - 1, :]
        zb_row = zs[j, :]

        def fcol(ts, za=za_row, zb=zb_row):
            # shared parameter t in [0,1] for every column
            pts = za[:, None] + np.asarray(ts)[None, :] * (zb - za)[:, None]
            vals = f(pts)  # (3, nx, nt)
            return vals * (zb - za)[None, :, None]

        res = integrate_segment(fcol, 0.0, 1.0, tol=tol)
        col_acc = col_acc + res.value
        positions[j, :, :] = np.real(col_acc).T

    fields = SurfaceFields(data, zs)
    T, That = fields.norms

    return SurfaceMesh(
        grid=grid,
        zs=zs,
        positions=positions,
        normals=inverse_stereographic(fields.G),
        K=fields.metric["K"],
        T_norm=T,
        That_norm=That,
        faces=grid_faces(ny, nx),
    )


def write_obj(mesh: SurfaceMesh, path: str):
    """ASCII OBJ with positions, unit normals, and triangulated faces."""
    ny, nx = mesh.zs.shape
    with open(path, "w") as fh:
        fh.write(f"# entropydiff surface mesh {nx}x{ny}\n")
        pos = mesh.positions.reshape(-1, 3)
        nor = mesh.normals.reshape(-1, 3)
        for p in pos:
            fh.write("v %.9g %.9g %.9g\n" % (p[0], p[1], p[2]))
        for n in nor:
            fh.write("vn %.9g %.9g %.9g\n" % (n[0], n[1], n[2]))
        for a, b, c in mesh.faces + 1:
            fh.write(f"f {a}//{a} {b}//{b} {c}//{c}\n")


def write_sidecar(mesh: SurfaceMesh, path: str):
    """JSON sidecar with per-vertex scalars in row-major vertex order."""
    doc = {
        "schema": 1,
        "nx": mesh.zs.shape[1],
        "ny": mesh.zs.shape[0],
        "K": [float(v) for v in mesh.K.reshape(-1)],
        "T_norm": [float(v) for v in mesh.T_norm.reshape(-1)],
        "That_norm": [float(v) for v in mesh.That_norm.reshape(-1)],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
