"""The Weierstrass representation made concrete.

Immersion points by adaptive line quadrature of the three Weierstrass
1-forms, period vectors over closed cycles, and full mesh sampling with
Gauss-map normals, curvature and entropy-form norms per vertex.  Meshes
export to ASCII OBJ (v/vn/f, ``%.9g``) with a compact JSON vertex sidecar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import PoleOnPath
from .geomnum import RectDomain, UniformGrid, integrate_segment
from .jets import AnalyticExpr, eval_jet, jet_div, jet_mul
from .weierstrass import SurfaceFields, WeierstrassData

__all__ = [
    "ImmersionPoint",
    "SurfaceMesh",
    "weierstrass_integrand",
    "immersion_point",
    "period_vector",
    "inverse_stereographic",
    "sample_mesh",
    "spinor_mesh",
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


def _edge_integrals(f, za, zb, tol: float) -> np.ndarray:
    """Integrals (3, n) of f along the edges za[k] -> zb[k], all in one
    lockstep quadrature on a shared parameter t in [0, 1]."""
    d = zb - za

    def g(ts):
        return f(za[:, None] + d[:, None] * ts[None, :]) * d[None, :, None]

    return integrate_segment(g, 0.0, 1.0, tol=tol).value


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
    positions[0, 0] = 0.0
    # bottom row, left to right, then all columns bottom to top
    row = np.cumsum(_edge_integrals(f, zs[0, :-1], zs[0, 1:], tol), axis=1)
    positions[0, 1:] = np.real(row).T
    col_acc = positions[0].astype(np.complex128).T  # (3, nx)
    for j in range(1, ny):
        col_acc = col_acc + _edge_integrals(f, zs[j - 1], zs[j], tol)
        positions[j] = np.real(col_acc).T

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


def spinor_mesh(grid: UniformGrid, fields: dict, rho: AnalyticExpr) -> SurfaceMesh:
    """The mesh of a surface rebuilt from a Hill pair (w1, w2) for ``rho``:
    ``fields`` as ``hill.solve_on_grid(..., with_positions=True)`` returns
    them on ``grid``.  lambda = |w1|^2 + |w2|^2, K = -1/lambda^4, G = w2/w1
    and |T| = |rho|/(sqrt(2) lambda^2)."""
    w1, w2 = fields["w1"], fields["w2"]
    norm_sq = np.abs(w1) ** 2 + np.abs(w2) ** 2
    lam2 = norm_sq**2
    K = -1.0 / lam2**2
    with np.errstate(all="ignore"):
        G = np.where(np.abs(w1) > 0, w2 / np.where(w1 == 0, 1.0, w1), np.inf)
        T = np.abs(rho.eval(grid.zs)) / (np.sqrt(2.0) * lam2)
        That = np.abs(K) * T
    positions = np.stack([fields["x1"], fields["x2"], fields["x3"]], axis=-1)
    return SurfaceMesh(grid, grid.zs, positions, inverse_stereographic(G), K, T, That, grid_faces(*grid.shape))


def write_obj(mesh: SurfaceMesh, path: str):
    """ASCII OBJ with positions and unit normals (``%.9g``) and triangulated
    faces, one ``%`` call per 8192 lines so the text in memory stays small."""
    ny, nx = mesh.zs.shape
    blocks = (
        ("v %.9g %.9g %.9g\n", mesh.positions.reshape(-1, 3)),
        ("vn %.9g %.9g %.9g\n", mesh.normals.reshape(-1, 3)),
        ("f %d//%d %d//%d %d//%d\n", np.repeat(mesh.faces + 1, 2, axis=1)),
    )
    with open(path, "w") as fh:
        fh.write(f"# entropydiff surface mesh {nx}x{ny}\n")
        for line, rows in blocks:
            for block in (rows[i : i + 8192] for i in range(0, len(rows), 8192)):
                fh.write(line * len(block) % tuple(block.reshape(-1).tolist()))


def write_sidecar(mesh: SurfaceMesh, path: str):
    """JSON sidecar with per-vertex scalars in row-major vertex order: the
    bytes of ``json.dump``, one array through the C encoder at a time."""
    with open(path, "w") as fh:
        fh.write('{"schema": 1, "nx": %d, "ny": %d' % mesh.zs.shape[::-1])
        for key in ("K", "T_norm", "That_norm"):
            fh.write(f', "{key}": ' + json.dumps(getattr(mesh, key).reshape(-1).tolist()))
        fh.write("}\n")
