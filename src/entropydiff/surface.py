"""The Weierstrass representation made concrete.

Immersion points by adaptive line quadrature of the three Weierstrass
1-forms, period vectors over closed cycles, and full mesh sampling with
Gauss-map normals, curvature and entropy-form norms per vertex.  Meshes
export to ASCII OBJ (v/vn/f, ``%.9g``) with a compact JSON vertex sidecar,
whose numbers the text module ``_text`` writes a block at a time; it is
imported on first use.

A mesh takes one :func:`~entropydiff.weierstrass.fields_of` pass.  Its
jets of h/G, hG and h give the integrand f and f', f'' at every node, and
each grid edge d = z_b - z_a is integrated by the two-point Hermite rules

    I3 = d (f_a + f_b)/2 + d^2 (f'_a - f'_b)/12                    (cubic)
    I5 = I3 + d^2 (f'_a - f'_b)/60 + d^3 (f''_a + f''_b)/120       (quintic)

taking I5 with max |I5 - I3| over the three components as its error
estimate, the adaptive engine's own convention (the finer value, judged by
its distance from the coarser).  An edge whose estimate is not within
``SEGMENT_TOL`` per edge, or that touches a non-finite jet, is integrated
by the adaptive engine to the same tolerance, one row of such edges per
lockstep call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PoleOnPath
from .geomnum import RectDomain, UniformGrid, integrate_segment
from .hill import spinor_metric
from .jets import AnalyticExpr, eval_jet, jet_div, jet_mul
from .weierstrass import WeierstrassData, fields_of, norms_from, weierstrass_forms

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
    """The three 1-form coefficients of
    :func:`~entropydiff.weierstrass.weierstrass_forms`.

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
            return weierstrass_forms(jet_div(jh, jG).value, jet_mul(jh, jG).value, jh.value)

    return f


@dataclass
class ImmersionPoint:
    z: complex
    x: np.ndarray  # ambient 3-vector


def _integrate_polyline(f, path, tol: float):
    """The integral of f along ``path``: one 33-point probe of every segment, then one
    lockstep quadrature of them all, each to ``tol``; a non-finite one raises PoleOnPath."""
    za, zb = (np.array(ends, dtype=np.complex128) for ends in (path[:-1], path[1:]))
    if not za.size:
        return np.zeros(3, dtype=np.complex128)
    ok = np.isfinite(f(za[:, None] + (zb - za)[:, None] * np.linspace(0.0, 1.0, 33))).all(axis=(0, 2))
    if ok.all():
        values = _edge_integrals(f, za, zb, tol)
        ok = np.isfinite(values).all(axis=0)
    if not ok.all():
        k = int(np.argmin(ok))
        raise PoleOnPath(f"Weierstrass integrand singular on segment {za[k]} -> {zb[k]}")
    return values.sum(axis=1)


def immersion_point(data: WeierstrassData, p0: complex, p: complex, path=None) -> ImmersionPoint:
    """x(p) - x(p0) = Re of the path integral of the Weierstrass forms."""
    if path is None:
        path = [p0, p]
    else:
        path = [complex(q) for q in path]
        if abs(path[0] - p0) > 1e-12 or abs(path[-1] - p) > 1e-12:
            raise ValueError("path must run from p0 to p")
    total = _integrate_polyline(weierstrass_integrand(data), path, SEGMENT_TOL)
    return ImmersionPoint(z=complex(p), x=np.real(total))


def period_vector(data: WeierstrassData, cycle) -> np.ndarray:
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
    total = _integrate_polyline(weierstrass_integrand(data), cycle, SEGMENT_TOL)
    return np.real(total)


def inverse_stereographic(G):
    """Unit normal from the Gauss-map value: (2 Re G, 2 Im G, |G|^2 - 1)/(|G|^2 + 1).

    One formula in w = G where |G| <= 1, else w = 1/G with the sign s = -1
    on the y and z components, so the north pole comes out exact;
    non-finite G (where 1/G is not finite) maps to (0, 0, 1).
    """
    G = np.asarray(G, dtype=np.complex128)
    big = ~(np.abs(G) <= 1.0)
    s = np.where(big, -1.0, 1.0)
    with np.errstate(all="ignore"):
        w = np.where(big, 1.0 / G, G)
        w = np.where(np.isfinite(w), w, 0.0)
        w2 = np.abs(w) ** 2
        d = w2 + 1.0
        # s w2 - s, not s (w2 - 1): for w2 = 1 both branches give +0
        return np.stack([2 * np.real(w) / d, s * 2 * np.imag(w) / d, (s * w2 - s) / d], axis=-1)


@dataclass
class SurfaceMesh:
    """Sampled immersion on a parameter grid (arrays indexed [iy, ix])."""

    grid: UniformGrid
    zs: np.ndarray          # sample points: the grid's nodes
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


def _edges(f, za, zb, ja, jb, tol: float) -> np.ndarray:
    """Integrals (3, n) of f along the edges za[k] -> zb[k] from the Taylor
    coefficients ja, jb (component, order, edge) of f at their ends: I5
    where max |I5 - I3| (see the module docstring) is at most ``tol``, and
    one lockstep adaptive call for the rest, non-finite jets included."""
    d = zb - za
    slope = d * (ja[:, 1] - jb[:, 1])
    step = d * (slope + d * d * (ja[:, 2] + jb[:, 2])) / 60.0  # f'' = 2 coeffs[2]
    out = d * (0.5 * (ja[:, 0] + jb[:, 0]) + slope / 12.0) + step
    fail = ~(np.abs(step).max(axis=0) <= tol)
    if fail.any():
        out[:, fail] = _edge_integrals(f, za[fail], zb[fail], tol)
    return out


def sample_mesh(data: WeierstrassData, resolution, domain: RectDomain | None = None) -> SurfaceMesh:
    """Sample the immersion on an nx-by-ny grid.

    Positions come from cumulative path integration: along x on the bottom
    row, then along y up each column (path independence makes the order
    immaterial).  Each grid edge takes the two-point quintic Hermite rule
    on the integrand's jets from the one fields pass, with its distance
    from the cubic rule as its error estimate; an edge whose estimate is
    not within ``SEGMENT_TOL``, or that touches a non-finite jet, is
    integrated adaptively to the same tolerance.  So every edge integral is
    within ``SEGMENT_TOL`` by its estimate, and a position sums at most
    nx + ny - 2 of them.  A node where the jets are not finite, such as a Gauss-map pole,
    is a node like any other: the fields pass recovers its fields, and its
    edges go to the adaptive engine, whose nodes never touch it.  A node
    where the recovered h/G or hG is still not finite is a pole of the
    data and raises PoleOnPath.
    """
    nx, ny = resolution
    grid = (domain or data.domain).grid(nx, ny)
    zs = grid.zs
    G, h_over_G, hG, K, T, That, forms = fields_of(data, zs, lambda f: (
        f.G, f.h_over_G, f.hG, f.metric["K"], *f.norms, weierstrass_forms(*(j.coeffs for j in f.form_jets))))
    pole = ~(np.isfinite(h_over_G) & np.isfinite(hG))
    if pole.any():
        raise PoleOnPath(f"the Weierstrass data has a pole at the mesh node z = {zs[pole][0]}")

    f = weierstrass_integrand(data)
    positions = np.empty((ny, nx, 3), dtype=np.float64)
    positions[0, 0] = 0.0
    # bottom row, left to right, then all columns bottom to top
    below = forms[:, :, 0]
    row = np.cumsum(_edges(f, zs[0, :-1], zs[0, 1:], below[..., :-1], below[..., 1:], SEGMENT_TOL), axis=1)
    positions[0, 1:] = np.real(row).T
    col_acc = positions[0].astype(np.complex128).T  # (3, nx)
    for j in range(1, ny):
        above = forms[:, :, j]
        col_acc = col_acc + _edges(f, zs[j - 1], zs[j], below, above, SEGMENT_TOL)
        positions[j] = np.real(col_acc).T
        below = above

    return SurfaceMesh(
        grid=grid,
        zs=zs,
        positions=positions,
        normals=inverse_stereographic(G),
        K=K,
        T_norm=T,
        That_norm=That,
        faces=grid_faces(ny, nx),
    )


def spinor_mesh(grid: UniformGrid, fields: dict, rho: AnalyticExpr) -> SurfaceMesh:
    """The mesh of a surface rebuilt from a Hill pair (w1, w2) for ``rho``:
    ``fields`` as ``hill.solve_on_grid(..., with_positions=True)`` returns
    them on ``grid``.  K and the metric are those of
    :func:`~entropydiff.hill.spinor_metric`, which also refuses a metric
    factor that is not a positive finite float (DegeneratePoint) and flags
    the Gauss-map poles of G = w2/w1; |T| and |T-hat| are
    :func:`~entropydiff.weierstrass.norms_from` with q = 1."""
    w1, w2 = fields["w1"], fields["w2"]
    metric, pole = spinor_metric(w1, w2, grid.zs)
    rho_values = eval_jet(rho, grid.zs, 0).value
    T, That = norms_from(metric["lambda_sq"], rho_values, rho_values)  # q = 1, so q^2 rho = rho
    with np.errstate(all="ignore"):
        G = np.where(pole, np.inf, w2 / np.where(pole, 1.0, w1))
    positions = np.stack([fields["x1"], fields["x2"], fields["x3"]], axis=-1)
    return SurfaceMesh(grid, grid.zs, positions, inverse_stereographic(G), metric["K"], T, That, grid_faces(*grid.shape))


def _columns(rows: list, k: int) -> list:
    """The rows of each of k equal runs of the elements that ``rows`` write."""
    n = len(rows[0]) // k
    return [[row[c * n : (c + 1) * n] for row in rows] for c in range(k)]


def write_obj(mesh: SurfaceMesh, path: str):
    """ASCII OBJ: positions and unit normals, ``%.9g``, then triangulated
    faces, 1-based, vertex//normal.  The text module ``_text`` writes every
    number, each line's ``v``, spaces, ``//`` and line break with it, one
    call per ``_text.BLOCK // 3`` lines so memory stays small; Python's
    ``format`` writes the few floats it cannot vouch for (module docstring
    of ``_text``)."""
    from . import _text  # on first use, as cli imports it

    ny, nx = mesh.zs.shape
    lines = _text.BLOCK // 3
    with open(path, "w") as fh:
        fh.write(f"# entropydiff surface mesh {nx}x{ny}\n")
        for tag, values in ((b"v ", mesh.positions), (b"vn ", mesh.normals)):
            values = values.reshape(-1, 3)
            for i in range(0, len(values), lines):
                block = values[i : i + lines]
                x, y, z = _columns(_text.float_rows(block.T.reshape(-1), _text.G9), 3)
                fh.write(_text.text([tag, x, b" ", y, b" ", z, b"\n"], len(block)))
        for i in range(0, len(mesh.faces), lines):
            block = mesh.faces[i : i + lines]
            a, b, c = _columns(_text.index_rows(block.T.reshape(-1) + 1), 3)
            fh.write(_text.text([b"f ", a, b"//", a, b" ", b, b"//", b, b" ", c, b"//", c, b"\n"], len(block)))


def write_sidecar(mesh: SurfaceMesh, path: str):
    """JSON sidecar with per-vertex scalars in row-major vertex order: the
    bytes of ``json.dump``, whose floats are their ``repr`` and ``NaN``,
    ``Infinity`` or ``-Infinity``.  The text module ``_text`` writes them,
    one call per ``_text.BLOCK`` values, and ``json.dumps`` the few it
    cannot vouch for."""
    from . import _text

    with open(path, "w") as fh:
        fh.write('{"schema": 1, "nx": %d, "ny": %d' % mesh.zs.shape[::-1])
        for key in ("K", "T_norm", "That_norm"):
            values = getattr(mesh, key).reshape(-1)
            fh.write(f', "{key}": [')
            for i in range(0, values.size, _text.BLOCK):
                block = values[i : i + _text.BLOCK]
                piece = _text.text([b", ", _text.float_rows(block, _text.JSON)], block.size)
                fh.write(piece[2:] if i == 0 else piece)
            fh.write("]")
        fh.write("}\n")
