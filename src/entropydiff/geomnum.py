"""Shared numerical infrastructure.

Uniform rectangular grids with scalar/metric fields, second-order finite
difference operators in conformal metrics, and one deterministic adaptive
Gauss-Legendre engine on the unit box, evaluated a level at a time, that
serves 2-D panels and 1-D complex line segments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, GridTooCoarse, NoConvergence

__all__ = [
    "RectDomain",
    "UniformGrid",
    "ScalarField",
    "ConformalMetricField",
    "laplacian_conformal",
    "tracefree_hessian_conformal",
    "interior_mask",
    "interior_stats",
    "integrate2d",
    "integrate_segment",
    "QuadratureResult",
]


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned rectangle in the z = x + iy plane."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("domain must have positive extent")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def contains(self, z, margin: float = 0.0):
        x, y = np.real(z), np.imag(z)
        return (
            (x >= self.x0 - margin)
            & (x <= self.x1 + margin)
            & (y >= self.y0 - margin)
            & (y <= self.y1 + margin)
        )

    def grid(self, nx: int, ny: int) -> "UniformGrid":
        return UniformGrid(self, nx, ny)

    @staticmethod
    def square(half_width: float, center: complex = 0j) -> "RectDomain":
        cx, cy = center.real, center.imag
        return RectDomain(cx - half_width, cx + half_width, cy - half_width, cy + half_width)


class UniformGrid:
    """nx-by-ny node grid over a RectDomain; arrays are indexed [iy, ix]."""

    def __init__(self, domain: RectDomain, nx: int, ny: int):
        if nx < 2 or ny < 2:
            raise GridTooCoarse("grid needs at least 2 nodes per axis")
        self.domain = domain
        self.nx = int(nx)
        self.ny = int(ny)
        self.xs = np.linspace(domain.x0, domain.x1, self.nx)
        self.ys = np.linspace(domain.y0, domain.y1, self.ny)
        self.hx = self.xs[1] - self.xs[0]
        self.hy = self.ys[1] - self.ys[0]
        self.zs = self.xs[None, :] + 1j * self.ys[:, None]

    @property
    def shape(self):
        return (self.ny, self.nx)

    def same_as(self, other: "UniformGrid") -> bool:
        return (
            self.shape == other.shape
            and self.domain == other.domain
        )

    def __repr__(self):
        d = self.domain
        return f"UniformGrid([{d.x0},{d.x1}]x[{d.y0},{d.y1}], {self.nx}x{self.ny})"


@dataclass
class ScalarField:
    """Real samples on a uniform grid (NaN marks invalid nodes)."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        if self.grid.nx < 5 or self.grid.ny < 5:
            raise GridTooCoarse("scalar fields need at least 5 nodes per axis")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise GridMismatch(f"values shape {self.values.shape} != grid shape {self.grid.shape}")


@dataclass
class ConformalMetricField:
    """Conformal factor lambda^2 > 0 per node: g = lambda^2 (dx^2 + dy^2)."""

    grid: UniformGrid
    lambda_sq: np.ndarray

    def __post_init__(self):
        if self.grid.nx < 5 or self.grid.ny < 5:
            raise GridTooCoarse("metric fields need at least 5 nodes per axis")
        self.lambda_sq = np.asarray(self.lambda_sq, dtype=np.float64)
        if self.lambda_sq.shape != self.grid.shape:
            raise GridMismatch("lambda_sq shape does not match grid")
        if not np.all(self.lambda_sq[np.isfinite(self.lambda_sq)] > 0):
            raise ValueError("conformal factor must be positive")


def _check_same_grid(f: ScalarField, m: ConformalMetricField):
    if not f.grid.same_as(m.grid):
        raise GridMismatch("field and metric live on different grids")


def _central_xy(values: np.ndarray, hx: float, hy: float):
    """First derivatives by central differences; NaN on the boundary ring."""
    fx = np.full_like(values, np.nan)
    fy = np.full_like(values, np.nan)
    fx[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2 * hx)
    fy[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2 * hy)
    return fx, fy


def _second_xy(values: np.ndarray, hx: float, hy: float):
    fxx = np.full_like(values, np.nan)
    fyy = np.full_like(values, np.nan)
    fxy = np.full_like(values, np.nan)
    fxx[:, 1:-1] = (values[:, 2:] - 2 * values[:, 1:-1] + values[:, :-2]) / hx**2
    fyy[1:-1, :] = (values[2:, :] - 2 * values[1:-1, :] + values[:-2, :]) / hy**2
    fxy[1:-1, 1:-1] = (
        values[2:, 2:] - values[2:, :-2] - values[:-2, 2:] + values[:-2, :-2]
    ) / (4 * hx * hy)
    return fxx, fyy, fxy


def laplacian_conformal(f: ScalarField, m: ConformalMetricField) -> ScalarField:
    """Laplace-Beltrami of f in the metric lambda^2(dx^2+dy^2).

    Conformal covariance reduces it to the flat 5-point stencil divided by
    the conformal factor; the boundary ring is marked invalid (NaN).
    """
    _check_same_grid(f, m)
    fxx, fyy, _ = _second_xy(f.values, f.grid.hx, f.grid.hy)
    return ScalarField(f.grid, (fxx + fyy) / m.lambda_sq)


def tracefree_hessian_conformal(f: ScalarField, m: ConformalMetricField):
    """Trace-free Hessian of f in the conformal metric, flat components.

    Returns (a, b) with the tensor [[a, b], [b, -a]]: the flat trace-free
    Hessian minus the first-order conformal correction with
    omega = log(lambda^2)/2.  Interior nodes only (NaN ring).
    """
    _check_same_grid(f, m)
    hx, hy = f.grid.hx, f.grid.hy
    fxx, fyy, fxy = _second_xy(f.values, hx, hy)
    fx, fy = _central_xy(f.values, hx, hy)
    omega = 0.5 * np.log(m.lambda_sq)
    wx, wy = _central_xy(omega, hx, hy)
    a = 0.5 * (fxx - fyy) - (fx * wx - fy * wy)
    b = fxy - (fx * wy + fy * wx)
    return ScalarField(f.grid, a), ScalarField(f.grid, b)


def interior_mask(grid: UniformGrid) -> np.ndarray:
    """Boolean mask excluding a boundary ring of width 2, so one-sided
    effects never pollute residual statistics."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[2:-2, 2:-2] = True
    return mask


def interior_stats(values: np.ndarray, grid: UniformGrid):
    """(max, mean) of |values| over valid interior nodes."""
    mask = interior_mask(grid) & np.isfinite(values)
    if not mask.any():
        raise GridTooCoarse("no valid interior nodes for statistics")
    v = np.abs(values[mask])
    return float(v.max()), float(v.mean())


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass
class QuadratureResult:
    value: float | complex | np.ndarray
    error: float
    panels: int = field(default=0)

    def __float__(self):
        return float(np.real(self.value))


_GL_POINTS = {1: 15, 2: 12}  # per axis; 12 is even, so 2-D nodes never hit panel centres or edges
_CALL_POINTS = 1152  # most points per integrand call: 8 panels of the 2-D rule


@functools.cache
def _rule(d: int):
    """Tensor Gauss-Legendre nodes (d, P) and weights (P,) on [-1, 1]^d, axis 0 fastest."""
    n = _GL_POINTS[d]
    x, w = np.polynomial.legendre.leggauss(n)
    if d == 1:
        return x[None, :], w
    return np.stack([np.tile(x, n), np.repeat(x, n)]), np.outer(w, w).reshape(-1)


def _adaptive(g, d: int, tol: float, max_panels: int, what: str):
    """Adaptive Gauss-Legendre integral of g over the unit box [0, 1]^d.

    ``g`` maps points (d, N) to values (..., N).  Every panel is bisected
    along every axis, and the children of all open panels of a level are
    evaluated together, at most ``_CALL_POINTS`` points per call of ``g``.
    A panel is accepted when max |children - parent| over the components is
    at most ``tol`` times its volume.  Acceptance is local, so the panel tree
    does not depend on the order panels are evaluated in; the budget is
    checked before a level is evaluated.  Accepted values are summed level
    by level in panel order.  Returns (value, error, panels).
    """
    nodes, weights = _rule(d)
    offsets = (np.arange(2**d)[:, None] >> np.arange(d)) & 1  # children, axis 0 fastest
    per_call = _CALL_POINTS // len(weights)

    def values(corners, h):
        out = []
        for i in range(0, len(corners), per_call):
            c = corners[i : i + per_call] + 0.5 * h
            v = g((c.T[:, :, None] + 0.5 * h * nodes[:, None, :]).reshape(d, -1))
            out.append((0.5 * h) ** d * (v.reshape(v.shape[:-1] + (len(c), -1)) @ weights))
        return np.concatenate(out, axis=-1)

    corners, h, panels = np.zeros((1, d)), 1.0, 0
    parent, accepted, errors = None, [], []
    while len(corners):
        if panels + len(corners) > max_panels:
            raise NoConvergence(f"{what} exceeded {max_panels} panels")
        panels += len(corners)
        if parent is None:
            parent = values(corners, h)
        h *= 0.5
        corners = (corners[:, None, :] + h * offsets).reshape(-1, d)
        kids = values(corners, h)
        refined = kids.reshape(kids.shape[:-1] + (-1, 2**d)).sum(axis=-1)
        err = np.abs(refined - parent).reshape(-1, refined.shape[-1]).max(axis=0)
        done = err <= tol * (2 * h) ** d
        accepted.append(refined[..., done])
        errors.append(err[done])
        open_ = np.repeat(~done, 2**d)
        corners, parent = corners[open_], kids[..., open_]
    return np.concatenate(accepted, axis=-1).sum(axis=-1), float(np.concatenate(errors).sum()), panels


def integrate2d(density, domain: RectDomain, tol: float = 1e-8, max_panels: int = 40000) -> QuadratureResult:
    """Adaptive tensor-product Gauss-Legendre integration over a rectangle.

    ``density`` maps a complex ndarray of sample points to real values.
    Panels are bisected (into 4) until the local error estimate -- parent
    rule vs sum of children -- falls under the area-proportional share of
    ``tol``.  Panel processing order is fixed, so results are reproducible
    bit for bit.
    """

    def g(u):
        d = domain
        zs = (d.x0 + (d.x1 - d.x0) * u[0]) + 1j * (d.y0 + (d.y1 - d.y0) * u[1])
        return d.area * np.asarray(density(zs), dtype=np.float64)

    value, error, panels = _adaptive(g, 2, tol, max_panels, "2-D quadrature")
    return QuadratureResult(float(value), error, panels)


def integrate_segment(f, a: complex, b: complex, tol: float = 1e-10, max_panels: int = 4000) -> QuadratureResult:
    """Adaptive contour integral of f along the straight segment a -> b.

    ``f`` maps a complex ndarray (sample points, last axis) to values with
    any leading shape; components integrate simultaneously.  Panels are
    bisected until |whole - sum of halves| (max over components) meets the
    length-proportional share of ``tol``.
    """
    if b == a:
        probe = np.asarray(f(np.array([a])))
        return QuadratureResult(np.zeros(probe.shape[:-1], dtype=probe.dtype), 0.0, 0)

    def g(u):
        return (b - a) * np.asarray(f(a + (b - a) * u[0]))

    return QuadratureResult(*_adaptive(g, 1, tol, max_panels, "line quadrature"))
