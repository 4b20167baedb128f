"""Shared numerical infrastructure.

Uniform rectangular grids with scalar/metric fields, second-order finite
difference operators in conformal metrics, and one deterministic adaptive
Gauss-Legendre engine on the unit box, evaluated a level at a time, that
serves 2-D panels and 1-D complex line segments, and a nested trapezoid
rule for densities on a whole periodic strip.  :func:`by_blocks` splits
the engine's integrand calls, and the field readers' point sets, into blocks.
"""

from __future__ import annotations

import functools
import math
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
    "integrate_strip",
    "QuadratureResult",
    "by_blocks",
]


def by_blocks(stage, size: int, *arrays) -> tuple:
    """``stage(*arrays)`` on blocks of at most ``size`` points, the last axis
    of every array it takes and of every array of the tuple it returns; the
    blocks' arrays are written into whole-set arrays.  A set that fits one
    block is one call, whose tuple is returned as it is."""
    n = arrays[0].shape[-1]
    if n <= size:
        return stage(*arrays)
    for i in range(0, n, size):
        block = stage(*(a[..., i : i + size] for a in arrays))
        if not i:
            out = tuple(np.empty(b.shape[:-1] + (n,), b.dtype) for b in block)
        for whole, part in zip(out, block):
            whole[..., i : i + size] = part
    return out


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

    def every_other_node(self) -> "UniformGrid":
        """The nodes of even index on both axes: the same rectangle's grid at twice the spacing."""
        xs, ys = self.xs[::2], self.ys[::2]
        return UniformGrid(RectDomain(xs[0], xs[-1], ys[0], ys[-1]), len(xs), len(ys))

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
    diagnostics: dict | None = None

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
    at most ``tol`` times its volume, or within rounding (8 eps max
    sum|children|).  Acceptance is local, so the panel tree does not depend
    on the order panels are evaluated in; the budget is checked before a
    level is evaluated, and a ``tol`` not above the rounding floor
    8 eps max|first estimate| is refused after the first level.  A
    non-finite value of ``g`` raises NoConvergence at once.  A panel's rule
    is a product by the weights and a sum over its nodes, not a BLAS
    product, whose rounding may depend on the panel's place in its call and
    on the BLAS build.  Accepted values are summed level by level in panel
    order.  Returns (value, error, panels).
    """
    nodes, weights = _rule(d)
    offsets = (np.arange(2**d)[:, None] >> np.arange(d)) & 1  # children, axis 0 fastest
    per_call = _CALL_POINTS // len(weights)

    def values(corners, h):
        def stage(c):  # the centres (d, panels) of one call's panels
            v = g((c[:, :, None] + 0.5 * h * nodes[:, None, :]).reshape(d, -1))
            finite = np.isfinite(v)
            if not finite.all():  # a panel with such a value is never accepted, so refining it spends the budget
                raise NoConvergence(f"{what}: the integrand is not finite at {np.count_nonzero(~finite)} of {v.size} nodes")
            return ((0.5 * h) ** d * (v.reshape(v.shape[:-1] + (c.shape[1], -1)) * weights).sum(axis=-1),)

        return by_blocks(stage, per_call, (corners + 0.5 * h).T)[0]

    corners, h, panels = np.zeros((1, d)), 1.0, 0
    parent, accepted, errors = None, [], []
    while len(corners):
        if panels + len(corners) > max_panels:
            raise NoConvergence(f"{what} exceeded {max_panels} panels")
        panels += len(corners)
        if parent is None:
            parent = values(corners, h)
            floor = 8.0 * np.finfo(float).eps * np.abs(parent).max()
            if not tol > floor:
                raise NoConvergence(f"{what}: tol = {tol:g} is not above the rounding floor {floor:.3g} of the integral")
        h *= 0.5
        corners = (corners[:, None, :] + h * offsets).reshape(-1, d)
        kids = values(corners, h)
        siblings = kids.reshape(kids.shape[:-1] + (-1, 2**d))
        refined = siblings.sum(axis=-1)
        err = np.abs(refined - parent).reshape(-1, refined.shape[-1]).max(axis=0)
        rounding = 8.0 * np.finfo(float).eps * np.abs(siblings).sum(axis=-1).reshape(-1, refined.shape[-1]).max(axis=0)
        done = (err <= tol * (2 * h) ** d) | (err <= rounding)
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


STRIP_X_CAP = 30.0  # |x| of the outermost rows; C_t's fields lose digits beyond it
STRIP_START = (16, 48)  # s-steps per half-range and y-nodes of the first grid
STRIP_MAX_NODES = 1 << 17  # density evaluations before NoConvergence; ~0.15 s of SurfaceFields (2-core Xeon)


def integrate_strip(density, y0: float, period: float, tol: float = 1e-8) -> QuadratureResult:
    """Integral of a y-periodic density over the strip y0 <= y < y0 + period,
    by one nested trapezoid rule whose nodes reach |x| = STRIP_X_CAP.

    Made for densities analytic on the strip that decay like e^-|x|, for
    which the rule converges exponentially (Trefethen & Weideman 2014): in y
    the periodic trapezoid rule over one period, in x the trapezoid rule in s
    with x = sinh((pi/2) sinh s), |s| <= s_max (Takahasi & Mori 1974).  The
    error is the sum of three terms.  The even-index subgrids give |I - I_2h|
    in s and |I - I_2hy| in y.  The truncation bound is the contribution of
    the two outermost s-rows times r/(1 - r), where r is the largest ratio of
    an outermost to its inner neighbour's value: the geometric bound on the
    terms past s_max, which decay faster than geometrically.  While the sum
    exceeds ``tol``, the step of each direction whose estimate fails is
    halved, and only the new rows or columns are evaluated.  Halving h only
    raises the truncation bound, so a bound over ``tol`` raises
    NoConvergence at once; so do a non-finite density value and a
    refinement past STRIP_MAX_NODES nodes.  ``density`` takes each batch of
    new nodes in one call, and blocks them itself if it must.  ``diagnostics``
    holds the nodes evaluated, the halvings in x and y, and the truncation bound.
    """
    s_max = math.asinh(math.asinh(STRIP_X_CAP) / (0.5 * math.pi))
    n, ny = STRIP_START
    nodes = 0

    def g(s, y):
        nonlocal nodes
        if nodes + s.size * y.size > STRIP_MAX_NODES:
            raise NoConvergence(f"strip quadrature exceeded {STRIP_MAX_NODES} nodes")
        nodes += s.size * y.size
        u = 0.5 * math.pi * np.sinh(s)
        zs = (np.sinh(u)[None, :] + 1j * y[:, None]).reshape(-1)
        v = np.asarray(density(zs), dtype=np.float64)
        if not np.isfinite(v).all():
            bad = zs[~np.isfinite(v)][0]
            raise NoConvergence(f"strip quadrature: density not finite at z = {bad.real:.17g}{bad.imag:+.17g}j")
        return v.reshape(y.size, s.size) * (0.5 * math.pi * np.cosh(s) * np.cosh(u))

    s = s_max * np.arange(-n, n + 1) / n
    ys = y0 + period * np.arange(ny) / ny
    v = g(s, ys)
    x_halvings = y_halvings = 0
    while True:
        w = (s_max / n) * (period / ny)
        value = w * v.sum()
        ex = abs(value - 2.0 * w * v[:, ::2].sum())
        ey = abs(value - 2.0 * w * v[::2].sum())
        ends, inner = np.abs(v[:, [0, -1]]), np.abs(v[:, [1, -2]])
        with np.errstate(divide="ignore", invalid="ignore"):
            r = float(np.max(np.where(ends > 0, ends / inner, 0.0)))
        tail = float(w * ends.sum() * r / (1.0 - r)) if r < 1.0 else math.inf
        if tail > tol:
            raise NoConvergence(
                f"strip quadrature: the terms past |x| = {STRIP_X_CAP:g} may reach {tail:.3g}, over tol = {tol:g}"
            )
        if ex + ey + tail <= tol:
            break
        # each failing direction is refined, and at least one fails, even for a NaN tol
        if not ex <= 0.5 * (tol - tail):
            mid = s_max * np.arange(1 - 2 * n, 2 * n, 2) / (2 * n)
            s, v, n = _interleave(s, mid), _interleave(v, g(mid, ys)), 2 * n
            x_halvings += 1
        if not ey <= 0.5 * (tol - tail):
            mid = y0 + period * np.arange(1, 2 * ny, 2) / (2 * ny)
            ys, v, ny = _interleave(ys, mid), _interleave(v.T, g(s, mid).T).T, 2 * ny
            y_halvings += 1
    diagnostics = {"nodes": nodes, "x_halvings": x_halvings, "y_halvings": y_halvings, "truncation_bound": tail}
    return QuadratureResult(float(value), float(ex + ey + tail), 0, diagnostics)


def _interleave(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``old`` at the even and ``new`` at the odd positions of the last axis."""
    out = np.empty(old.shape[:-1] + (old.shape[-1] + new.shape[-1],))
    out[..., ::2], out[..., 1::2] = old, new
    return out
