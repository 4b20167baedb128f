"""First-order geometry of a minimal surface from its Weierstrass data.

The data is a pair of closed-form functions (G, h) on a rectangle: G is the
stereographic image of the Gauss map, h the coefficient of the height
differential h dz.  Everything here is algebraic in one jet of G (order 3)
and one jet of h (order 2):

    metric      lambda^2 = (|h|^2/4)(|G| + |G|^-1)^2
    curvature   K        = -16 |G G'/h|^2 / (1+|G|^2)^4
    Hopf        q        = -h G'/G              (Q = q dz^2)
    entropy     rho                              (P = rho/2 dz^2)

with rho the eight-term rational combination of G', G'', G''', h', h''.
:class:`SurfaceFields` takes both jets once per point set; rho and the
norms |T|, |T-hat| are derived only when read.

Removable singularities of the displayed quotients (e.g. G and h vanishing
together) are absorbed by jet cancellation, but the eight terms of rho
still cancel near them.  One mask flags the nodes where q, h/G or hG is
non-finite or those terms cancel, and one jet pass over small circles
around them recovers the fields there by the mean-value property; every
other node keeps its direct value.  Umbilics (q = 0) keep their direct
rho, a double pole (|T| = inf), while |T-hat| comes from the circle mean
of the holomorphic product q^2 rho.

Field functions (suffix ``_fields``/``_field``) evaluate whole grids of
points at once and mark failures with NaN; the sample functions evaluate
one point as a one-point array, so they return what the field views give
there, and raise where those are NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CriticalPoint, DegeneratePoint, PoleAtPoint, UmbilicPoint
from .geomnum import RectDomain
from .jets import AnalyticExpr, Jet, const, eval_jet, jet_div, jet_mul

__all__ = [
    "WeierstrassData",
    "MetricSample",
    "QuadDiffSample",
    "SurfaceFields",
    "metric_fields",
    "metric_sample",
    "hopf_field",
    "hopf_coefficient",
    "entropy_field",
    "entropy_coefficient",
    "rho_from_derivatives",
    "rho_from_jets",
    "quad_diff_sample",
    "schwarzian",
    "norm_fields",
    "entropy_form_norms",
]

# |T|_g = _T_NORM_FACTOR * |rho| / lambda^2, derived by contracting
# T = Re((rho/2) dz^2) in the metric lambda^2(dx^2+dy^2) and validated
# against the catenoid values sqrt(2)/(2 cosh^2 x).  The constant lives
# only here (and is cross-checked against componentwise contraction in
# the tests).
_T_NORM_FACTOR = 1.0 / math.sqrt(2.0)

# Relative threshold for "the Hopf coefficient vanishes" (umbilic point).
_UMBILIC_RTOL = 1e-9

# rho is recovered where its largest term exceeds _CANCEL_RATIO times
# max(|rho|, |K| lambda^2); the second keeps rho = 0 (Enneper) from flagging
# every node.  On C_t at 256^2 (80 benchmark parameters) the kept nodes hold
# rho = q to 4e-9 and the flagged ones lie within 0.0083 of the removable
# zero of (G, h), well inside their circles of radius _CIRCLE_RADIUS.
_CANCEL_RATIO = 1e5
_CIRCLE_RADIUS = 2e-2
_CIRCLE_POINTS = 16
_THETA = 2.0 * np.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS
# mean(f e^{ik theta}) for k = 1 .. n/2 - 1: the modes e^{-ik theta} of f
_NEGATIVE_MODES = np.exp(1j * np.outer(_THETA, np.arange(1, _CIRCLE_POINTS // 2))) / _CIRCLE_POINTS
_ALIAS_RTOL = 1e-3
_ROUNDING_RTOL = 1e-12


@dataclass
class WeierstrassData:
    """Weierstrass pair (G, h) on a rectangular coordinate patch.

    ``periodic_y`` marks data invariant under z -> z + i*period (quotient
    cylinders such as the catenoid's C/<2 pi i>).
    """

    G: AnalyticExpr
    h: AnalyticExpr
    domain: RectDomain
    periodic_y: float | None = None
    label: str = ""

    def contains(self, z) -> bool:
        x, y = np.real(z), np.imag(z)
        if self.periodic_y is not None:
            y = self.domain.y0 + np.mod(y - self.domain.y0, self.periodic_y)
        return bool(np.all(self.domain.contains(x + 1j * y, margin=1e-12)))

    def rescaled(self, factor: complex) -> "WeierstrassData":
        """Same surface data with h -> factor*h (homothety for real factor)."""
        return WeierstrassData(self.G, const(factor) * self.h, self.domain, self.periodic_y,
                               label=f"{self.label}*{factor}" if self.label else "")

    def reflected(self) -> "WeierstrassData":
        """Mirror data (G, h) -> (G*, h*) with e*(z) = conj(e(conj z)).

        Sampling the reflection at conj(z) reproduces all pointwise norms
        at z (orientation/reflection law).
        """
        dom = self.domain
        return WeierstrassData(
            self.G.conjugated(), self.h.conjugated(),
            RectDomain(dom.x0, dom.x1, -dom.y1, -dom.y0),
            self.periodic_y,
            label=f"{self.label}-reflected" if self.label else "",
        )


@dataclass
class MetricSample:
    """Metric data at one point; A_norm_sq = -2K is the Gauss equation for
    minimal immersions and holds by construction."""

    z: complex
    lambda_sq: float
    K: float
    u: float
    A_norm_sq: float


@dataclass
class QuadDiffSample:
    """Hopf and entropy coefficients at one point (Q = q dz^2, P = (rho/2) dz^2)."""

    z: complex
    q: complex
    rho: complex


def rho_from_derivatives(G, G1, G2, G3, h, h1, h2):
    """The eight-term entropy coefficient from pointwise derivatives.

    rho = G'''/G' + G''/2G - 3G'^2/4G^2 - 7G''^2/4G'^2
          + G''h'/2G'h - G'h'/2Gh - h''/h + 5h'^2/4h^2
    """
    with np.errstate(all="ignore"):
        first, *rest = _rho_terms(G, G1, G2, G3, h, h1, h2)
        return sum(rest, first)


def _rho_terms(G, G1, G2, G3, h, h1, h2):
    return (
        G3 / G1,
        G2 / (2.0 * G),
        -3.0 * G1**2 / (4.0 * G**2),
        -7.0 * G2**2 / (4.0 * G1**2),
        G2 * h1 / (2.0 * G1 * h),
        -G1 * h1 / (2.0 * G * h),
        -h2 / h,
        5.0 * h1**2 / (4.0 * h**2),
    )


# ---------------------------------------------------------------------------
# The field bundle
# ---------------------------------------------------------------------------

def _jets(data: WeierstrassData, z):
    """The one jet pass: G to order 3 and h to order 2 (all rho needs)."""
    return eval_jet(data.G, z, 3), eval_jet(data.h, z, 2)


def _parts(jG, jh):
    """q and the jets of h/G and hG (to the order of jh), with removable
    quotients cancelled by the jets.

    All three are holomorphic wherever the data describes an immersion
    (h/G = -2 w1^2 and hG = -2 w2^2 in spinor terms).  Where G vanishes,
    h/G keeps its value but not the orders the cancellation cost.
    """
    with np.errstate(all="ignore"):
        q = -jet_div(jet_mul(jh, jG.derivative_jet()), jG).value
        return q, jet_div(jh, jG), jet_mul(jh, jG)


def _derivatives(jG, jh):
    """(G, G', G'', G''', h, h', h'') from a jet of G (order >= 3) and of h (order >= 2)."""
    c, d = jG.coeffs, jh.coeffs
    return c[0], c[1], 2.0 * c[2], 6.0 * c[3], d[0], d[1], 2.0 * d[2]


def _rho_and_scale(jG, jh):
    """rho and the largest magnitude of its eight terms, the scale of its
    rounding error."""
    with np.errstate(all="ignore"):
        terms = _rho_terms(*_derivatives(jG, jh))
        rho = np.asarray(sum(terms[1:], terms[0]), dtype=np.complex128)
        return rho, np.max([np.abs(t) for t in terms], axis=0)


def rho_from_jets(jG, jh) -> np.ndarray:
    """rho from a jet of G (order >= 3) and a jet of h (order >= 2)."""
    return np.asarray(rho_from_derivatives(*_derivatives(jG, jh)), dtype=np.complex128)


def _circle_means(data: WeierstrassData, centers: np.ndarray) -> np.ndarray:
    """Means of (q, h/G, hG, rho, q^2 rho) over a circle around each center.

    Returns shape (5, len(centers)).  The discrete mean-value property has
    aliasing error O((radius/R)^n), R the distance to the nearest
    singularity.  A mean is NaN where the circle values are not finite or
    carry a negative Fourier mode e^{-ik theta}, 0 < k < n/2, above
    _ALIAS_RTOL of their largest magnitude: a function holomorphic on the
    disk has none but aliases of order (radius/R)^(n/2+1), while a pole in
    or near the circle puts a sizeable share of the values there.  Rounding
    of rho's eight terms is allowed for, so rho = 0 (Enneper) keeps its mean.
    """
    pts = centers[:, None] + _CIRCLE_RADIUS * np.exp(1j * _THETA)
    jG, jh = _jets(data, pts)
    q, r, p = _parts(jG, jh)
    r, p = r.value, p.value
    rho, largest = _rho_and_scale(jG, jh)
    with np.errstate(all="ignore"):
        vals = np.stack([q, r, p, rho, q**2 * rho])
        mean = vals.mean(axis=-1)
        negative = np.abs(vals @ _NEGATIVE_MODES).max(axis=-1)
        bound = _ALIAS_RTOL * np.abs(vals).max(axis=-1)
        bound[3:] += _ROUNDING_RTOL * np.stack([largest, np.abs(q) ** 2 * largest]).max(axis=-1)
        ok = np.isfinite(vals).all(axis=-1) & (negative <= bound)
    return np.where(ok, mean, np.nan)


class SurfaceFields:
    """Every first-order field of (G, h) on one point set, from one jet pass.

    ``G``, ``q``, ``h_over_G`` and ``hG`` are set on construction;
    ``metric`` (the dict of :func:`metric_fields`), ``rho``, ``norms``
    (|T|, |T-hat|) and ``form_jets`` are derived on first access.
    Recovered nodes are filled in throughout, except in ``form_jets``.
    """

    def __init__(self, data: WeierstrassData, z):
        self._data = data
        self.z = np.asarray(z, dtype=np.complex128)
        self._jG, self._jh = _jets(data, self.z)
        self.G = self._jG.value
        q, self._r, self._p = _parts(self._jG, self._jh)
        self._direct = q, r, p = q, self._r.value, self._p.value
        self._singular = ~(np.isfinite(q) & np.isfinite(r) & np.isfinite(p))
        qscale = max(float(np.abs(q[~self._singular]).max(initial=0.0)), 1.0)
        self._umbilic = ~self._singular & (np.abs(q) <= _UMBILIC_RTOL * qscale)
        self.q, self.h_over_G, self.hG = (self._recover(i, v, self._singular) for i, v in enumerate((q, r, p)))

    @cached_property
    def _fallback(self):
        """(direct rho, circled nodes, their circle means): the one fallback
        pass.  Circled are the singular nodes, those where the eight terms of
        rho cancel, and the umbilics, where |T-hat| extends continuously."""
        q, r, p = self._direct
        rho, largest = _rho_and_scale(self._jG, self._jh)
        with np.errstate(all="ignore"):
            curvature = 4.0 * np.abs(q) ** 2 / (np.abs(r) + np.abs(p)) ** 2  # |K| lambda^2
            cancels = ~(largest <= _CANCEL_RATIO * np.maximum(np.abs(rho), curvature))
        circled = self._singular | cancels | self._umbilic
        return rho, circled, (_circle_means(self._data, self.z[circled]) if circled.any() else None)

    def _recover(self, part: int, direct, nodes) -> np.ndarray:
        """A copy of ``direct`` with circle mean ``part`` at the circled
        ``nodes``.  Where the circle failed, a finite direct value stays,
        else NaN."""
        out = np.array(direct, dtype=np.complex128)
        if nodes.any():
            _, circled, means = self._fallback
            nodes = nodes & circled
            mean = means[part][nodes[circled]]
            old = out[nodes]
            out[nodes] = np.where(np.isfinite(mean), mean, np.where(np.isfinite(old), old, np.nan))
        return out

    @cached_property
    def form_jets(self):
        """Jets of h/G, hG and h to order 2 at every node: the coefficients
        of the Weierstrass 1-forms and their first two derivatives, direct
        (not recovered).  Where h/G has a value but lost orders to a
        vanishing G, those nodes alone take a jet of the expression h/G."""
        r = self._r
        short = np.isfinite(r.value) & ~np.isfinite(r.coeffs).all(axis=0)
        if short.any():
            r = Jet(r.base, r.coeffs.copy())
            r.coeffs[:, short] = eval_jet(self._data.h / self._data.G, self.z[short], r.order).coeffs
        return r, self._p, self._jh

    @cached_property
    def metric(self) -> dict:
        """lambda^2, K, u, |A|^2 in the pole-stable grouping s = |h/G| + |hG|.

            lambda^2 = s^2/4,   K = -16 |q|^2 / s^4,
            u = -log 2 - log|q|/2 + log s.

        These are algebraically identical to the displayed formulas
        lambda^2 = (|h|^2/4)(|G|+|G|^-1)^2 and K = -16|GG'|^2/(|h|^2(1+|G|^2)^4)
        (with the |h|^2 denominator; see the curvature design decision) but
        stay finite across Gauss-map poles, where G blows up and h vanishes.
        """
        with np.errstate(all="ignore"):
            s = np.abs(self.h_over_G) + np.abs(self.hG)
            lambda_sq = 0.25 * s**2
            K = -16.0 * np.abs(self.q) ** 2 / s**4
            u = -np.log(2.0) - 0.5 * np.log(np.abs(self.q)) + np.log(s)
        return {
            "lambda_sq": np.real(lambda_sq),
            "K": np.real(K),
            "u": np.real(u),
            "A_norm_sq": np.real(-2.0 * K),
        }

    @cached_property
    def rho(self) -> np.ndarray:
        """Entropy coefficient; non-finite at umbilics (a double pole)."""
        rho, circled, _ = self._fallback
        return self._recover(3, rho, circled & ~self._umbilic)

    @cached_property
    def norms(self):
        """(|T|_g, |T-hat|_g); |T-hat| = |K| |T| through q^2 rho, which is
        holomorphic across umbilics, where |T| itself is infinite."""
        lam2 = self.metric["lambda_sq"]
        with np.errstate(all="ignore"):
            T = _T_NORM_FACTOR * np.abs(self.rho) / lam2
            s = self.q**2 * self.rho
            bad = ~np.isfinite(s)
            That = _T_NORM_FACTOR * np.abs(self._recover(4, s, bad)) / lam2**3
        return np.real(np.where(bad, np.inf, T)), np.real(That)


# ---------------------------------------------------------------------------
# Field views and single-point samples
# ---------------------------------------------------------------------------

def metric_fields(data: WeierstrassData, z):
    """lambda^2, K, u, |A|^2 at an array of points (NaN where singular)."""
    return SurfaceFields(data, z).metric


def hopf_field(data: WeierstrassData, z):
    """Hopf coefficient q = -h G'/G on an array of points."""
    return SurfaceFields(data, z).q


def entropy_field(data: WeierstrassData, z):
    """Entropy coefficient rho on an array of points (non-finite at umbilics)."""
    return SurfaceFields(data, z).rho


def norm_fields(data: WeierstrassData, z):
    """(|T|_g, |T-hat|_g) on an array of points."""
    return SurfaceFields(data, z).norms


def _at_point(data: WeierstrassData, z) -> SurfaceFields:
    """The fields on the one-point array [z], so that a sample is what the
    field views give at z."""
    if not data.contains(z):
        raise ValueError(f"{z} outside the data domain")
    return SurfaceFields(data, [complex(z)])


def _hopf_at(f: SurfaceFields) -> complex:
    q = complex(f.q[0])
    if not np.isfinite(q):
        raise PoleAtPoint(f"Hopf coefficient undefined at {f.z[0]}")
    return q


def _entropy_at(f: SurfaceFields) -> complex:
    if abs(_hopf_at(f)) <= _UMBILIC_RTOL:  # raises PoleAtPoint on data poles
        raise UmbilicPoint(f"umbilic point at {f.z[0]}: entropy differential has a double pole")
    rho = complex(f.rho[0])
    if not np.isfinite(rho):
        raise PoleAtPoint(f"entropy coefficient undefined at {f.z[0]}")
    return rho


def metric_sample(data: WeierstrassData, z: complex) -> MetricSample:
    """Metric, curvature, u and |A|^2 at a single point."""
    mf = _at_point(data, z).metric
    lam2, K, u = (float(mf[k][0]) for k in ("lambda_sq", "K", "u"))
    if not np.isfinite(lam2) or lam2 <= 0.0 or lam2 < 1e-280:
        raise DegeneratePoint(f"conformal factor degenerates at {z}")
    if not np.isfinite(K):
        raise PoleAtPoint(f"curvature undefined at {z}")
    return MetricSample(z=complex(z), lambda_sq=lam2, K=K, u=u, A_norm_sq=-2.0 * K)


def hopf_coefficient(data: WeierstrassData, z: complex) -> complex:
    return _hopf_at(_at_point(data, z))


def entropy_coefficient(data: WeierstrassData, z: complex) -> complex:
    """rho at a single non-umbilic point (P = (rho/2) dz^2).

    Raises UmbilicPoint where the Hopf coefficient vanishes (rho has a
    double pole there; use verify.pole_probe for those) and PoleAtPoint
    where rho is singular even after recovery (a genuine pole of the data;
    a Gauss-map pole of a regular surface is recovered).
    """
    return _entropy_at(_at_point(data, z))


def quad_diff_sample(data: WeierstrassData, z: complex) -> QuadDiffSample:
    """Hopf and entropy coefficients bundled at one non-umbilic point."""
    f = _at_point(data, z)
    return QuadDiffSample(z=complex(z), q=_hopf_at(f), rho=_entropy_at(f))


def entropy_form_norms(data: WeierstrassData, z: complex):
    """(|T|_g, |T-hat|_g) at one point; |T| is inf at umbilics where the
    continuous extension applies only to |T-hat|."""
    f = _at_point(data, z)
    lam2 = f.metric["lambda_sq"][0]
    if not np.isfinite(lam2) or lam2 <= 0:
        raise DegeneratePoint(f"metric degenerates at {z}")
    T, That = f.norms
    return float(T[0]), float(That[0])


def schwarzian(G: AnalyticExpr, z) -> complex:
    """Schwarzian derivative {G, z} = (G''/G')' - (G''/G')^2/2.

    Equals the entropy coefficient divided by 2 whenever the Hopf
    coefficient is constant.  Vectorizes over ``z``.
    """
    zz = np.asarray(z, dtype=np.complex128)
    jG = eval_jet(G, zz, 3)
    G1, G2, G3 = jG.coeffs[1], 2.0 * jG.coeffs[2], 6.0 * jG.coeffs[3]
    scale = np.max(np.abs(jG.coeffs))
    if np.any(np.abs(G1) <= 1e-14 * max(float(scale), 1.0)):
        raise CriticalPoint("G' vanishes: Schwarzian has a pole")
    with np.errstate(all="ignore"):
        ratio = G2 / G1
        out = G3 / G1 - 1.5 * ratio**2
    return complex(out) if np.isscalar(z) or isinstance(z, complex) else out
