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
norms |T|, |T-hat| are derived only when read.  Every field at a point
depends on that point alone, so blocks are the readers' business: every
reader goes through :func:`fields_of`, one bundle per block of _BLOCK points.

Removable singularities of the displayed quotients (e.g. G and h vanishing
together) are absorbed by jet cancellation, at the nodes where G's value is
small against its jet; elsewhere q, h/G and hG come from values alone.  The
eight terms of rho still cancel near those singularities.  One mask flags
the nodes where q, h/G or hG is non-finite or those terms cancel, and one
jet pass over small circles around them recovers the fields there by the
mean-value property; every other node keeps its direct value.  Umbilics
(|q| <= _UMBILIC_ATOL) keep their direct rho, a double pole (|T| = inf),
while |T-hat| comes from the circle mean of the holomorphic product q^2 rho.

Field functions (suffix ``_fields``/``_field``) evaluate whole grids of
points at once and mark failures with NaN; the sample functions evaluate
one point as a one-point array, so they return what the field views give
there, and raise where those are NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce

import numpy as np

from .errors import CriticalPoint, DegeneratePoint, PoleAtPoint, UmbilicPoint
from .geomnum import RectDomain, by_blocks
from .jets import AnalyticExpr, Jet, const, eval_jet, jet_div, jet_mul, quotient_needs_jet

__all__ = [
    "WeierstrassData",
    "MetricSample",
    "SurfaceFields",
    "fields_of",
    "metric_fields",
    "metric_sample",
    "hopf_field",
    "hopf_coefficient",
    "entropy_field",
    "entropy_coefficient",
    "rho_from_derivatives",
    "schwarzian",
    "norm_fields",
    "entropy_form_norms",
    "weierstrass_forms", "metric_from", "norms_from", "taylor_schwarzian",
]

# |T|_g = _T_NORM_FACTOR * |rho| / lambda^2, derived by contracting
# T = Re((rho/2) dz^2) in the metric lambda^2(dx^2+dy^2) and validated
# against the catenoid values sqrt(2)/(2 cosh^2 x).  The constant lives
# only in :func:`norms_from`, which every reader of the norms calls (and the
# tests cross-check it against componentwise contraction).
_T_NORM_FACTOR = 1.0 / math.sqrt(2.0)

# |q| at or below which a node is an umbilic (the Hopf coefficient vanishes).
_UMBILIC_ATOL = 1e-9

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
_BLOCK = 8192  # points a block of a pointwise stage holds; circle means take _BLOCK // _CIRCLE_POINTS circles


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


def rho_from_derivatives(G, G1, G2, G3, h, h1, h2):
    """The eight-term entropy coefficient from pointwise derivatives.

    rho = G'''/G' + G''/2G - 3G'^2/4G^2 - 7G''^2/4G'^2
          + G''h'/2G'h - G'h'/2Gh - h''/h + 5h'^2/4h^2
    """
    with np.errstate(all="ignore"):
        first, *rest = _rho_terms(G, G1, G2, G3, h, h1, h2)
        return sum(rest, first)


def taylor_schwarzian(c):
    """The Schwarzian {f, z} = 6 c3/c1 - 6 (c2/c1)^2 from the Taylor
    coefficients c (order >= 3 on the leading axis) of f."""
    with np.errstate(all="ignore"):
        return 6.0 * c[3] / c[1] - 6.0 * (c[2] / c[1]) ** 2


def weierstrass_forms(h_over_G, hG, h):
    """The coefficients ((h/G - hG)/2, i (h/G + hG)/2, h) of the three
    Weierstrass 1-forms, stacked on a new leading axis.  From a spinor pair
    they take h/G = -2 w1^2, hG = -2 w2^2 and h = -2 w1 w2."""
    return np.stack([0.5 * (h_over_G - hG), 0.5j * (h_over_G + hG), h])


def metric_from(h_over_G, hG, q) -> dict:
    """lambda^2, K, u, |A|^2 in the pole-stable grouping s = |h/G| + |hG|.

        lambda^2 = s^2/4,   K = -16 |q|^2 / s^4,
        u = log(s/2) - log|q|/2.

    These are algebraically identical to the displayed formulas
    lambda^2 = (|h|^2/4)(|G|+|G|^-1)^2 and K = -16|GG'|^2/(|h|^2(1+|G|^2)^4)
    (with the |h|^2 denominator; see the curvature design decision) but
    stay finite across Gauss-map poles, where G blows up and h vanishes.
    A spinor pair gives h/G = -2 w1^2, hG = -2 w2^2 and q = 2W = 1.
    """
    with np.errstate(all="ignore"):
        s = np.abs(h_over_G) + np.abs(hG)
        lambda_sq = 0.25 * s**2
        K = -16.0 * np.abs(q) ** 2 / s**4
        u = np.log(0.5 * s) - 0.5 * np.log(np.abs(q))
    return {"lambda_sq": lambda_sq, "K": K, "u": u, "A_norm_sq": -2.0 * K}


def norms_from(lambda_sq, rho, q2_rho):
    """(|T|_g, |T-hat|_g) = (|rho|/lambda^2, |q^2 rho|/lambda^6)/sqrt(2);
    |T-hat| = |K| |T| takes the product q^2 rho, which is holomorphic
    across umbilics, where |T| itself is infinite."""
    with np.errstate(all="ignore"):
        return _T_NORM_FACTOR * np.abs(rho) / lambda_sq, _T_NORM_FACTOR * np.abs(q2_rho) / lambda_sq**3


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
    """The one jet pass: the Taylor coefficients of G to order 3 and of h to
    order 2 (all rho needs), and the values q, h/G and hG of :func:`_values`."""
    jG, jh = eval_jet(data.G, z, 3), eval_jet(data.h, z, 2)
    return (jG.coeffs, jh.coeffs, *_values(jG, jh))


def _values(jG, jh):
    """q, h/G and hG: row 0 of :func:`_parts`, by the same floating operations.

    hG = h G takes no quotient.  q and h/G take the quotients of
    :func:`_parts` only at the nodes where those would shift the jets or
    flag a pole (:func:`~entropydiff.jets.quotient_needs_jet`, G's value
    small against its jet); everywhere else row 0 of each quotient is its
    numerator's value over G's.  jG has an order above jh's, so both
    quotients have jh's order.
    """
    G, G1, h = jG.coeffs[0], jG.coeffs[1], jh.coeffs[0]
    with np.errstate(all="ignore"):
        q, r, p = -(h * (G1 * 1.0) / G), h / G, h * G
    full = quotient_needs_jet(jG, jh.order)
    if full.any():
        q[full], r_jet, _ = _parts(Jet(jG.coeffs[:, full]), Jet(jh.coeffs[:, full]))
        r[full] = r_jet.value
    return q, r, p


def _parts(jG, jh):
    """q and the jets of h/G and hG (to the order of jh), with removable
    quotients cancelled by the jets.

    All three are holomorphic wherever the data describes an immersion
    (h/G = -2 w1^2 and hG = -2 w2^2 in spinor terms).  Where G vanishes,
    h/G keeps its value but not the orders the cancellation cost.  The
    fields take all of it only at the nodes :func:`_values` names; the
    mesh takes the jets of h/G and hG, :func:`_form_jets`, everywhere.
    """
    with np.errstate(all="ignore"):
        return -jet_div(jet_mul(jh, jG.derivative_jet()), jG).value, *map(Jet, _form_jets(jG.coeffs, jh.coeffs))


def _form_jets(c, d):
    """The Taylor coefficients of h/G and hG of :func:`_parts`, from those c
    of G and d of h."""
    with np.errstate(all="ignore"):
        return jet_div(Jet(d), Jet(c)).coeffs, jet_mul(Jet(d), Jet(c)).coeffs


def _rho_and_scale(c, d):
    """rho and the largest magnitude of its eight terms, the scale of its
    rounding error, from the Taylor coefficients c of G (order >= 3) and d
    of h (order >= 2)."""
    with np.errstate(all="ignore"):
        terms = _rho_terms(c[0], c[1], 2.0 * c[2], 6.0 * c[3], d[0], d[1], 2.0 * d[2])
        rho = np.asarray(sum(terms[1:], terms[0]), dtype=np.complex128)
        return rho, reduce(np.maximum, map(np.abs, terms))


def _circle_means(data: WeierstrassData, centers: np.ndarray) -> tuple:
    """Means of (q, h/G, hG, rho, q^2 rho) over a circle around each center.

    Returns the five means, each shaped like ``centers``.  The discrete
    mean-value property has aliasing error O((radius/R)^n), R the distance
    to the nearest singularity.  A mean is NaN where the circle values are not finite or
    carry a negative Fourier mode e^{-ik theta}, 0 < k < n/2, above
    _ALIAS_RTOL of their largest magnitude: a function holomorphic on the
    disk has none but aliases of order (radius/R)^(n/2+1), while a pole in
    or near the circle puts a sizeable share of the values there.  Rounding
    of rho's eight terms is allowed for, so rho = 0 (Enneper) keeps its mean.
    """
    pts = centers[:, None] + _CIRCLE_RADIUS * np.exp(1j * _THETA)
    c, d, q, r, p = _jets(data, pts)
    rho, largest = _rho_and_scale(c, d)
    with np.errstate(all="ignore"):
        vals = np.stack([q, r, p, rho, q**2 * rho])
        mean = vals.mean(axis=-1)
        negative = np.abs(vals @ _NEGATIVE_MODES).max(axis=-1)
        bound = _ALIAS_RTOL * np.abs(vals).max(axis=-1)
        bound[3:] += _ROUNDING_RTOL * np.stack([largest, np.abs(q) ** 2 * largest]).max(axis=-1)
        ok = np.isfinite(vals).all(axis=-1) & (negative <= bound)
    return tuple(np.where(ok, mean, np.nan))


class SurfaceFields:
    """Every first-order field of (G, h) on one point set, from one jet pass.

    ``G``, ``q``, ``h_over_G`` and ``hG`` are set on construction, from
    the values of :func:`_values`: only the nodes where G's value is small
    against its jet take the quotient jets of :func:`_parts`.  ``metric``
    (the dict of :func:`metric_fields`), ``rho``, ``norms`` (|T|, |T-hat|)
    and ``form_jets`` are derived on first access; ``form_jets`` takes the
    jets of h/G and hG at every node.  Recovered nodes are filled in
    throughout, except in ``form_jets``; a field with none to fill is the
    direct array itself.  The bundle keeps the Taylor coefficients of G and
    h as plain arrays, for ``rho`` and ``form_jets``, and no state of the
    set as a whole; :func:`fields_of` gives it one block at a time.
    A scalar z is the one-point array [z], whose fields have shape (1,):
    numpy rounds 0-d complex arithmetic apart from the same operation
    inside an array.  Fields have the shape of z.
    """

    def __init__(self, data: WeierstrassData, z):
        self._data = data
        self.z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        self._cG, self._ch, q, r, p = _jets(data, self.z)
        self._direct, self.G = (q, r, p), self._cG[0]
        self._singular = ~(np.isfinite(q) & np.isfinite(r) & np.isfinite(p))
        self._umbilic = ~self._singular & (np.abs(q) <= _UMBILIC_ATOL)
        self.q, self.h_over_G, self.hG = (self._recover(i, v, self._singular) for i, v in enumerate((q, r, p)))

    @cached_property
    def _fallback(self):
        """(direct rho, circled nodes, their circle means): the one fallback
        pass.  Circled are the singular nodes, those where the eight terms of
        rho cancel, and the umbilics, where |T-hat| extends continuously."""
        q, r, p = self._direct
        rho, largest = _rho_and_scale(self._cG, self._ch)
        with np.errstate(all="ignore"):
            curvature = 4.0 * np.abs(q) ** 2 / (np.abs(r) + np.abs(p)) ** 2  # |K| lambda^2
            cancels = ~(largest <= _CANCEL_RATIO * np.maximum(np.abs(rho), curvature))
        circled = self._singular | cancels | self._umbilic
        size = max(_BLOCK // _CIRCLE_POINTS, 1)
        means = by_blocks(partial(_circle_means, self._data), size, self.z[circled]) if circled.any() else None
        return rho, circled, means

    def _recover(self, part: int, direct, nodes) -> np.ndarray:
        """``direct`` with circle mean ``part`` at the circled ``nodes``, in a
        copy where there are any (``direct`` itself where there are none).
        Where the circle failed, a finite direct value stays, else NaN."""
        if nodes.any():
            _, circled, means = self._fallback
            nodes = nodes & circled
        if not nodes.any():
            return direct
        out = direct.copy()
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
        r, p = _form_jets(self._cG, self._ch)
        short = np.isfinite(r[0]) & ~np.isfinite(r).all(axis=0)
        if short.any():
            r[:, short] = eval_jet(self._data.h / self._data.G, self.z[short], len(r) - 1).coeffs
        return Jet(r), Jet(p), Jet(self._ch)

    @cached_property
    def metric(self) -> dict:
        """lambda^2, K, u, |A|^2 by :func:`metric_from`."""
        return metric_from(self.h_over_G, self.hG, self.q)

    @cached_property
    def rho(self) -> np.ndarray:
        """Entropy coefficient; non-finite at umbilics (a double pole)."""
        rho, circled, _ = self._fallback
        return self._recover(3, rho, circled & ~self._umbilic)

    @cached_property
    def norms(self):
        """(|T|_g, |T-hat|_g) by :func:`norms_from`, with the circle mean of
        q^2 rho where it is not finite; |T| is infinite there."""
        with np.errstate(all="ignore"):
            s = self.q**2 * self.rho
        bad = ~np.isfinite(s)
        T, That = norms_from(self.metric["lambda_sq"], self.rho, self._recover(4, s, bad))
        return np.where(bad, np.inf, T), That


# ---------------------------------------------------------------------------
# The blocked reader, the field views on it, and single-point samples
# ---------------------------------------------------------------------------

def fields_of(data: WeierstrassData, z, pick) -> tuple:
    """The arrays ``pick(SurfaceFields(data, block))`` gives on the blocks of
    _BLOCK points of z, joined; each has its own leading axes, then z's shape."""
    out = by_blocks(lambda b: tuple(pick(SurfaceFields(data, b))), _BLOCK, np.ravel(z))
    return tuple(v.reshape(v.shape[:-1] + np.shape(z)) for v in out)


def metric_fields(data: WeierstrassData, z):
    """lambda^2, K, u, |A|^2 at the points z, in its shape (NaN where singular)."""
    return dict(zip(("lambda_sq", "K", "u", "A_norm_sq"), fields_of(data, z, lambda f: f.metric.values())))


def hopf_field(data: WeierstrassData, z):
    """Hopf coefficient q = -h G'/G at the points z, in its shape."""
    return fields_of(data, z, lambda f: (f.q,))[0]


def entropy_field(data: WeierstrassData, z):
    """Entropy coefficient rho at the points z, in its shape (non-finite at umbilics)."""
    return fields_of(data, z, lambda f: (f.rho,))[0]


def norm_fields(data: WeierstrassData, z):
    """(|T|_g, |T-hat|_g) at the points z, in its shape."""
    return fields_of(data, z, lambda f: f.norms)


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


def _metric_at(f: SurfaceFields) -> dict:
    """The metric at the one point of ``f``, as floats; the samples' one rule: a
    conformal factor lambda^2 that is not a finite float >= 1e-280 raises DegeneratePoint."""
    mf = {k: float(v[0]) for k, v in f.metric.items()}
    if not 1e-280 <= mf["lambda_sq"] < np.inf:
        raise DegeneratePoint(f"conformal factor degenerates at {f.z[0]}")
    return mf


def metric_sample(data: WeierstrassData, z: complex) -> MetricSample:
    """Metric, curvature, u and |A|^2 at a single point."""
    mf = _metric_at(_at_point(data, z))
    if not np.isfinite(mf["K"]):
        raise PoleAtPoint(f"curvature undefined at {z}")
    return MetricSample(z=complex(z), **mf)


def hopf_coefficient(data: WeierstrassData, z: complex) -> complex:
    return _hopf_at(_at_point(data, z))


def entropy_coefficient(data: WeierstrassData, z: complex) -> complex:
    """rho at a single non-umbilic point (P = (rho/2) dz^2).

    Raises UmbilicPoint where the Hopf coefficient vanishes (rho has a
    double pole there; use verify.pole_probe for those) and PoleAtPoint
    where rho is singular even after recovery (a genuine pole of the data;
    a Gauss-map pole of a regular surface is recovered).
    """
    f = _at_point(data, z)
    _hopf_at(f)  # raises PoleAtPoint on data poles
    if f._umbilic[0]:
        raise UmbilicPoint(f"umbilic point at {z}: entropy differential has a double pole")
    rho = complex(f.rho[0])
    if not np.isfinite(rho):
        raise PoleAtPoint(f"entropy coefficient undefined at {z}")
    return rho


def entropy_form_norms(data: WeierstrassData, z: complex):
    """(|T|_g, |T-hat|_g) at one point; |T| is inf at umbilics where the
    continuous extension applies only to |T-hat|."""
    f = _at_point(data, z)
    _metric_at(f)
    T, That = f.norms
    return float(T[0]), float(That[0])


def schwarzian(G: AnalyticExpr, z) -> complex:
    """Schwarzian derivative {G, z} = (G''/G')' - (G''/G')^2/2 by :func:`taylor_schwarzian`.

    Equals the entropy coefficient divided by 2 whenever the Hopf
    coefficient is constant.  Vectorizes over ``z``; each point is judged
    by its own jet c: where |c1| <= 1e-14 max(1, max_k |c_k|), G' vanishes
    and so the Schwarzian has a pole, NaN in an array, CriticalPoint for a scalar.
    A scalar z is the one-point array [z] (the array's bits); a pole of G raises PoleAtPoint.
    """
    scalar = np.ndim(z) == 0
    c = eval_jet(G, np.atleast_1d(z), 3).coeffs
    critical = np.abs(c[1]) <= 1e-14 * np.maximum(np.abs(c).max(axis=0), 1.0)
    if scalar and np.isnan(c[0, 0]):
        raise PoleAtPoint(f"expression is singular at {complex(z)}")
    if scalar and critical[0]:
        raise CriticalPoint(f"G' vanishes at {z}: the Schwarzian has a pole")
    out = np.where(critical, np.nan, taylor_schwarzian(c))
    return complex(out[0]) if scalar else out
