"""Every identity check the theory supports on concrete data.

Ricci condition, E-criticality of the |K|^(3/4)-conformal metric,
generalized conformal-power maps, the curvature-entropy functional,
Laurent pole probes at umbilic and branch points, the weighted L^(1/2)
norm of the entropy form, the gradient-soliton correspondence, and the
curvature-decay diagnostic.

A stencil check passes when its residual falls at an observed order of at
least 1.5 from the grid of its every other node (2 delta, no new jet pass
or Hill march) to its own (delta), at the nodes both grids share; the
other checks use the thresholds in ``TOLERANCES``.  Reports
serialize to the JSON schema {check, params, stats, tol, pass}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NonpositiveCurvature,
    PoleAtPoint,
    PoleOnCircle,
    UmbilicOnGrid,
    ZeroCurvature,
)
from .geomnum import (
    ConformalMetricField,
    RectDomain,
    STRIP_X_CAP,
    ScalarField,
    UniformGrid,
    integrate2d,
    integrate_strip,
    interior_mask,
    interior_stats,
    laplacian_conformal,
    tracefree_hessian_conformal,
)
from .hill import (
    HillSystem,
    canonical_state_mu_nu,
    canonical_state_phi_alpha,
    integrate_hill,
    liouville_residual,
    reconstructed_rho,
    solve_on_grid,
)
from .jets import AnalyticExpr, eval_jet, parse_expression
from .models import deformed_helicoid
from .surface import SurfaceMesh, period_vector
from .weierstrass import WeierstrassData, entropy_field, fields_of, metric_fields

__all__ = [
    "TOLERANCES",
    "Report",
    "ConformalPowerMap",
    "ConformalPowerResult",
    "gauss_curvature_of_conformal",
    "run_checks",
    "ricci_residual",
    "ricci_residual_fields",
    "conformal_power",
    "ecritical_residual",
    "ecritical_metric",
    "entropy_functional",
    "entropy_functional_ecritical",
    "PoleFit",
    "pole_probe",
    "NormResult",
    "weighted_entropy_norm",
    "soliton_check",
    "liouville_check",
    "curvature_decay_profile",
    "ht_period_check",
    "hill_round_trip",
]

TOLERANCES = {
    "round_trip_rho": 1e-6,
    "wronskian_drift": 1e-10,
    "period_match": 1e-6,
    "umbilic_kappa_rel": 1e-10,
}


@dataclass
class Report:
    """Outcome of one verification run (JSON schema {check, params, stats, tol, pass}).
    A stencil check's ``tolerance`` is the least passing ``observed_order`` of its statistics."""

    check_name: str
    parameters: dict
    statistics: dict
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "params": self.parameters,
            "stats": self.statistics,
            "tol": self.tolerance,
            "pass": bool(self.passed),
        }


_GUARD_RADIUS = 3  # nodes around a (near-)umbilic left out of stencil statistics


def _umbilic_guard(K: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """True where a node is within ``_GUARD_RADIUS`` nodes of a (near-)umbilic node.

    Umbilic points are exactly the zeros of K; the guard keeps the double
    pole of the entropy differential out of stencil statistics.
    """
    scale = np.abs(K[np.isfinite(K)]).max(initial=0.0) or 1.0  # over finite K, which may be none
    near = ~(np.abs(K) > TOLERANCES["umbilic_kappa_rel"] * scale) | ~np.isfinite(K)
    if not near.any():
        return near
    # dilate by the disk of radius g: OR of the mask shifted by each offset
    g = _GUARD_RADIUS
    ny, nx = near.shape
    padded = np.pad(near, g)
    out = np.zeros_like(near)
    for dy in range(-g, g + 1):
        for dx in range(-g, g + 1):
            if dx * dx + dy * dy <= g * g:
                out |= padded[g + dy : g + dy + ny, g + dx : g + dx + nx]
    return out


_MIN_ORDER = 1.5  # a second-order stencil on an identity that holds reads p = 2


def _stencil_report(name: str, params: dict, residual, fine, coarse) -> Report:
    """Judge a stencil check by the order at which its residual falls.

    ``residual`` maps ``fine`` (the input on the check's grid, spacing delta)
    and ``coarse`` (on its every other node, 2 delta) to (|residual|, NaN at
    nodes that do not count; statistics).  The worst residuals r(delta) and
    r(2 delta) over the shared nodes, interior on the coarse grid and counted
    on both, give the observed order p = log2(r(2 delta)/r(delta)), which
    passes at >= 1.5 (or r(delta) = 0).  The statistics are the fine grid's and p.
    """
    r1, stats = residual(fine)
    r2, _ = residual(coarse)
    shared = interior_mask(coarse.grid) & np.isfinite(r2) & np.isfinite(r1[::2, ::2])
    if not shared.any():
        raise UmbilicOnGrid("no residual node counts on both the grid and its every other node")
    a, b = r1[::2, ::2][shared].max(), r2[shared].max()
    with np.errstate(divide="ignore", invalid="ignore"):
        order = float(np.log2(b / a))
    return Report(name, params, {**stats, "observed_order": order}, _MIN_ORDER, bool(b >= 2.0**_MIN_ORDER * a))


class _GridMetric:
    """The metric (K, lambda^2) on ``grid``, and the umbilic guard and
    E-critical pair derived from it at most once each; ``coarse`` is the
    same metric on the grid of every other node."""

    def __init__(self, grid: UniformGrid, K: np.ndarray, lambda_sq: np.ndarray):
        # lambda^2 = 0 at a branch point on a node: NaN there, a node the guard drops (K is not finite)
        self.grid, self.K, self.lambda_sq = grid, K, np.where(lambda_sq != 0, lambda_sq, np.nan)
        self.guard = _umbilic_guard(K, grid)

    @classmethod
    def of(cls, data: WeierstrassData, grid: UniformGrid) -> "_GridMetric":  # one jet pass, on the grid reported on
        mf = metric_fields(data, grid.zs)
        return cls(grid, mf["K"], mf["lambda_sq"])

    @cached_property
    def coarse(self) -> "_GridMetric":
        return _GridMetric(self.grid.every_other_node(), self.K[::2, ::2], self.lambda_sq[::2, ::2])

    @cached_property
    def hat(self):
        """ghat = |K|^(3/4) g, its curvature K_hat = |K|^(1/4)/2, the potential
        f = log K_hat and Delta_ghat f, which ecritical and soliton share."""
        with np.errstate(all="ignore"):
            lam_hat = np.abs(self.K) ** 0.75 * self.lambda_sq
            # ghat has no factor at an umbilic on a node (K = 0): NaN there, a node the guard drops
            m_hat = ConformalMetricField(self.grid, np.where(lam_hat != 0, lam_hat, np.nan))
            K_hat = 0.5 * np.abs(self.K) ** 0.25
            f = ScalarField(self.grid, np.log(K_hat))
            return m_hat, K_hat, f, laplacian_conformal(f, m_hat).values

    def report(self, name: str) -> Report:
        """The ``name`` check (ricci, ecritical or soliton) of this metric."""
        params = {"delta": max(self.grid.hx, self.grid.hy), "nx": self.grid.nx, "ny": self.grid.ny}
        return _stencil_report(name, params, getattr(_GridMetric, f"_{name}"), self, self.coarse)

    def _counted(self, *fields: np.ndarray) -> np.ndarray:
        """Interior nodes outside the umbilic guard where every field is finite; UmbilicOnGrid if none."""
        mask = interior_mask(self.grid) & ~self.guard & np.logical_and.reduce([np.isfinite(f) for f in fields])
        if not mask.any():
            raise UmbilicOnGrid("no residual nodes survive the umbilic guard")
        return mask

    def _max_mean(self, resid: np.ndarray):
        mask = self._counted(resid)
        vals = np.abs(resid[mask])
        return np.where(mask, np.abs(resid), np.nan), {"max_residual": float(vals.max()), "mean_residual": float(vals.mean())}

    def _ricci(self):
        m = ConformalMetricField(self.grid, self.lambda_sq)
        with np.errstate(all="ignore"):
            resid = laplacian_conformal(ScalarField(self.grid, np.log(np.abs(self.K))), m).values - 4.0 * self.K
        return self._max_mean(resid)

    def _ecritical(self):
        _, K_hat, _, lap = self.hat
        return self._max_mean(lap + 2.0 * K_hat)

    def _soliton(self):
        m_hat, K_hat, f, lap = self.hat
        with np.errstate(all="ignore"):
            a, b = tracefree_hessian_conformal(f, m_hat)
            hess = np.maximum(np.abs(a.values), np.abs(b.values)) / m_hat.lambda_sq
            mask = self._counted(hess, lap, K_hat)
            lam_fit = float(np.mean(lap[mask] / 2.0 + K_hat[mask]))
            lap_resid = np.abs(lap - 2.0 * (lam_fit - K_hat))
            stats = {"hessian_residual": float(hess[mask].max()), "laplacian_residual": float(lap_resid[mask].max())}
            return np.where(mask, np.maximum(hess, lap_resid), np.nan), {**stats, "fitted_lambda": lam_fit}


def run_checks(names, data: WeierstrassData, grid: UniformGrid, surface=None, t=None) -> list:
    """Run the named checks on ``grid`` and return their reports sorted by name.

    ricci, ecritical and soliton test ``data`` and share one metric of it on
    ``grid``; liouville tests the catalog ``surface`` and ht-period H_t at
    ``t`` (``surface`` must be deformed-helicoid).  liouville runs first, so
    the peak memory is the larger of its own and the shared metric's, not
    their sum.  An unknown name, or a surface a check cannot test, raises
    ValueError before any check runs.
    """
    names = sorted(names, key=lambda n: n != "liouville")
    for name in names:  # liouville, which runs first, refuses its own surface
        if name == "ht-period" and (surface != "deformed-helicoid" or t is None):
            raise ValueError("ht-period measures H_t: it needs the deformed-helicoid surface and its t")
        if name not in ("ricci", "ecritical", "soliton", "liouville", "ht-period"):
            raise ValueError(f"unknown check {name!r}")
    shared = None
    reports = []
    for name in names:
        if name == "liouville":
            reports.append(liouville_check(surface, grid))
        elif name == "ht-period":
            reports.append(ht_period_check(t))
        else:
            shared = shared or _GridMetric.of(data, grid)
            reports.append(shared.report(name))
    return sorted(reports, key=lambda r: r.check_name)


def gauss_curvature_of_conformal(m: ConformalMetricField) -> ScalarField:
    """Stencil Gauss curvature K = -(1/lambda^2) Laplacian(log(lambda)/1)
    of the metric lambda^2 (dx^2 + dy^2)."""
    omega = ScalarField(m.grid, 0.5 * np.log(m.lambda_sq))
    lap = laplacian_conformal(omega, m)
    return ScalarField(m.grid, -lap.values)


# ---------------------------------------------------------------------------
# Ricci condition and E-criticality
# ---------------------------------------------------------------------------

def ricci_residual_fields(m: ConformalMetricField, K: np.ndarray) -> Report:
    """Residual of Delta_g log|K| - 4K on explicit metric/curvature fields."""
    return _GridMetric(m.grid, K, m.lambda_sq).report("ricci")


def ricci_residual(data: WeierstrassData, grid: UniformGrid) -> Report:
    """Ricci condition Delta_g log|K_g| = 4 K_g on Weierstrass data."""
    return _GridMetric.of(data, grid).report("ricci")


@dataclass
class ConformalPowerMap:
    """The map g -> |K_g|^(2 alpha) g on generalized-Ricci metrics
    (Delta log|K| = C K)."""

    C: float
    alpha: float

    @property
    def is_flattening(self) -> bool:
        return abs(self.alpha - 1.0 / self.C) < 1e-15

    @property
    def C_alpha(self) -> float:
        if self.is_flattening:
            raise ZeroCurvature("alpha = 1/C maps onto flat metrics; C_alpha undefined")
        return (2.0 * self.alpha - 1.0) / (self.alpha - 1.0 / self.C)


@dataclass
class ConformalPowerResult:
    metric: ConformalMetricField
    K: np.ndarray
    C_alpha: float | None
    stencil_discrepancy: float


def conformal_power(m: ConformalMetricField, K: np.ndarray, pmap: ConformalPowerMap) -> ConformalPowerResult:
    """Apply g -> |K|^(2 alpha) g; new curvature (1 - C alpha)|K|^(-2 alpha) K.

    The returned discrepancy re-measures the new curvature from the new
    conformal factor by stencil and compares with the formula (interior
    nodes, expected O(delta^2)).
    """
    grid = m.grid
    K = np.asarray(K, dtype=np.float64)
    scale = np.nanmax(np.abs(K))
    if not scale or np.any(~(np.abs(K[interior_mask(grid)]) > 1e-13 * scale)):
        raise ZeroCurvature("conformal power maps need K != 0 on the grid")
    a, C = pmap.alpha, pmap.C
    lam_new = np.abs(K) ** (2 * a) * m.lambda_sq
    K_new = (1.0 - C * a) * np.abs(K) ** (-2 * a) * K
    new_metric = ConformalMetricField(grid, lam_new)
    K_meas = gauss_curvature_of_conformal(new_metric).values
    disc = interior_stats(K_meas - K_new, grid)[0]
    c_alpha = None if pmap.is_flattening else pmap.C_alpha
    return ConformalPowerResult(new_metric, K_new, c_alpha, disc)


def ecritical_metric(data: WeierstrassData, grid: UniformGrid):
    """The E-critical metric ghat = |K|^(3/4) g of minimal-surface data:
    (conformal factor |K|^(3/4) lambda^2, curvature |K|^(1/4)/2, K)."""
    g = _GridMetric.of(data, grid)
    return g.hat[0], g.hat[1], g.K


def ecritical_residual(data: WeierstrassData, grid: UniformGrid) -> Report:
    """E-criticality Delta_ghat log K_ghat = -2 K_ghat for ghat = |K|^(3/4) g."""
    return _GridMetric.of(data, grid).report("ecritical")


# ---------------------------------------------------------------------------
# The entropy functional
# ---------------------------------------------------------------------------

def entropy_functional(K_fn, lambda_sq_fn, domain: RectDomain, tol: float = 1e-8) -> float:
    """E[g] = integral of K log K over the domain in the metric measure.

    ``K_fn`` and ``lambda_sq_fn`` are callables over complex sample arrays;
    K must be positive throughout (checked on a probe grid).
    """
    return _entropy_integral(lambda zs: (K_fn(zs), lambda_sq_fn(zs)), domain, tol)


def _entropy_integral(fields_fn, domain: RectDomain, tol: float) -> float:
    """E[g] from one callable returning (K, lambda^2) on a sample array."""
    Kp = np.asarray(fields_fn(domain.grid(17, 17).zs)[0], dtype=np.float64)
    if not np.all(Kp > 0):
        raise NonpositiveCurvature("entropy functional needs K > 0 on the domain")

    def density(zs):
        K, lam = (np.asarray(v, dtype=np.float64) for v in fields_fn(zs))
        with np.errstate(all="ignore"):
            return np.where(K > 0, K * np.log(K), 0.0) * lam

    return float(integrate2d(density, domain, tol=tol).value)


def entropy_functional_ecritical(data: WeierstrassData, domain: RectDomain, tol: float = 1e-8) -> float:
    """E[ghat] for the E-critical metric of Weierstrass data (one metric
    evaluation per sample array)."""

    def fields(zs):
        mf = metric_fields(data, zs)
        absK = np.abs(mf["K"])
        return 0.5 * absK**0.25, absK**0.75 * mf["lambda_sq"]

    return _entropy_integral(fields, domain, tol)


# ---------------------------------------------------------------------------
# Pole probes
# ---------------------------------------------------------------------------

@dataclass
class PoleFit:
    """Laurent coefficients of P = (rho/2) dz^2 near a suspected singularity from
    contour integrals on the smallest of the ``radii``; ``consistency`` is the
    largest distance of another circle's estimates from them."""

    c_minus2: complex
    c_minus1: complex
    consistency: float
    radii: tuple


_PROBE_POINTS = 256


def _laurent_on_circle(data: WeierstrassData, center: complex, r: float):
    """(c_-2, c_-1) of P from one entropy_field pass on the radius-r circle."""
    theta = 2.0 * np.pi * np.arange(_PROBE_POINTS) / _PROBE_POINTS
    pts = center + r * np.exp(1j * theta)
    vals = 0.5 * entropy_field(data, pts)  # P-coefficient rho/2
    mags = np.abs(vals)
    if not np.all(np.isfinite(vals)) or mags.max() > 1e10 * (np.median(mags) + 1e-300):
        # non-finite samples, or a value wildly out of scale with the rest:
        # the circle passes on top of (or numerically through) a singularity
        raise PoleOnCircle(f"entropy coefficient singular on the radius-{r} circle")
    return tuple(complex(np.mean(vals * np.exp(-1j * k * theta)) / r**k) for k in (-2, -1))


def pole_probe(data: WeierstrassData, center: complex, radii=(0.1, 0.2, 0.4)) -> PoleFit:
    """Fit c_-2 and c_-1 of P near ``center`` by trapezoid contour integrals
    on the given circles, one entropy_field pass each.  The fit is the
    smallest circle's: the rule's aliasing error falls like (r/R)^256, R the
    distance to the next singularity."""
    radii = tuple(float(r) for r in radii)
    est = [_laurent_on_circle(data, center, r) for r in radii]
    c2, c1 = est[int(np.argmin(radii))]
    consistency = max(max(abs(e2 - c2), abs(e1 - c1)) for e2, e1 in est)
    return PoleFit(c2, c1, float(consistency), radii)


# ---------------------------------------------------------------------------
# Weighted entropy norm
# ---------------------------------------------------------------------------

class NormResult(float):
    """The norm N as a float, with the ``domain`` it integrated.  From the
    whole-strip rule also ``error_estimate``, a bound on |N - exact|, and
    ``diagnostics`` (nodes, halvings in x and y, and the truncation bound
    on N); both are None from the adaptive engine."""

    def __new__(cls, value: float, domain: RectDomain, error_estimate=None, diagnostics=None):
        self = super().__new__(cls, value)
        self.domain, self.error_estimate, self.diagnostics = domain, error_estimate, diagnostics
        return self


def weighted_entropy_norm(data: WeierstrassData, domain: RectDomain | None = None, tol: float = 1e-8) -> NormResult:
    """The weighted L^(1/2) norm ||T|| = (integral of |That|^(1/2) mu_g)^2.

    With ``domain=None`` on y-periodic data the integral runs over the whole
    strip, one period wide, by :func:`geomnum.integrate_strip`; otherwise
    over ``domain`` (default ``data.domain``) by :func:`geomnum.integrate2d`.
    ``tol`` bounds the integral I of N = I^2.  The integrand uses the
    continuous extension of |That| across umbilic points, so umbilics
    inside a domain are harmless to the adaptive engine; the strip rule
    expects an analytic density, so a strip with umbilics needs a domain.
    """

    def density(zs):
        with np.errstate(all="ignore"):  # an overflowed metric gives inf * 0 = NaN, which the quadrature refuses
            return fields_of(data, zs, lambda f: (np.sqrt(np.maximum(f.norms[1], 0.0)) * f.metric["lambda_sq"],))[0]

    if domain is None and data.periodic_y is not None:
        y0 = data.domain.y0
        q = integrate_strip(density, y0, data.periodic_y, tol=tol)

        def on_norm(e):  # a bound e on I bounds N = I^2 by e (2|I| + e)
            return e * (2.0 * abs(q.value) + e)

        diagnostics = {**q.diagnostics, "truncation_bound": on_norm(q.diagnostics["truncation_bound"])}
        strip = RectDomain(-STRIP_X_CAP, STRIP_X_CAP, y0, y0 + data.periodic_y)
        return NormResult(q.value**2, strip, on_norm(q.error), diagnostics)
    domain = domain or data.domain
    return NormResult(float(integrate2d(density, domain, tol=tol).value) ** 2, domain)


# ---------------------------------------------------------------------------
# Ricci solitons
# ---------------------------------------------------------------------------

def soliton_check(data: WeierstrassData, grid: UniformGrid) -> Report:
    """Gradient-soliton test of ghat = |K|^(3/4) g with potential log K_ghat.

    Checks the trace-free Hessian residual (must vanish for a soliton) and
    Delta f = 2(lambda - K) with lambda fitted by least squares over the
    interior; passing requires the larger of the two to fall at stencil order.
    """
    return _GridMetric.of(data, grid).report("soliton")


# ---------------------------------------------------------------------------
# Liouville's equation through Hill's equation
# ---------------------------------------------------------------------------

# The constant entropy coefficient of each catalog surface (P = (rho/2) dz^2).
_LIOUVILLE_RHO = {
    "catenoid": "-1",
    "helicoid": "-1i",
    "enneper": "0",
    "deformed-catenoid": "-1",
    "deformed-helicoid": "-1i",
}


def liouville_check(surface: str, grid: UniformGrid) -> Report:
    """Liouville's equation for u = log(|w1|^2 + |w2|^2), with (w1, w2) a
    Hill pair for the constant rho of the catalog ``surface``, solved on the
    grid, judged by its order as the other stencil checks are.  A surface
    outside the catalog raises ValueError."""
    if surface not in _LIOUVILLE_RHO:
        given = "an expression surface, which has no catalog rho" if surface is None else repr(surface)
        raise ValueError(f"the liouville check needs a catalog surface ({', '.join(_LIOUVILLE_RHO)}), not {given}")
    rho_text = _LIOUVILLE_RHO[surface]
    rho = parse_expression(rho_text)
    if rho_text == "0":
        state = canonical_state_mu_nu(1.0)
    else:
        state = canonical_state_phi_alpha(0.0, complex(np.sqrt(-rho.eval(0.0))))
    f = solve_on_grid(HillSystem(rho, 0.0, state), grid)
    u = ScalarField(grid, np.log(np.abs(f["w1"]) ** 2 + np.abs(f["w2"]) ** 2))

    def residual(u):  # NaN on the boundary ring, which the coarse interior leaves out
        res = liouville_residual(u)
        stats = {"max_residual": res.max_residual, "mean_residual": res.mean_residual}
        march = {k: f[k] for k in ("wronskian_drift", "steps", "rejected")}
        return res.field.values, {**stats, **march}

    coarse = ScalarField(grid.every_other_node(), u.values[::2, ::2])
    return _stencil_report("liouville", {"rho": rho_text, "delta": max(grid.hx, grid.hy)}, residual, u, coarse)


# ---------------------------------------------------------------------------
# Curvature decay diagnostic
# ---------------------------------------------------------------------------

def curvature_decay_profile(mesh: SurfaceMesh, center=(0.0, 0.0, 0.0)):
    """Empirical decay profile: (r, sup over |x-center| <= r of the
    scale-invariant quantity |A(x)|^2 |x-center|^2) at 16 radii r evenly
    spaced up to the farthest finite node.

    Diagnostic only -- the constants of the curvature estimate are not
    computable from first principles, but bounded profiles (quadratic
    extrinsic curvature decay) are the behavior it predicts.
    """
    center = np.asarray(center, dtype=np.float64)
    pos = mesh.positions.reshape(-1, 3)
    a2 = (-2.0 * mesh.K).reshape(-1)
    dist = np.linalg.norm(pos - center, axis=1)
    finite = np.isfinite(a2)
    dist, a2 = dist[finite], a2[finite]
    weighted = a2 * dist**2
    rmax = float(dist.max())
    out = []
    for r in np.linspace(rmax / 16, rmax, 16):
        inside = dist <= r
        sup = float(weighted[inside].max()) if inside.any() else 0.0
        out.append((float(r), sup))
    return out


# ---------------------------------------------------------------------------
# H_t period discrepancy and Hill round trips
# ---------------------------------------------------------------------------

def ht_period_check(t: float) -> Report:
    """Measure the vertical period of H_t and match it against the two
    candidate formulas 2 pi (1 +/- t^2)/(1 -/+ t^2)."""
    m = deformed_helicoid(t)
    pv = period_vector(m.data, [0.0, 2j * math.pi])
    measured = float(pv[2])
    shown = 2 * math.pi * (1 + t * t) / (1 - t * t)
    stated = 2 * math.pi * (1 - t * t) / (1 + t * t)
    tol = TOLERANCES["period_match"]
    match_shown = abs(measured - shown) <= tol
    match_stated = abs(measured - stated) <= tol
    matched = "parameterization" if match_shown else ("stated-period" if match_stated else "none")
    return Report(
        "ht-period",
        {"t": t},
        {
            "measured": measured,
            "candidate_parameterization": shown,
            "candidate_stated_period": stated,
            "matched": matched,
            "transverse": [float(pv[0]), float(pv[1])],
        },
        tol,
        match_shown != match_stated,  # exactly one candidate matches
    )


def hill_round_trip(rho: AnalyticExpr, n_samples: int = 50, reach: complex = 1.0 + 0.8j, state=None) -> Report:
    """Reconstruct data from a Hill system and recover rho at interior
    samples.

    Integrates a Wronskian-1/2 system (``state`` or the canonical linear
    one) from 0 along the straight path through the sample points, read at
    them by dense output; at each, rho is recovered from the Hill state by
    :func:`hill.reconstructed_rho` (the eight-term entropy formula in terms
    of G and q, regular at the zeros of w1 and of w2) and compared with the
    input.  A sample where the recovered rho is not finite raises
    PoleAtPoint.
    """
    if state is None:
        state = canonical_state_mu_nu(1.0, 0.1)
    sys = HillSystem(rho, 0.0, state)
    ts = np.linspace(0.15, 1.0, n_samples)
    pts = [complex(t * reach) for t in ts]
    sol = integrate_hill(sys, [0.0] + pts)
    recovered = reconstructed_rho(sol.states[1:], rho, pts)
    if not np.isfinite(recovered).all():
        raise PoleAtPoint(f"the rho recovered from the spinors is undefined at {pts[np.argmin(np.isfinite(recovered))]}")
    worst = np.abs(recovered - eval_jet(rho, pts, 0)[0]).max()
    tol = TOLERANCES["round_trip_rho"]
    ok = worst <= tol and sol.wronskian_drift <= TOLERANCES["wronskian_drift"]
    return Report(
        "hill-round-trip",
        {"rho": str(rho), "n_samples": n_samples},
        {"max_rho_residual": float(worst), "wronskian_drift": sol.wronskian_drift},
        tol,
        ok,
    )
