"""Every identity check the theory supports on concrete data.

Ricci condition, E-criticality of the |K|^(3/4)-conformal metric,
generalized conformal-power maps, the curvature-entropy functional,
Laurent pole probes at umbilic and branch points, the weighted L^(1/2)
norm of the entropy form, the gradient-soliton correspondence, and the
curvature-decay diagnostic.

All pass tolerances live in one config table: stencil checks scale as
C * delta^2 with constants calibrated on the catenoid (with headroom),
closed-form identities use absolute/relative thresholds.  Reports
serialize to the JSON schema {check, params, stats, tol, pass}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NonpositiveCurvature,
    PoleOnCircle,
    UmbilicOnGrid,
    ZeroCurvature,
)
from .geomnum import (
    ConformalMetricField,
    RectDomain,
    ScalarField,
    UniformGrid,
    integrate2d,
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
    reconstructed_data_jets,
    solve_on_grid,
)
from .jets import AnalyticExpr, parse_expression
from .models import deformed_helicoid
from .surface import SurfaceMesh, period_vector
from .weierstrass import SurfaceFields, WeierstrassData, entropy_field, metric_fields, rho_from_jets

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
    "weighted_entropy_norm",
    "soliton_check",
    "liouville_check",
    "curvature_decay_profile",
    "ht_period_check",
    "hill_round_trip",
]

# One table so acceptance runs are reproducible bit for bit.  Stencil
# constants multiply delta^2; the catenoid calibrates at 0.67 (Ricci),
# 0.17 (E-critical) and 0.17 (Liouville), Enneper at 1.0 (E-critical) and
# 0.25 (soliton Hessian); factors of ~4-12 give headroom without letting
# an O(1) failure slip through.
TOLERANCES = {
    "stencil_ricci": 8.0,
    "stencil_ecritical": 4.0,
    "stencil_soliton": 4.0,
    "stencil_liouville": 4.0,
    "closed_form_rel": 1e-9,
    "pole_fit_abs": 1e-4,
    "round_trip_rho": 1e-6,
    "wronskian_drift": 1e-10,
    "period_match": 1e-6,
    "umbilic_kappa_rel": 1e-10,
}


@dataclass
class Report:
    """Outcome of one verification run (JSON schema {check, params, stats, tol, pass})."""

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
    scale = np.nanmax(np.abs(K)) or 1.0
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


def _surviving(grid: UniformGrid, guard: np.ndarray, *fields: np.ndarray) -> list:
    """Each field at the interior nodes that survive the umbilic guard and
    where every field is finite; UmbilicOnGrid when no node survives."""
    mask = interior_mask(grid) & ~guard & np.logical_and.reduce([np.isfinite(f) for f in fields])
    if not mask.any():
        raise UmbilicOnGrid("no residual nodes survive the umbilic guard")
    return [f[mask] for f in fields]


def _stencil_report(name: str, grid: UniformGrid, stats: dict, worst: float) -> Report:
    """A stencil check passes when its worst residual is within C * delta^2."""
    delta = max(grid.hx, grid.hy)
    tol = TOLERANCES[f"stencil_{name}"] * delta**2
    return Report(name, {"delta": delta, "nx": grid.nx, "ny": grid.ny}, stats, tol, worst <= tol)


def _residual_report(name: str, resid: np.ndarray, grid: UniformGrid, guard: np.ndarray) -> Report:
    (vals,) = _surviving(grid, guard, np.abs(resid))
    mx = float(vals.max())
    return _stencil_report(name, grid, {"max_residual": mx, "mean_residual": float(vals.mean())}, mx)


class _GridMetric:
    """The metric of ``data`` on ``grid`` from one jet pass, and the umbilic
    guard and E-critical pair derived from it at most once each.  Built only
    from (data, grid), so a check reads the fields of the grid it reports on."""

    def __init__(self, data: WeierstrassData, grid: UniformGrid):
        mf = metric_fields(data, grid.zs)
        # lambda^2 = 0 at a branch point on a node: NaN there, a node the guard drops (K is not finite)
        self.grid, self.K, self.lambda_sq = grid, mf["K"], np.where(mf["lambda_sq"] != 0, mf["lambda_sq"], np.nan)
        self.guard = _umbilic_guard(self.K, grid)

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

    def ricci(self) -> Report:
        return _ricci(ConformalMetricField(self.grid, self.lambda_sq), self.K, self.guard)

    def ecritical(self) -> Report:
        _, K_hat, _, lap = self.hat
        return _residual_report("ecritical", lap + 2.0 * K_hat, self.grid, self.guard)

    def soliton(self) -> Report:
        m_hat, K_hat, f, lap = self.hat
        with np.errstate(all="ignore"):
            a, b = tracefree_hessian_conformal(f, m_hat)
            hess_resid = np.maximum(np.abs(a.values), np.abs(b.values)) / m_hat.lambda_sq
        hess, lap, K_hat = _surviving(self.grid, self.guard, hess_resid, lap, K_hat)
        lam_fit = float(np.mean(lap / 2.0 + K_hat))
        lap_resid = float(np.abs(lap - 2.0 * (lam_fit - K_hat)).max())
        hess_max = float(hess.max())
        stats = {"hessian_residual": hess_max, "laplacian_residual": lap_resid, "fitted_lambda": lam_fit}
        return _stencil_report("soliton", self.grid, stats, max(lap_resid, hess_max))


def run_checks(names, data: WeierstrassData, grid: UniformGrid, surface=None, t=None) -> list:
    """Run the named checks on ``grid`` and return their reports sorted by name.

    ricci, ecritical and soliton test ``data`` and share one metric of it on
    ``grid``; liouville tests the catalog ``surface`` and ht-period H_t at
    ``t`` (``surface`` must be deformed-helicoid).  An unknown name, or a
    surface a check cannot test, raises ValueError.
    """
    shared = None
    reports = []
    for name in names:
        if name in ("ricci", "ecritical", "soliton"):
            shared = shared or _GridMetric(data, grid)
            reports.append(getattr(shared, name)())
        elif name == "liouville":
            reports.append(liouville_check(surface, grid))
        elif name == "ht-period":
            if surface != "deformed-helicoid" or t is None:
                raise ValueError("ht-period measures H_t: it needs the deformed-helicoid surface and its t")
            reports.append(ht_period_check(t))
        else:
            raise ValueError(f"unknown check {name!r}")
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

def _ricci(m: ConformalMetricField, K: np.ndarray, guard: np.ndarray) -> Report:
    with np.errstate(all="ignore"):
        resid = laplacian_conformal(ScalarField(m.grid, np.log(np.abs(K))), m).values - 4.0 * K
    return _residual_report("ricci", resid, m.grid, guard)


def ricci_residual_fields(m: ConformalMetricField, K: np.ndarray) -> Report:
    """Residual of Delta_g log|K| - 4K on explicit metric/curvature fields."""
    return _ricci(m, K, _umbilic_guard(K, m.grid))


def ricci_residual(data: WeierstrassData, grid: UniformGrid) -> Report:
    """Ricci condition Delta_g log|K_g| = 4 K_g on Weierstrass data."""
    return _GridMetric(data, grid).ricci()


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
    g = _GridMetric(data, grid)
    return g.hat[0], g.hat[1], g.K


def ecritical_residual(data: WeierstrassData, grid: UniformGrid) -> Report:
    """E-criticality Delta_ghat log K_ghat = -2 K_ghat for ghat = |K|^(3/4) g."""
    return _GridMetric(data, grid).ecritical()


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
    """Laurent coefficients of the entropy differential P = (rho/2) dz^2
    near a suspected singularity, from discrete contour integrals."""

    c_minus2: complex
    c_minus1: complex
    consistency: float
    radii: tuple


_PROBE_POINTS = 256


def _laurent_on_circle(data: WeierstrassData, center: complex, r: float, k: int) -> complex:
    theta = 2.0 * np.pi * np.arange(_PROBE_POINTS) / _PROBE_POINTS
    pts = center + r * np.exp(1j * theta)
    vals = 0.5 * entropy_field(data, pts)  # P-coefficient rho/2
    mags = np.abs(vals)
    if not np.all(np.isfinite(vals)) or mags.max() > 1e10 * (np.median(mags) + 1e-300):
        # non-finite samples, or a value wildly out of scale with the rest:
        # the circle passes on top of (or numerically through) a singularity
        raise PoleOnCircle(f"entropy coefficient singular on the radius-{r} circle")
    return complex(np.mean(vals * np.exp(-1j * k * theta)) / r**k)


def _richardson(estimates, radii):
    """Fold radius-indexed estimates, cancelling the leading alias term
    (r/R)^N; with N = 256 the extrapolation is effectively the smallest-
    radius value, and the fold reports internal consistency."""
    order = np.argsort(radii)
    vals = [estimates[i] for i in order]
    rs = [radii[i] for i in order]
    while len(vals) > 1:
        nxt_v, nxt_r = [], []
        for a, b, ra, rb in zip(vals[:-1], vals[1:], rs[:-1], rs[1:]):
            ratio = (ra / rb) ** _PROBE_POINTS if rb > ra else 0.0
            nxt_v.append((a - b * ratio) / (1.0 - ratio))
            nxt_r.append(ra)
        vals, rs = nxt_v, nxt_r
    return vals[0]


def pole_probe(data: WeierstrassData, center: complex, radii=(0.1, 0.2, 0.4)) -> PoleFit:
    """Fit c_-2 and c_-1 of P near ``center`` from trapezoid contour
    integrals on the given circles, Richardson-extrapolated over radii."""
    radii = tuple(float(r) for r in radii)
    est2 = [_laurent_on_circle(data, center, r, -2) for r in radii]
    est1 = [_laurent_on_circle(data, center, r, -1) for r in radii]
    c2 = _richardson(est2, radii)
    c1 = _richardson(est1, radii)
    consistency = max(max(abs(e - c2) for e in est2), max(abs(e - c1) for e in est1))
    return PoleFit(c2, c1, float(consistency), radii)


# ---------------------------------------------------------------------------
# Weighted entropy norm
# ---------------------------------------------------------------------------

def weighted_entropy_norm(data: WeierstrassData, domain: RectDomain | None = None, tol: float = 1e-8) -> float:
    """The weighted L^(1/2) norm ||T|| = (integral of |That|^(1/2) mu_g)^2.

    The integrand uses the continuous extension of |That| across umbilic
    points, so umbilics inside the domain are harmless.
    """
    domain = domain or data.domain

    def density(zs):
        f = SurfaceFields(data, zs)
        return np.sqrt(np.maximum(f.norms[1], 0.0)) * f.metric["lambda_sq"]

    return float(integrate2d(density, domain, tol=tol).value) ** 2


# ---------------------------------------------------------------------------
# Ricci solitons
# ---------------------------------------------------------------------------

def soliton_check(data: WeierstrassData, grid: UniformGrid) -> Report:
    """Gradient-soliton test of ghat = |K|^(3/4) g with potential log K_ghat.

    Checks the trace-free Hessian residual (must vanish for a soliton) and
    Delta f = 2(lambda - K) with lambda fitted by least squares over the
    interior; passing requires the Hessian residual at stencil scale.
    """
    return _GridMetric(data, grid).soliton()


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
    grid.  A surface outside the catalog raises ValueError."""
    if surface not in _LIOUVILLE_RHO:
        raise ValueError(f"the liouville check needs a catalog surface ({', '.join(_LIOUVILLE_RHO)}), not {surface!r}")
    rho_text = _LIOUVILLE_RHO[surface]
    rho = parse_expression(rho_text)
    if rho_text == "0":
        state = canonical_state_mu_nu(1.0)
    else:
        state = canonical_state_phi_alpha(0.0, complex(np.sqrt(-complex(rho.eval(0.0)))))
    f = solve_on_grid(HillSystem(rho, 0.0, state), grid)
    u = np.log(np.abs(f["w1"]) ** 2 + np.abs(f["w2"]) ** 2)
    res = liouville_residual(ScalarField(grid, u))
    delta = max(grid.hx, grid.hy)
    tol = TOLERANCES["stencil_liouville"] * delta**2
    return Report(
        "liouville",
        {"rho": rho_text, "delta": delta},
        {
            "max_residual": res.max_residual,
            "mean_residual": res.mean_residual,
            "wronskian_drift": f["wronskian_drift"],
        },
        tol,
        res.max_residual <= tol,
    )


# ---------------------------------------------------------------------------
# Curvature decay diagnostic
# ---------------------------------------------------------------------------

def curvature_decay_profile(data: WeierstrassData, mesh: SurfaceMesh, center=(0.0, 0.0, 0.0), nradii: int = 16):
    """Empirical decay profile: (r, sup over |x-center| <= r of the
    scale-invariant quantity |A(x)|^2 |x-center|^2).

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
    for r in np.linspace(rmax / nradii, rmax, nradii):
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
    """Reconstruct data from a Hill system and recover rho through the
    eight-term entropy formula at interior samples.

    Integrates a Wronskian-1/2 system (``state`` or the canonical linear
    one) from 0 along a straight path subdivided at the sample points; at
    each, (G, h) jets follow from the Hill states and the recovered rho is
    compared with the input.
    """
    if state is None:
        state = canonical_state_mu_nu(1.0, 0.1)
    sys = HillSystem(rho, 0.0, state)
    ts = np.linspace(0.15, 1.0, n_samples)
    pts = [complex(t * reach) for t in ts]
    sol = integrate_hill(sys, [0.0] + pts)
    worst = 0.0
    for zp in pts:
        st = sol.states_at([zp])[0]
        jG, jh = reconstructed_data_jets(st, rho, zp)
        worst = max(worst, abs(complex(rho_from_jets(jG, jh)) - rho.eval(zp)))
    tol = TOLERANCES["round_trip_rho"]
    ok = worst <= tol and sol.wronskian_drift <= TOLERANCES["wronskian_drift"]
    return Report(
        "hill-round-trip",
        {"rho": str(rho), "n_samples": n_samples},
        {"max_rho_residual": float(worst), "wronskian_drift": sol.wronskian_drift},
        tol,
        ok,
    )
