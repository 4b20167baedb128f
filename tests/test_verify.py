"""Verification-suite tests: every identity check on model data."""

import numpy as np
import pytest

from entropydiff.errors import NonpositiveCurvature, ZeroCurvature
from entropydiff.geomnum import ConformalMetricField, RectDomain
from entropydiff.jets import Z, const
from entropydiff.models import catenoid, deformed_catenoid, enneper, helicoid
from entropydiff.surface import sample_mesh
from entropydiff.verify import (
    ConformalPowerMap,
    Report,
    conformal_power,
    curvature_decay_profile,
    ecritical_metric,
    ecritical_residual,
    entropy_functional,
    entropy_functional_ecritical,
    gauss_curvature_of_conformal,
    hill_round_trip,
    ht_period_check,
    pole_probe,
    ricci_residual,
    ricci_residual_fields,
    soliton_check,
    weighted_entropy_norm,
    _umbilic_guard,
)
from entropydiff.weierstrass import WeierstrassData, metric_fields


def test_ricci_residual_models():
    grid = RectDomain.square(1.0).grid(101, 101)
    assert ricci_residual(catenoid().data, grid).passed
    assert ricci_residual(helicoid().data, grid).passed
    # away from the origin where the curvature scale concentrates
    enn = enneper(half_width=4.0)
    assert ricci_residual(enn.data, RectDomain(1.0, 3.0, -1.0, 1.0).grid(101, 101)).passed


def test_ricci_negative_control_synthetic_metric():
    grid = RectDomain.square(1.0).grid(101, 101)
    x = np.real(grid.zs)
    m = ConformalMetricField(grid, 1.0 + x**2)
    K = gauss_curvature_of_conformal(m).values
    rep = ricci_residual_fields(m, K)
    assert not rep.passed
    assert rep.statistics["max_residual"] > 1.0


def test_ricci_umbilic_guard():
    # G = 1+z^2 has an umbilic at 0.  The operation's contract asks for
    # K < 0 on the grid; the 3-delta guard keeps the double pole of
    # log|K| out of the statistics (finite numbers, no exception), but a
    # stencil this close to the umbilic cannot meet the delta^2 tolerance.
    data = WeierstrassData(1 + Z**2, const(1.0), RectDomain.square(2.0))
    grid = RectDomain.square(1.0).grid(81, 81)
    rep = ricci_residual(data, grid)
    assert np.isfinite(rep.statistics["max_residual"])
    assert np.isfinite(rep.statistics["mean_residual"])
    # on an umbilic-free patch the identity holds: residual decays at
    # stencil order even though this data's constant exceeds the
    # catenoid-calibrated pass threshold
    patch = RectDomain(0.5, 1.5, 0.5, 1.5)
    r_02 = ricci_residual(data, patch.grid(51, 51)).statistics["max_residual"]
    r_01 = ricci_residual(data, patch.grid(101, 101)).statistics["max_residual"]
    assert 3.0 <= r_02 / r_01 <= 5.5


def test_umbilic_guard_matches_binary_dilation():
    # scipy is a test-only reference here, like mpmath
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(11)
    yy, xx = np.ogrid[-3:4, -3:4]
    disk = xx * xx + yy * yy <= 9
    for _ in range(50):
        ny, nx = rng.integers(1, 40, size=2)
        near = rng.random((ny, nx)) < rng.choice([0.002, 0.02, 0.2])
        K = np.where(near, 0.0, -1.0)
        K[near & (rng.random((ny, nx)) < 0.5)] = np.nan
        grid = RectDomain(0.0, 1.0, 0.0, 1.0).grid(max(nx, 2), max(ny, 2))
        expected = ndimage.binary_dilation(near, structure=disk)
        np.testing.assert_array_equal(_umbilic_guard(K, grid), expected)


def test_conformal_power_map_cases():
    grid = RectDomain.square(1.0).grid(101, 101)
    mf = metric_fields(catenoid().data, grid.zs)
    m = ConformalMetricField(grid, mf["lambda_sq"])
    cp = conformal_power(m, mf["K"], ConformalPowerMap(4.0, 3.0 / 8.0))
    assert abs(cp.C_alpha + 2.0) < 1e-14
    np.testing.assert_allclose(cp.K, 0.5 * np.abs(mf["K"]) ** 0.25, rtol=1e-13)
    assert cp.stencil_discrepancy < 1e-3

    flat = conformal_power(m, mf["K"], ConformalPowerMap(4.0, 0.25))
    assert np.abs(flat.K).max() == 0.0 and flat.C_alpha is None

    const_k = conformal_power(m, mf["K"], ConformalPowerMap(4.0, 0.5))
    assert np.abs(const_k.K - const_k.K.flat[0]).max() < 1e-13


def test_conformal_power_rejects_zero_curvature():
    grid = RectDomain.square(1.0).grid(21, 21)
    m = ConformalMetricField(grid, np.ones(grid.shape))
    with pytest.raises(ZeroCurvature):
        conformal_power(m, np.zeros(grid.shape), ConformalPowerMap(4.0, 0.375))


def test_ecritical_residual_and_closed_forms():
    grid = RectDomain.square(1.0).grid(101, 101)
    cat = catenoid()
    assert ecritical_residual(cat.data, grid).passed
    assert ecritical_residual(helicoid().data, grid).passed
    m_hat, K_hat, _ = ecritical_metric(cat.data, grid)
    x = np.real(grid.zs)
    np.testing.assert_allclose(K_hat, 0.5 / np.cosh(x), atol=1e-9)
    np.testing.assert_allclose(m_hat.lambda_sq, 1.0 / np.cosh(x), atol=1e-9)

    enn = enneper(half_width=1.5)
    assert ecritical_residual(enn.data, grid).passed
    m_hat, K_hat, _ = ecritical_metric(enn.data, grid)
    np.testing.assert_allclose(K_hat, 1.0 / (1.0 + np.abs(grid.zs) ** 2), atol=1e-9)


def test_entropy_functional_values():
    # catenoid E-critical metric integrates to exactly -2 pi over a period
    E = entropy_functional_ecritical(catenoid().data, RectDomain(-20, 20, 0, 2 * np.pi), tol=1e-6)
    assert abs(E + 2 * np.pi) < 1e-6
    ones = lambda z: np.ones(np.shape(z))
    assert entropy_functional(ones, ones, RectDomain(0, 1, 0, 1)) == 0.0
    Ee = entropy_functional(lambda z: np.e * np.ones(np.shape(z)), ones, RectDomain(0, 1, 0, 1))
    assert abs(Ee - np.e) < 1e-10


def test_entropy_functional_requires_positive_curvature():
    with pytest.raises(NonpositiveCurvature):
        entropy_functional(
            lambda z: -np.ones(np.shape(z)), lambda z: np.ones(np.shape(z)), RectDomain(0, 1, 0, 1)
        )


def test_pole_probe_umbilic_coefficients():
    for n in (1, 2, 3):
        data = WeierstrassData(1 + Z ** (n + 1), const(1.0), RectDomain.square(2.0))
        fit = pole_probe(data, 0.0)
        assert abs(fit.c_minus2 - (-(3 * n * n + 4 * n) / 8.0)) < 1e-10
        assert fit.consistency < 1e-6


def test_pole_probe_branch_coefficients():
    for n, k in ((1, 1), (2, 1), (3, 2)):
        data = WeierstrassData(Z**k, Z ** (n + k), RectDomain.square(2.0))
        fit = pole_probe(data, 0.0)
        assert abs(fit.c_minus2 - ((n + k + 1) ** 2 - 4 * k * k) / 8.0) < 1e-10
    # the degenerate branch case n - k + 1 = 0 has at most a simple pole
    data = WeierstrassData(Z**2, Z**3, RectDomain.square(2.0))
    assert abs(pole_probe(data, 0.0).c_minus2) < 1e-10


def test_pole_probe_rejects_circle_through_singularity():
    from entropydiff.errors import PoleOnCircle

    # (G = 1+z^2, h = 1) is singular at z = +/- i (G vanishes, h does not);
    # a radius-1 probe circle around 0 passes through both points
    data = WeierstrassData(1 + Z**2, const(1.0), RectDomain.square(2.0))
    with pytest.raises(PoleOnCircle):
        pole_probe(data, 0.0, radii=(1.0,))


def test_pole_probe_radius_independence():
    data = WeierstrassData(1 + Z**2, const(1.0), RectDomain.square(2.0))
    a = pole_probe(data, 0.0, radii=(0.05, 0.1, 0.2))
    b = pole_probe(data, 0.0, radii=(0.15, 0.3))
    assert abs(a.c_minus2 - b.c_minus2) < 1e-6


def test_weighted_entropy_norm_catenoid():
    v = weighted_entropy_norm(catenoid().data, RectDomain(-20, 20, 0, 2 * np.pi), tol=1e-6)
    expected = 2 * np.sqrt(2) * np.pi**4
    assert abs(v - expected) / expected < 1e-3


def test_weighted_entropy_norm_enneper_vanishes():
    assert weighted_entropy_norm(enneper().data, RectDomain.square(1.0), tol=1e-8) < 1e-10


def test_weighted_entropy_norm_scale_invariance():
    dom = RectDomain(-10, 10, 0, 2 * np.pi)
    cat = catenoid()
    base = weighted_entropy_norm(cat.data, dom, tol=1e-7)
    for lam in (0.5, 2.0, 10.0):
        v = weighted_entropy_norm(cat.data.rescaled(lam), dom, tol=1e-7)
        assert abs(v - base) / base < 1e-8


def test_weighted_entropy_norm_domain_monotonicity():
    m = deformed_catenoid(0.3, x_half_width=2.5)
    small = weighted_entropy_norm(m.data, RectDomain(-1, 1, 0, np.pi), tol=1e-7)
    big = weighted_entropy_norm(m.data, RectDomain(-2, 2, 0, 2 * np.pi), tol=1e-7)
    assert small <= big


def test_soliton_check_enneper_vs_catenoid():
    grid = RectDomain.square(1.0).grid(101, 101)
    enn = soliton_check(enneper(half_width=1.5).data, grid)
    assert enn.passed
    assert abs(enn.statistics["fitted_lambda"]) < 1e-3  # steady soliton
    cat = soliton_check(catenoid().data, grid)
    assert not cat.passed
    assert cat.statistics["hessian_residual"] > 0.1


def test_enneper_hat_is_twice_the_cigar_metric():
    grid = RectDomain.square(1.0).grid(41, 41)
    m_hat, K_hat, _ = ecritical_metric(enneper().data, grid)
    ratio = m_hat.lambda_sq * (1.0 + np.abs(grid.zs) ** 2) / 2.0
    np.testing.assert_allclose(ratio, 1.0, atol=1e-9)


def test_curvature_decay_profile():
    cat = catenoid(x_half_width=2.0)
    mesh = sample_mesh(cat.data, (32, 32), domain=RectDomain(-2, 2, 0, 2 * np.pi))
    # positions anchor at the grid corner; center the profile on the neck
    neck = np.unravel_index(np.argmin(np.abs(mesh.zs)), mesh.zs.shape)
    prof = curvature_decay_profile(cat.data, mesh, center=mesh.positions[neck])
    assert all(v >= 0 for _, v in prof)
    # plateaus at |A|^2(neck) x (neck diameter)^2 = 8: quadratic decay
    assert max(v for _, v in prof) < 10.0
    # synthetic flat control: all zeros
    flat_mesh = sample_mesh(
        WeierstrassData(const(0.5) + 0 * Z, const(1.0), RectDomain.square(1.0)), (8, 8)
    )
    prof0 = curvature_decay_profile(None, flat_mesh)
    assert max(v for _, v in prof0) < 1e-20


def test_soliton_residual_second_order_decay():
    enn = enneper(half_width=1.5)
    r_02 = soliton_check(enn.data, RectDomain.square(1.0).grid(101, 101)).statistics["hessian_residual"]
    r_01 = soliton_check(enn.data, RectDomain.square(1.0).grid(201, 201)).statistics["hessian_residual"]
    assert 3.0 <= r_02 / r_01 <= 5.5


def test_conformal_power_stencil_discrepancy_decays():
    cat = catenoid()
    discs = []
    for n in (51, 101):
        grid = RectDomain.square(1.0).grid(n, n)
        mf = metric_fields(cat.data, grid.zs)
        m = ConformalMetricField(grid, mf["lambda_sq"])
        discs.append(conformal_power(m, mf["K"], ConformalPowerMap(4.0, 0.375)).stencil_discrepancy)
    assert 3.0 <= discs[0] / discs[1] <= 5.5


def test_deformed_family_ricci_decays_at_second_order():
    # the Moebius deformation concentrates |K| (to 81 at z=0 for t=0.5), so
    # the catenoid-calibrated pass threshold is conservative there; the
    # identity itself still holds at clean second order
    m = deformed_catenoid(0.5)
    errs = []
    for d in (0.02, 0.01):
        n = int(round(2.0 / d)) + 1
        errs.append(ricci_residual(m.data, RectDomain.square(1.0).grid(n, n)).statistics["max_residual"])
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_ht_period_check_flags_parameterization():
    for t in (0.2, 0.5):
        rep = ht_period_check(t)
        assert rep.passed
        assert rep.statistics["matched"] == "parameterization"
        assert abs(rep.statistics["measured"] - 2 * np.pi * (1 + t * t) / (1 - t * t)) < 1e-6


def test_hill_round_trips():
    for rho in (const(0.0), const(-1.0), const(-1j), Z):
        rep = hill_round_trip(rho)
        assert rep.passed
        assert rep.statistics["max_rho_residual"] < 1e-6
        assert rep.statistics["wronskian_drift"] < 1e-10


def test_report_json_schema():
    rep = Report("demo", {"a": 1}, {"max_residual": 0.5}, 1.0, True)
    d = rep.to_dict()
    assert set(d) == {"check", "params", "stats", "tol", "pass"}
    assert d["pass"] is True
