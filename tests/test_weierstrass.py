"""Weierstrass-data geometry tests (metric, curvature, Hopf, entropy)."""

import numpy as np
import pytest

from entropydiff.errors import PoleAtPoint, UmbilicPoint
from entropydiff.geomnum import RectDomain
from entropydiff.jets import Z, const, exp, parse_expression
from entropydiff.weierstrass import (
    WeierstrassData,
    entropy_coefficient,
    entropy_field,
    entropy_form_norms,
    hopf_coefficient,
    metric_fields,
    metric_sample,
    norm_fields,
    schwarzian,
)


def catenoid_data():
    return WeierstrassData(-exp(Z), const(1.0), RectDomain(-3, 3, -7, 7), periodic_y=2 * np.pi, label="catenoid")


def helicoid_data():
    return WeierstrassData(-exp(Z), const(-1j), RectDomain(-3, 3, -7, 7), periodic_y=2 * np.pi, label="helicoid")


def enneper_data():
    return WeierstrassData(Z, Z, RectDomain.square(2.0), label="enneper")


def test_catenoid_metric_and_curvature():
    cat = catenoid_data()
    s0 = metric_sample(cat, 0.0)
    assert abs(s0.lambda_sq - 1.0) < 1e-14
    assert abs(s0.K + 1.0) < 1e-14
    s1 = metric_sample(cat, 1.0)
    assert abs(s1.K + 1.0 / np.cosh(1.0) ** 4) < 1e-14
    assert abs(s1.lambda_sq - np.cosh(1.0) ** 2) < 1e-13
    assert abs(s1.u - np.log(np.cosh(1.0))) < 1e-14


def test_enneper_curvature_including_origin_cancellation():
    enn = enneper_data()
    assert abs(metric_sample(enn, 1.0).K + 1.0) < 1e-14
    # h^-1 G G' is regular at 0 only after jet cancellation
    s = metric_sample(enn, 0.0)
    assert abs(s.K + 16.0) < 1e-12
    assert abs(s.lambda_sq - 0.25) < 1e-14


def test_gauss_equation_everywhere():
    rng = np.random.default_rng(2)
    for data in (catenoid_data(), helicoid_data(), enneper_data()):
        zs = rng.normal(size=20) * 0.8 + 1j * rng.normal(size=20) * 0.8
        f = metric_fields(data, zs)
        np.testing.assert_allclose(f["A_norm_sq"], -2 * f["K"], rtol=0, atol=0)
        assert np.all(f["K"] <= 0)


def test_hopf_coefficients():
    assert abs(hopf_coefficient(catenoid_data(), 0.3 - 0.8j) + 1.0) < 1e-14
    assert abs(hopf_coefficient(helicoid_data(), 1.2 + 0.4j) - 1j) < 1e-14
    gg = WeierstrassData(1 + Z**2, const(1.0), RectDomain.square(2.0))
    assert abs(hopf_coefficient(gg, 1.0) + 1.0) < 1e-14


def test_entropy_coefficient_catenoid_and_enneper():
    # catenoid: terms 1 + 1/2 - 3/4 - 7/4 = -1;  Enneper: -3/4 - 1/2 + 5/4 = 0
    assert abs(entropy_coefficient(catenoid_data(), 0.7 + 0.1j) + 1.0) < 1e-12
    assert abs(entropy_coefficient(enneper_data(), 1.0)) < 1e-13
    assert abs(entropy_coefficient(enneper_data(), 0.3 - 0.6j)) < 1e-12


def test_entropy_coefficient_quadratic_gauss_map():
    # G = 1+z^2, h = 1 at z=0.1: 1/1.01 - 0.03/1.0201 - 7/(4*0.01)
    gg = WeierstrassData(1 + Z**2, const(1.0), RectDomain.square(2.0))
    expected = 1 / 1.01 - 0.03 / 1.0201 - 175.0
    assert abs(entropy_coefficient(gg, 0.1) - expected) < 1e-10 * abs(expected)


def test_entropy_coefficient_umbilic_refuses():
    gg = WeierstrassData(1 + Z**2, const(1.0), RectDomain.square(2.0))
    with pytest.raises(UmbilicPoint):
        entropy_coefficient(gg, 0.0)


def test_entropy_field_fallback_at_decomposition_singularities():
    # Enneper's rho vanishes identically; at z=0 the eight-term split
    # degenerates but the circle mean-value fallback recovers the limit.
    rho0 = entropy_field(enneper_data(), 0.0)
    assert abs(rho0) < 1e-9


def test_entropy_field_keeps_direct_values_near_a_branch_point():
    # G = z^2, h = z^5: rho = 5/z^2 has a genuine pole at the umbilic z = 0.
    # The eight terms barely cancel there, so nearby nodes keep their direct
    # values instead of circle means aliased by the pole.
    data = WeierstrassData(Z**2, Z**5, RectDomain.square(0.06))
    zs = data.domain.grid(121, 121).zs
    ring = (np.abs(zs) > 0.02) & (np.abs(zs) < 0.05)
    rho = entropy_field(data, zs[ring])
    np.testing.assert_allclose(rho, 5.0 / zs[ring] ** 2, rtol=1e-12)


def test_schwarzian_values_and_moebius_invariance():
    assert abs(schwarzian(Z, 0.7)) < 1e-14
    assert abs(schwarzian(exp(Z), 0.0) + 0.5) < 1e-14
    assert abs(schwarzian(exp(Z), 1.3 - 2.2j) + 0.5) < 1e-12
    moebius_of_exp = parse_expression("(2*exp(z)+1)/(exp(z)+1)")
    assert abs(schwarzian(moebius_of_exp, 0.4 - 0.2j) + 0.5) < 1e-12


def test_schwarzian_consistency_with_entropy_coefficient():
    # For constant Hopf coefficient, rho = 2 {G, z}; holds across the whole
    # deformed catenoid/helicoid families (Moebius invariance of {G, z}).
    from entropydiff.models import deformed_catenoid, deformed_helicoid

    families = [catenoid_data(), helicoid_data()]
    families += [deformed_catenoid(t).data for t in (-0.6, 0.3)]
    families += [deformed_helicoid(t).data for t in (-0.2, 0.7)]
    for data in families:
        for z in (0.0, 0.5 + 0.5j, -1.0 + 2.0j):
            rho = entropy_coefficient(data, z)
            assert abs(rho - 2.0 * schwarzian(data.G, z)) < 1e-10


def test_entropy_form_norms_catenoid():
    cat = catenoid_data()
    T0, That0 = entropy_form_norms(cat, 0.0)
    assert abs(T0 - np.sqrt(2) / 2) < 1e-13
    T1, That1 = entropy_form_norms(cat, 1.0)
    assert abs(T1 - np.sqrt(2) / (2 * np.cosh(1.0) ** 2)) < 1e-13
    assert abs(That1 - np.sqrt(2) / (2 * np.cosh(1.0) ** 6)) < 1e-13


def test_entropy_form_norms_enneper_vanish():
    T, That = entropy_form_norms(enneper_data(), 1.0)
    assert T < 1e-12 and That < 1e-12


def test_that_norm_continuous_extension_at_umbilic():
    # G = 1+z^2, h = 1: umbilic at 0 (n=1).  |T-hat| extends continuously:
    # compare the fallback value at 0 with nearby direct values.
    gg = WeierstrassData(1 + Z**2, const(1.0), RectDomain.square(2.0))
    _, that0 = norm_fields(gg, 0.0)
    ring = [norm_fields(gg, 1e-3 * np.exp(2j * np.pi * k / 7))[1] for k in range(7)]
    assert np.isfinite(that0)
    assert abs(that0 - np.mean(ring)) < 1e-4 * max(1.0, that0)
    T0, _ = norm_fields(gg, 0.0)
    assert np.isinf(T0)


def test_t_norm_factor_matches_tensor_contraction():
    # |T|_g^2 = lambda^-4 (T11^2 + T22^2 + 2 T12^2) with
    # T11 = Re(rho)/2 = -T22, T12 = -Im(rho)/2 (from T = Re((rho/2) dz^2)).
    rng = np.random.default_rng(4)
    data = helicoid_data()
    for _ in range(10):
        z = complex(rng.normal() * 0.5, rng.normal() * 0.5)
        rho = entropy_coefficient(data, z)
        lam2 = metric_sample(data, z).lambda_sq
        t11, t12 = rho.real / 2, -rho.imag / 2
        contraction = np.sqrt((2 * t11**2 + 2 * t12**2)) / lam2
        T, _ = entropy_form_norms(data, z)
        assert abs(T - contraction) < 1e-13 * max(1.0, contraction)


def test_holomorphy_of_entropy_coefficient():
    # discrete d-bar residual of rho is O(delta^2) on non-umbilic grids
    data = WeierstrassData(1 + Z**2, const(1.0), RectDomain.square(2.0))
    deltas = (0.04, 0.02, 0.01)
    maxres = []
    for delta in deltas:
        n = int(round(0.4 / delta))
        xs = 0.5 + delta * np.arange(n + 1)
        zs = xs[None, :] + 1j * xs[:, None]
        rho = entropy_field(data, zs)
        dbar = 0.5 * (
            (rho[1:-1, 2:] - rho[1:-1, :-2]) / (2 * delta)
            + 1j * (rho[2:, 1:-1] - rho[:-2, 1:-1]) / (2 * delta)
        )
        # compare on the sub-lattice shared by all three grids, so the
        # probe points (hence rho''' magnitudes) are identical
        stride = int(round(0.04 / delta))
        sub = np.abs(dbar[stride - 1 :: stride, stride - 1 :: stride])
        maxres.append(sub.max())
    slope = np.polyfit(np.log(deltas), np.log(maxres), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_scale_law_h_rescaling():
    # h -> lambda h leaves rho unchanged and multiplies q by lambda
    data = catenoid_data()
    for lam in (0.5, 2.0, 10.0):
        scaled = data.rescaled(lam)
        for z in (0.2 + 0.1j, -0.7 + 2.0j):
            assert abs(entropy_coefficient(scaled, z) - entropy_coefficient(data, z)) < 1e-12
            assert abs(hopf_coefficient(scaled, z) - lam * hopf_coefficient(data, z)) < 1e-12


def test_reflection_preserves_pointwise_norms():
    for data in (catenoid_data(), WeierstrassData(1 + Z**2 + 0.5j * Z, const(1.0) + 0.25j * Z, RectDomain.square(2.0))):
        mirrored = data.reflected()
        for z in (0.4 + 0.3j, -0.2 - 0.5j, 1.1 + 0.9j):
            T, That = entropy_form_norms(data, z)
            Tm, Thatm = entropy_form_norms(mirrored, np.conj(z))
            assert abs(T - Tm) < 1e-11 * max(1.0, T)
            assert abs(That - Thatm) < 1e-11 * max(1.0, That)


def test_domain_membership_enforced():
    with pytest.raises(ValueError):
        metric_sample(enneper_data(), 5.0 + 0j)


def test_periodic_domain_wraps_y():
    cat = catenoid_data()
    s_wrapped = metric_sample(cat, 1.0 + 9j)  # 9 - 2pi inside [-7, 7]
    s_direct = metric_sample(cat, 1.0 + (9 - 2 * np.pi) * 1j)
    assert abs(s_wrapped.K - s_direct.K) < 1e-12


def test_data_pole_raises():
    # C_t-style G pole without the compensating h zero: a genuine data pole
    bad = WeierstrassData(const(1.0) / Z, const(1.0), RectDomain.square(1.0))
    with pytest.raises(PoleAtPoint):
        hopf_coefficient(bad, 0.0)
