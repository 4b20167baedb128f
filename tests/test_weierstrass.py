"""Weierstrass-data geometry tests (metric, curvature, Hopf, entropy)."""

import tracemalloc

import numpy as np
import pytest

from entropydiff.errors import CriticalPoint, DegeneratePoint, PoleAtPoint, UmbilicPoint
from entropydiff.geomnum import RectDomain
from entropydiff.jets import Z, const, eval_jet, exp, parse_expression, quotient_needs_jet
from entropydiff.models import deformed_catenoid
from entropydiff.weierstrass import (
    SurfaceFields,
    WeierstrassData,
    _parts,
    _values,
    entropy_coefficient,
    entropy_field,
    entropy_form_norms,
    fields_of,
    hopf_coefficient,
    hopf_field,
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


def test_circle_mean_rejects_a_small_pole_inside_its_circle():
    # G = 1 + z^2, h = 0.01: q = -0.02 z/(1 + z^2) has a genuine pole of
    # residue -0.01 at z = i.  Its circle values are only |q| ~ 0.5, so a
    # bound on their spread against an absolute scale took the mean 0.005i.
    data = WeierstrassData(1 + Z**2, const(0.01), RectDomain.square(2.0))
    z = np.array([1j])
    assert np.isnan(hopf_field(data, z)).all()
    assert np.isnan(metric_fields(data, z)["K"]).all()


def test_schwarzian_values_and_moebius_invariance():
    assert abs(schwarzian(Z, 0.7)) < 1e-14
    assert abs(schwarzian(exp(Z), 0.0) + 0.5) < 1e-14
    assert abs(schwarzian(exp(Z), 1.3 - 2.2j) + 0.5) < 1e-12
    moebius_of_exp = parse_expression("(2*exp(z)+1)/(exp(z)+1)")
    assert abs(schwarzian(moebius_of_exp, 0.4 - 0.2j) + 0.5) < 1e-12


def test_schwarzian_judges_each_point_by_its_own_jet():
    # {z^3, z} = -4/z^2: a far point no longer makes a near one critical
    near = schwarzian(Z**3, 1e-5)
    assert abs(near + 4e10) < 1e-4
    out = schwarzian(Z**3, [1e-5, 1e4])
    assert out[0] == near and abs(out[1] + 4e-8) < 1e-20
    # a critical point (G' = 0) is NaN in an array and raises for a scalar
    out = schwarzian(Z**3, [0.0, 1.0])
    assert np.isnan(out[0]) and abs(out[1] + 4.0) < 1e-14
    with pytest.raises(CriticalPoint):
        schwarzian(Z**3, 0.0)


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


def test_both_samples_refuse_a_degenerate_metric():
    # lambda^2 = 1e-300 at z = 1: the norms sample refuses it as the metric sample does
    data = WeierstrassData(Z, const(1e-150), RectDomain.square(2.0))
    with pytest.raises(DegeneratePoint):
        metric_sample(data, 1.0)
    with pytest.raises(DegeneratePoint):
        entropy_form_norms(data, 1.0)


def test_norms_where_q2_rho_overflows_off_every_circle():
    # at x = -359, q^2 rho is not finite but no node is circled: no circle means exist to read
    f = SurfaceFields(catenoid_data(), np.array([-359.17 + 0.0036j, 0.3 + 0.2j]))
    T, That = f.norms
    assert np.isinf(T[0]) and not np.isfinite(That[0])
    assert np.isfinite(T[1]) and np.isfinite(That[1])


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


def _random_data(seed, draws=200, points=64):
    """Seeded (data, points): polynomial G of degree 1-3, half of them times
    exp(cz), and polynomial h of degree 0-2, at random points of the unit square."""
    rng = np.random.default_rng(seed)

    def poly(degree):
        c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        return sum((complex(ck) * Z**k for k, ck in enumerate(c) if k), const(complex(c[0])))

    for _ in range(draws):
        G = poly(rng.integers(1, 4))
        if rng.random() < 0.5:
            G = G * exp(complex(rng.normal(), rng.normal()) * Z)
        zs = rng.uniform(-1, 1, points) + 1j * rng.uniform(-1, 1, points)
        yield WeierstrassData(G, poly(rng.integers(0, 3)), RectDomain.square(1.0)), zs


def _assert_close(got, want, rtol=1e-12):
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    ok = np.isfinite(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= rtol * np.abs(want[ok]))


def test_scale_law_h_rescaling():
    # h -> lambda h leaves rho unchanged and multiplies q by lambda
    data = catenoid_data()
    for lam in (0.5, 2.0, 10.0):
        scaled = data.rescaled(lam)
        for z in (0.2 + 0.1j, -0.7 + 2.0j):
            assert abs(entropy_coefficient(scaled, z) - entropy_coefficient(data, z)) < 1e-12
            assert abs(hopf_coefficient(scaled, z) - lam * hopf_coefficient(data, z)) < 1e-12
    rng = np.random.default_rng(21)
    lams = rng.uniform(0.1, 10.0, 200) * np.exp(2j * np.pi * rng.random(200))
    for (data, zs), lam in zip(_random_data(23), lams):
        base, scaled = SurfaceFields(data, zs), SurfaceFields(data.rescaled(complex(lam)), zs)
        _assert_close(scaled.rho, base.rho)
        _assert_close(scaled.q, lam * base.q)


def test_reflection_preserves_pointwise_norms():
    for data in (catenoid_data(), WeierstrassData(1 + Z**2 + 0.5j * Z, const(1.0) + 0.25j * Z, RectDomain.square(2.0))):
        mirrored = data.reflected()
        for z in (0.4 + 0.3j, -0.2 - 0.5j, 1.1 + 0.9j):
            T, That = entropy_form_norms(data, z)
            Tm, Thatm = entropy_form_norms(mirrored, np.conj(z))
            assert abs(T - Tm) < 1e-11 * max(1.0, T)
            assert abs(That - Thatm) < 1e-11 * max(1.0, That)
    for data, zs in _random_data(24):
        f, m = SurfaceFields(data, zs), SurfaceFields(data.reflected(), np.conj(zs))
        _assert_close(m.rho, np.conj(f.rho))
        for got, want in zip(m.norms, f.norms):
            _assert_close(got, want)


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


def test_samples_at_a_gauss_map_pole_equal_the_fields():
    # G of C_t has a pole at z = -log t, where h vanishes: the surface is
    # regular there, and P = Q/2 holds with q = rho = -1
    t = 0.4
    data = deformed_catenoid(t).data
    z = -np.log(t)
    fields = SurfaceFields(data, np.array([z - 0.3j, z, z + 0.2]))
    sample = metric_sample(data, z)
    for key in ("lambda_sq", "K", "u"):
        assert getattr(sample, key) == fields.metric[key][1]
    assert hopf_coefficient(data, z) == fields.q[1]
    assert entropy_coefficient(data, z) == fields.rho[1]
    assert entropy_form_norms(data, z) == (fields.norms[0][1], fields.norms[1][1])
    assert abs(sample.K - -0.82270247) < 1e-8
    assert abs(hopf_coefficient(data, z) + 1.0) < 1e-9
    assert abs(entropy_coefficient(data, z) + 1.0) < 1e-9


def test_scalar_fields_equal_the_array_fields_bit_for_bit():
    # a scalar z is evaluated as the one-point array [z]: numpy rounds 0-d
    # complex arithmetic apart from the same operation inside an array
    rng = np.random.default_rng(0)
    zs = rng.uniform(-1.0, 1.0, 200) + 1j * rng.uniform(0.0, 6.0, 200)
    data = deformed_catenoid(0.3161).data
    grid = SurfaceFields(data, zs)
    want = np.stack([grid.q, grid.rho, grid.metric["K"], *grid.norms])
    got = []
    for z in zs:
        fields = (hopf_field(data, z), entropy_field(data, z), metric_fields(data, z)["K"], *norm_fields(data, z))
        assert all(np.shape(v) == () for v in fields)
        got.append(fields)
        f = SurfaceFields(data, z)
        np.testing.assert_array_equal([f.q, f.rho, f.metric["K"], *f.norms], np.array(fields)[:, None])
    np.testing.assert_array_equal(np.array(got).T, want)


def test_scalar_schwarzian_equals_the_array_bit_for_bit():
    # a scalar z is evaluated as the one-point array [z], as the fields are
    rng = np.random.default_rng(0)
    zs = rng.uniform(-1.0, 1.0, 200) + 1j * rng.uniform(0.0, 6.0, 200)
    G = deformed_catenoid(0.3161).data.G
    np.testing.assert_array_equal([schwarzian(G, z) for z in zs], schwarzian(G, zs))
    # the Gauss-map pole of C_t: NaN in an array, PoleAtPoint for a scalar
    pole = -np.log(0.4)
    assert np.isnan(schwarzian(deformed_catenoid(0.4).data.G, [pole])[0])
    with pytest.raises(PoleAtPoint):
        schwarzian(deformed_catenoid(0.4).data.G, pole)


def _bits(a):
    """The shape and bytes of a field, with every NaN made one NaN."""
    v = np.array(a, dtype=np.complex128, order="C").view(np.float64)
    return np.shape(a), np.where(np.isnan(v), np.nan, v).tobytes()


def _block_cases() -> dict:
    """Point sets with circled nodes: a node on the Gauss-map pole z = -log t
    of C_t, the umbilic z = 0 of G = exp(z^2), and a far strip of C_0.4."""
    t, steps = 0.3161, np.arange(-6, 7)
    return {
        "Gauss-map pole": (deformed_catenoid(t).data, -np.log(t) + 0.1 * steps[None, :] + 0.4j * steps[:, None]),
        "umbilic": (WeierstrassData(exp(Z**2), const(1.0), RectDomain.square(1.0)), 0.25 * (steps[None, :] + 1j * steps[:, None])),
        "far strip": (deformed_catenoid(0.4).data, RectDomain(35, 45, 0, 6.28).grid(32, 32).zs),
    }


def _every_field(f):
    return (f.G, f.q, f.h_over_G, f.hG, *f.metric.values(), f.rho, *f.norms, *(j.coeffs for j in f.form_jets), f._umbilic)


@pytest.mark.parametrize("case", list(_block_cases()))
def test_blocks_give_the_whole_set_fields_bit_for_bit(monkeypatch, case):
    data, zs = _block_cases()[case]
    whole = SurfaceFields(data, zs)
    assert whole._fallback[1].any(), "the case needs circled nodes"
    want = [_bits(v) for v in _every_field(whole)]
    monkeypatch.setattr("entropydiff.weierstrass._BLOCK", zs.size)  # one block: the whole set at once
    assert [_bits(v) for v in fields_of(data, zs, _every_field)] == want
    monkeypatch.setattr("entropydiff.weierstrass._BLOCK", 7)  # 7 points a block, one circle a block
    assert [_bits(v) for v in fields_of(data, zs, _every_field)] == want
    metric = metric_fields(data, zs)
    assert list(metric) == list(whole.metric)
    assert [_bits(v) for v in metric.values()] == [_bits(v) for v in whole.metric.values()]
    views = (hopf_field(data, zs), entropy_field(data, zs), *norm_fields(data, zs))
    assert [_bits(v) for v in views] == [_bits(v) for v in (whole.q, whole.rho, *whole.norms)]


def test_the_umbilic_mask_is_per_node():
    # q = -2000 z: |q(1e-12)| = 2e-9 is no umbilic, whatever |q| = 2828 at 1 + i beside it
    data = WeierstrassData(exp(const(1000.0) * Z**2), const(1.0), RectDomain.square(2.0))
    pair = SurfaceFields(data, np.array([1e-12, 1 + 1j]))
    alone = [SurfaceFields(data, [z])._umbilic[0] for z in pair.z]
    assert list(pair._umbilic) == alone == [False, False]
    assert entropy_coefficient(data, 1e-12) == pair.rho[0]
    with pytest.raises(UmbilicPoint):
        entropy_coefficient(data, 1e-13)


def _values_cases() -> dict:
    """(G, h) on a 9x9 grid of [-1, 1]^2, whose nodes include 0 and -0.5:
    a zero, a double zero and a pole of G, and a zero 1e-13 from the node 0
    that the quotients take for one there, with h = 1 or z; and pairs of
    seeded trees of the property suite."""
    from test_jet_properties import DEPTH, SEED, _tree

    cases = {
        f"G={G}, h={h}": (parse_expression(G), parse_expression(h))
        for G in ("z", "z^2", "(z - 0.5)/(z + 0.5)", "z - 1e-13") for h in ("1", "z")
    }
    for index in range(40):
        rng = np.random.default_rng((SEED, index))
        cases[f"tree {index}"] = (_tree(rng, DEPTH), _tree(rng, DEPTH))
    return cases


@pytest.mark.parametrize("case", list(_values_cases()))
def test_field_values_are_row_0_of_the_full_quotients_bit_for_bit(case):
    G, h = _values_cases()[case]
    zs = RectDomain.square(1.0).grid(9, 9).zs
    jG, jh = eval_jet(G, zs.reshape(-1), 3), eval_jet(h, zs.reshape(-1), 2)
    q, r, p = _parts(jG, jh)
    if case.startswith("G="):
        assert 0 < quotient_needs_jet(jG, 2).sum() < zs.size, "the case needs both kinds of node"
    f = SurfaceFields(WeierstrassData(G, h, RectDomain.square(1.0)), zs)
    assert [_bits(v) for v in _values(jG, jh)] == [_bits(v) for v in (q, r.value, p.value)]
    assert [_bits(v.reshape(-1)) for v in f._direct] == [_bits(v) for v in (q, r.value, p.value)]
    # the form jets are the full ones, except where h/G lost orders to a zero of G
    fr, fp, fh = (j.coeffs.reshape(3, -1) for j in f.form_jets)
    kept = np.isfinite(r.coeffs).all(axis=0) | ~np.isfinite(r.value)
    assert [_bits(fr[:, kept]), _bits(fp), _bits(fh)] == [_bits(r.coeffs[:, kept]), _bits(p.coeffs), _bits(jh.coeffs)]


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_the_metric_view_holds_one_block_of_jets():
    # the whole 401^2 pass took 51.8 MB at once
    data = deformed_catenoid(0.0).data
    zs = data.domain.grid(401, 401).zs
    assert _traced_peak_mb(lambda: metric_fields(data, zs)) < 20.0


def test_a_far_strip_bundle_holds_one_block_of_temporaries():
    # 15173 of the 65536 nodes are circled; the whole-set stages took 149 MB.  Every
    # field of the set is 17 MB; fields_of took 25.8 MB
    data, zs = deformed_catenoid(0.4).data, RectDomain(35, 45, 0, 6.28).grid(256, 256).zs
    assert _traced_peak_mb(lambda: fields_of(data, zs, _every_field)) < 32.0
