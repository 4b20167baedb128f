"""Model-catalog tests: closed forms, family relations, symmetries."""

import numpy as np
import pytest

from entropydiff.geomnum import RectDomain
from entropydiff.models import (
    FamilyRelation,
    catenoid,
    closed_form_point,
    closed_form_vs_weierstrass,
    deformed_catenoid,
    deformed_helicoid,
    enneper,
    family_relation_residual,
    get_model,
    helicoid,
)
from entropydiff.surface import period_vector
from entropydiff.weierstrass import metric_fields


def test_closed_form_spot_values():
    np.testing.assert_allclose(
        closed_form_point(catenoid(), 1.0, 0.0), [np.cosh(1.0), 0.0, 1.0], atol=1e-15
    )
    np.testing.assert_allclose(closed_form_point(deformed_catenoid(0.5), 0.0, 0.0), [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(closed_form_point(helicoid(), 0.0, np.pi), [0.0, 0.0, np.pi], atol=1e-15)


def test_parameter_range_enforced():
    with pytest.raises(ValueError):
        deformed_catenoid(1.5)
    with pytest.raises(ValueError):
        deformed_helicoid(-1.0)
    with pytest.raises(ValueError):
        enneper(mu=-1.0)
    with pytest.raises(ValueError):
        get_model("deformed-catenoid")  # missing t


def test_family_relations():
    assert family_relation_residual(enneper()) < 1e-9
    assert family_relation_residual(deformed_catenoid(0.3)) < 1e-9
    assert family_relation_residual(deformed_helicoid(-0.7)) < 1e-9
    # 256^2 grids with nodes within 1e-4 of the zero of G at z = log t,
    # where the eight-term formula for rho cancels catastrophically
    for t in (0.4114, 0.4066, 0.3658):
        for m in (deformed_catenoid(t), deformed_helicoid(t)):
            assert family_relation_residual(m, m.data.domain.grid(256, 256)) < 1e-8


def test_catenoid_is_c0_with_section52_curvature():
    m = catenoid()
    grid = m.data.domain.grid(24, 24)
    K = metric_fields(m.data, grid.zs)["K"]
    np.testing.assert_allclose(K, -1.0 / np.cosh(np.real(grid.zs)) ** 4, atol=1e-9)


def test_deformed_catenoid_reflection_symmetries():
    # x_2 = 0 and x_3 = 0 are reflection planes: (x,-y) mirrors x2,
    # (-x,y) mirrors x3 -- exact algebraic identities of the closed form
    m = deformed_catenoid(0.6)
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, y = rng.normal(), rng.normal()
        p = closed_form_point(m, x, y)
        pm = closed_form_point(m, x, -y)
        np.testing.assert_allclose(pm, [p[0], -p[1], p[2]], atol=1e-12)
        pf = closed_form_point(m, -x, y)
        np.testing.assert_allclose(pf, [p[0], p[1], -p[2]], atol=1e-12)


def test_deformed_helicoid_axis_content():
    # the image of {x = 0} stays on the x3-axis for every t
    for t in (0.0, 0.45, -0.8):
        m = deformed_helicoid(t)
        for y in np.linspace(-3, 3, 11):
            p = closed_form_point(m, 0.0, y)
            assert abs(p[0]) < 1e-14 and abs(p[1]) < 1e-14


def test_closed_form_vs_weierstrass_integration():
    grid = RectDomain(-1, 1, 0, np.pi).grid(6, 6)
    # H_t at t != 0: its correction term in the second coordinate is odd in t
    for m in (catenoid(), helicoid(), deformed_catenoid(0.5), deformed_helicoid(0.3161), deformed_helicoid(-0.7)):
        assert closed_form_vs_weierstrass(m, grid) < 1e-6, m.data.label


def test_ht_period_matches_displayed_parameterization():
    for t in (0.2, 0.5):
        m = deformed_helicoid(t)
        pv = period_vector(m.data, [0.0, 2j * np.pi])
        measured = pv[2]
        shown = 2 * np.pi * (1 + t * t) / (1 - t * t)   # from the printed F_t
        stated = 2 * np.pi * (1 - t * t) / (1 + t * t)  # the other candidate
        assert abs(measured - shown) < 1e-6
        assert abs(measured - stated) > 0.5
        # and the closed form steps by the same vector over one period
        p = closed_form_point(m, 0.3, 1.0)
        p2 = closed_form_point(m, 0.3, 1.0 + 2 * np.pi)
        np.testing.assert_allclose(p2 - p, [0, 0, measured], atol=1e-9)


def test_catalog_names_and_relations():
    assert get_model("enneper").expected_relation is FamilyRelation.P_ZERO
    assert get_model("deformed-catenoid", t=0.1).expected_relation is FamilyRelation.P_EQ_HALF_Q
    assert get_model("deformed-helicoid", t=0.1).expected_relation is FamilyRelation.P_EQ_IHALF_Q
    with pytest.raises(ValueError):
        get_model("torus")


@pytest.mark.parametrize(
    "name, kw", [("catenoid", {"t": 0.5}), ("enneper", {"t": 0.5}), ("helicoid", {"mu": 1.0}), ("deformed-catenoid", {"t": 0.1, "mu": 1.0})]
)
def test_a_parameter_the_surface_does_not_take_is_refused(name, kw):
    with pytest.raises(ValueError, match="takes no parameter"):
        get_model(name, **kw)
