"""Stencil operators and quadrature tests."""

import numpy as np
import pytest

from entropydiff.errors import GridMismatch, GridTooCoarse, NoConvergence
from entropydiff.geomnum import (
    ConformalMetricField,
    RectDomain,
    STRIP_MAX_NODES,
    ScalarField,
    by_blocks,
    integrate2d,
    integrate_segment,
    integrate_strip,
    interior_stats,
    laplacian_conformal,
    tracefree_hessian_conformal,
)
from entropydiff.models import get_model
from entropydiff.surface import sample_mesh, weierstrass_integrand
from entropydiff.weierstrass import SurfaceFields


def _fields(domain, n, f_of_xy, lam_of_xy):
    grid = domain.grid(n, n)
    x, y = np.real(grid.zs), np.imag(grid.zs)
    return grid, ScalarField(grid, f_of_xy(x, y)), ConformalMetricField(grid, lam_of_xy(x, y))


def test_flat_laplacian_of_paraboloid():
    grid, f, m = _fields(RectDomain.square(1.0), 41, lambda x, y: x**2 + y**2, lambda x, y: np.ones_like(x))
    lap = laplacian_conformal(f, m)
    vmax, vmean = interior_stats(lap.values - 4.0, grid)
    assert vmax < 1e-10


def test_catenoid_ricci_identity_form():
    # Delta_g(-4 log cosh x) = -4 sech^4 x in the catenoid metric cosh^2 x.
    grid, f, m = _fields(
        RectDomain.square(1.0), 201, lambda x, y: -4 * np.log(np.cosh(x)), lambda x, y: np.cosh(x) ** 2
    )
    lap = laplacian_conformal(f, m)
    x = np.real(grid.zs)
    resid = lap.values - (-4.0 / np.cosh(x) ** 4)
    vmax, _ = interior_stats(resid, grid)
    assert vmax < 1e-3


def test_laplacian_of_constant_is_zero():
    grid, f, m = _fields(RectDomain.square(2.0), 21, lambda x, y: 3.7 * np.ones_like(x), lambda x, y: 1 + x**2)
    lap = laplacian_conformal(f, m)
    vmax, _ = interior_stats(lap.values, grid)
    assert vmax == 0.0


def test_tracefree_hessian_flat_cases():
    grid, f, m = _fields(RectDomain.square(1.0), 81, lambda x, y: x**2 - y**2, lambda x, y: np.ones_like(x))
    a, b = tracefree_hessian_conformal(f, m)
    amax, _ = interior_stats(a.values - 2.0, grid)
    bmax, _ = interior_stats(b.values, grid)
    assert amax < 1e-9 and bmax < 1e-9

    # flat trace-free Hessian of x^4: diag(12x^2, 0) minus the trace -> a = 6x^2
    grid, f, m = _fields(RectDomain.square(1.0), 201, lambda x, y: x**4, lambda x, y: np.ones_like(x))
    a, b = tracefree_hessian_conformal(f, m)
    x = np.real(grid.zs)
    amax, _ = interior_stats(a.values - 6 * x**2, grid)
    assert amax < 2e-3
    bmax, _ = interior_stats(b.values, grid)
    assert bmax < 1e-9


def test_stencils_converge_at_second_order():
    domain = RectDomain.square(1.0)
    errs = []
    deltas = [0.04, 0.02, 0.01]
    for d in deltas:
        n = int(round(2.0 / d)) + 1
        grid, f, m = _fields(domain, n, lambda x, y: np.sin(x) * np.cosh(y), lambda x, y: np.exp(x * 0 + 0.3))
        lap = laplacian_conformal(f, m)
        x, y = np.real(grid.zs), np.imag(grid.zs)
        exact = 0.0 * x  # sin(x)cosh(y) is harmonic... (d2x = -sin cosh, d2y = sin cosh)
        resid = lap.values - exact
        vmax, _ = interior_stats(resid, grid)
        errs.append(vmax)
    # harmonic target: residual IS the stencil error; slope ~ 2
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_grid_mismatch_raises():
    grid1, f, _ = _fields(RectDomain.square(1.0), 11, lambda x, y: x, lambda x, y: np.ones_like(x))
    grid2 = RectDomain.square(2.0).grid(11, 11)
    m2 = ConformalMetricField(grid2, np.ones(grid2.shape))
    with pytest.raises(GridMismatch):
        laplacian_conformal(f, m2)


def test_too_coarse_grid_rejected():
    grid = RectDomain.square(1.0).grid(4, 4)
    with pytest.raises(GridTooCoarse):
        ScalarField(grid, np.zeros(grid.shape))


def test_integrate2d_constant():
    res = integrate2d(lambda z: np.ones_like(np.real(z)), RectDomain(0, 1, 0, 1), tol=1e-12)
    assert abs(res.value - 1.0) < 1e-12
    assert res.error <= 1e-12


def test_integrate2d_catenoid_norm_density():
    # integral of 2^(-1/4) sech x over [-20,20]x[0,2pi] = 2^(3/4) pi^2
    res = integrate2d(
        lambda z: 2 ** (-0.25) / np.cosh(np.real(z)),
        RectDomain(-20, 20, 0, 2 * np.pi),
        tol=1e-8,
    )
    assert abs(res.value - 2**0.75 * np.pi**2) < 1e-6


def test_integrate2d_product_of_sines():
    res = integrate2d(
        lambda z: np.sin(np.real(z)) * np.sin(np.imag(z)),
        RectDomain(0, np.pi, 0, np.pi),
        tol=1e-10,
    )
    assert abs(res.value - 4.0) < 1e-9


def test_integrate2d_error_estimate_bounds_truth():
    cases = [
        (lambda z: np.exp(np.real(z)) * np.cos(np.imag(z)), RectDomain(0, 1, 0, np.pi / 2), (np.e - 1) * 1.0),
        (lambda z: np.real(z) ** 3 * np.imag(z), RectDomain(0, 1, 0, 2), 0.25 * 2.0),
        # frozen from scipy.integrate.dblquad at epsabs=1e-13
        (lambda z: 1.0 / (1 + np.abs(z) ** 2), RectDomain(-1, 1, -1, 1), 2.558041407481247),
    ]
    for f, dom, exact in cases:
        res = integrate2d(f, dom, tol=1e-9)
        assert abs(res.value - exact) <= max(res.error, 1e-9) * 5 + 1e-12


def test_integrate2d_budget_exhaustion():
    with pytest.raises(NoConvergence):
        integrate2d(
            lambda z: 1.0 / (np.abs(z - (0.5 + 0.5j)) + 1e-14),
            RectDomain(0, 1, 0, 1),
            tol=1e-14,
            max_panels=8,
        )


def test_integrate_segment_exponential():
    res = integrate_segment(np.exp, 0.0, 1 + 1j, tol=1e-12)
    assert abs(res.value - (np.exp(1 + 1j) - 1)) < 1e-12


def test_integrate_segment_vector_components():
    def f(zs):
        return np.stack([np.ones_like(zs), zs, zs**2])

    res = integrate_segment(f, 1.0, 2.0 + 2j, tol=1e-12)
    b, a = 2.0 + 2j, 1.0
    expected = np.array([b - a, (b**2 - a**2) / 2, (b**3 - a**3) / 3])
    np.testing.assert_allclose(res.value, expected, rtol=1e-12)


def test_integrate_segment_budget_exhaustion():
    with pytest.raises(NoConvergence):
        integrate_segment(lambda zs: 1.0 / (zs - 0.5 - 1e-6j), 0.0, 1.0, tol=1e-14, max_panels=8)


@pytest.mark.parametrize(
    "name, kw, panels, value",
    [
        # frozen from a depth-first, one-panel-per-call loop under the same local rule
        ("catenoid", {}, 53, 16.598629878142198),
        ("deformed-helicoid", {"t": 0.35}, 85, 14.620406448830716),
    ],
)
def test_norm_density_keeps_its_panel_tree(name, kw, panels, value):
    data = get_model(name, **kw).data

    def density(zs):
        f = SurfaceFields(data, zs)
        return np.sqrt(np.maximum(f.norms[1], 0.0)) * f.metric["lambda_sq"]

    res = integrate2d(density, RectDomain(-20, 20, 0, 2 * np.pi), tol=1e-6)
    assert res.panels == panels
    assert abs(res.value - value) <= 1e-13 * value


def _counting(f, sizes):
    def g(zs):
        sizes.append(np.size(zs))
        return f(zs)

    return g


def test_integrand_calls_stay_under_the_point_cap():
    sizes = []
    peak = _counting(lambda z: 1.0 / (np.abs(z - 0.3 - 0.6j) + 1e-3), sizes)
    res = integrate2d(peak, RectDomain(0, 1, 0, 1), tol=1e-9)
    assert res.panels > 100 and max(sizes) == 1152
    sizes.clear()
    integrate_segment(_counting(lambda z: np.exp(40j * z), sizes), 0.0, 10.0, tol=1e-12)
    assert 144 < max(sizes) <= 1152


def test_by_blocks_joins_blocks_into_the_arrays_of_one_call():
    rng = np.random.default_rng(29)
    a = rng.normal(size=(2, 3, 23)) + 1j * rng.normal(size=(2, 3, 23))
    b = rng.normal(size=23)
    returned = []

    def stage(x, y):
        out = (np.exp(x) * y, np.abs(x).sum(axis=0) > 1.0, (3.0 * y).astype(np.float32))
        returned.append(out)
        return out

    whole = by_blocks(stage, 23, a, b)  # one block: the stage's own arrays, no copy
    assert len(returned) == 1 and all(w is r for w, r in zip(whole, returned[0]))
    for size in (1, 5, 22):  # 5 leaves a short last block of 3
        returned.clear()
        blocked = by_blocks(stage, size, a, b)
        assert len(returned) == -(-23 // size)
        assert [(v.dtype, v.shape) for v in blocked] == [(v.dtype, v.shape) for v in whole]
        assert [v.tobytes() for v in blocked] == [v.tobytes() for v in whole]


def _peak(zs):
    return 1.0 / (np.abs(zs - 0.3 - 0.6j) + 1e-2)


@pytest.mark.parametrize(
    "integrate",
    [
        lambda: integrate2d(_peak, RectDomain(0, 1, 0, 1), tol=1e-8),
        lambda: integrate_segment(lambda zs: np.stack([np.exp(4j * zs), _peak(zs)]), 0.0, 1.0 + 1.0j, tol=1e-12),
    ],
    ids=["2d", "segment"],
)
def test_small_integrand_calls_give_the_numbers_of_the_default_calls(monkeypatch, integrate):
    # a panel's sum does not depend on its place in its call, so every call size gives the same bits
    want = integrate()
    for call_points in (144, 288, 432, 720):  # 1 to 5 2-D panels, 9 to 48 segment panels a call
        monkeypatch.setattr("entropydiff.geomnum._CALL_POINTS", call_points)
        got = integrate()
        assert (got.panels, got.diagnostics) == (want.panels, want.diagnostics)
        assert (np.asarray(got.value).tobytes(), got.error) == (np.asarray(want.value).tobytes(), want.error)


def test_budget_is_checked_before_a_level_is_evaluated():
    sizes = []
    with pytest.raises(NoConvergence):
        nan = _counting(lambda z: np.full(np.shape(z), np.nan), sizes)
        integrate2d(nan, RectDomain(0, 1, 0, 1), max_panels=20)
    # the root panel plus four children for each of at most 20 panels
    assert sum(sizes) <= (4 * 20 + 1) * 144


@pytest.mark.parametrize("integrate", ["2d", "segment"])
def test_a_non_finite_integrand_value_ends_the_quadrature_at_its_level(integrate):
    # a panel with a NaN value is never accepted; refining it would only spend the budget
    sizes = []
    f = _counting(lambda z: np.where(np.real(z) > 0.9, np.nan, 1.0), sizes)
    with pytest.raises(NoConvergence, match="not finite"):
        if integrate == "2d":
            integrate2d(f, RectDomain(0, 1, 0, 1))
        else:
            integrate_segment(f, 0.0, 1.0)
    assert len(sizes) <= 2  # the root, then its children


def test_sample_mesh_positions_match_per_edge_integrals():
    data = get_model("deformed-catenoid", t=0.35).data
    mesh = sample_mesh(data, (16, 16))
    f, zs = weierstrass_integrand(data), mesh.zs
    expected = np.zeros((16, 16, 3))
    row = np.zeros(3, dtype=complex)
    for i in range(1, 16):
        row = row + integrate_segment(f, zs[0, i - 1], zs[0, i]).value
        expected[0, i] = row.real
    for i in range(16):
        col = expected[0, i].astype(complex)
        for j in range(1, 16):
            col = col + integrate_segment(f, zs[j - 1, i], zs[j, i]).value
            expected[j, i] = col.real
    np.testing.assert_allclose(mesh.positions, expected, rtol=0, atol=1e-12)


def _strip_density(zs):
    # integral over R x [0, 2pi]: pi * 2 pi / sqrt(1.1^2 - 1)
    return 1.0 / (np.cosh(np.real(zs)) * (1.1 + np.cos(np.imag(zs))))


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-9, 1e-11])
def test_strip_rule_meets_tol_and_its_estimate_bounds_the_error(tol):
    res = integrate_strip(_strip_density, 0.0, 2 * np.pi, tol=tol)
    assert res.error <= tol
    assert abs(res.value - 2 * np.pi**2 / np.sqrt(0.21)) <= res.error
    assert 0 < res.diagnostics["truncation_bound"] <= res.error


def test_strip_rule_evaluates_each_node_once():
    seen = []

    def density(zs):
        seen.extend(np.asarray(zs).tolist())
        return _strip_density(zs)

    res = integrate_strip(density, 1.0, 2 * np.pi, tol=1e-11)
    d = res.diagnostics
    assert d["x_halvings"] >= 1 and d["y_halvings"] >= 1
    assert len(seen) == len(set(seen)) == d["nodes"]
    assert all(1.0 <= z.imag < 1.0 + 2 * np.pi and abs(z.real) <= 30.0 for z in seen)


@pytest.mark.parametrize(
    "density, tol, message",
    [
        # a kink in y: the even-index estimate never falls under tol
        (lambda zs: np.abs(np.sin(np.imag(zs))) / np.cosh(np.real(zs)), 1e-8, "nodes"),
        (lambda zs: np.where(np.real(zs) > 20, np.nan, 1.0 / np.cosh(np.real(zs))), 1e-8, "not finite"),
        # decays like 1/x^2, so the terms past the cap exceed tol
        (lambda zs: 1.0 / (1.0 + np.real(zs) ** 2), 1e-8, "past"),
        (_strip_density, float("nan"), "nodes"),
    ],
)
def test_strip_rule_ends_within_its_node_budget(density, tol, message):
    sizes = []
    with pytest.raises(NoConvergence, match=message):
        integrate_strip(_counting(density, sizes), 0.0, 2 * np.pi, tol=tol)
    assert sum(sizes) <= STRIP_MAX_NODES
