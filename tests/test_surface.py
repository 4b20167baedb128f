"""Immersion integrals, periods, meshes, and OBJ export."""

import json

import numpy as np
import pytest

from entropydiff.errors import DegeneratePoint, PoleOnPath
from entropydiff.geomnum import RectDomain, integrate_segment
from entropydiff.hill import HillSystem, canonical_state_mu_nu, solve_on_grid
from entropydiff import surface
from entropydiff.jets import Z, const, eval_jet
from entropydiff.models import catenoid, deformed_catenoid, enneper, helicoid
from entropydiff.surface import (
    SEGMENT_TOL,
    immersion_point,
    inverse_stereographic,
    period_vector,
    sample_mesh,
    weierstrass_integrand,
    write_obj,
    write_sidecar,
)
from entropydiff.weierstrass import WeierstrassData, metric_fields


def test_catenoid_immersion_point():
    cat = catenoid()
    x = immersion_point(cat.data, 0.0, 1.0).x
    np.testing.assert_allclose(x, [np.cosh(1.0) - 1.0, 0.0, 1.0], atol=1e-10)


def test_helicoid_immersion_point():
    hel = helicoid()
    x = immersion_point(hel.data, 0.0, 1j * np.pi / 2).x
    np.testing.assert_allclose(x, [0.0, 0.0, np.pi / 2], atol=1e-10)


def test_polyline_takes_one_lockstep_quadrature(monkeypatch):
    data = catenoid().data
    edges = _record_fallback(monkeypatch)
    path = [0.0, 0.5, 0.5 + 1j, 1.0 + 0.5j]
    x = immersion_point(data, path[0], path[-1], path=path).x
    assert len(edges) == 3 and surface._edge_integrals.calls == 1
    parts = [immersion_point(data, a, b).x for a, b in zip(path[:-1], path[1:])]
    np.testing.assert_allclose(x, np.sum(parts, axis=0), rtol=0, atol=1e-12)
    # one segment is the adaptive segment integral of the same integrand, bit for bit
    ref = np.real(integrate_segment(weierstrass_integrand(data), 0.2, 1.1 + 0.7j, tol=SEGMENT_TOL).value)
    assert np.array_equal(immersion_point(data, 0.2, 1.1 + 0.7j).x, ref)


def test_immersion_at_start_is_zero():
    enn = enneper()
    np.testing.assert_allclose(immersion_point(enn.data, 0.3 + 0.1j, 0.3 + 0.1j).x, 0.0, atol=1e-14)


def test_immersion_path_independence():
    m = deformed_catenoid(0.3)
    p0, p = 0.0, 1.0 + 1.0j
    straight = immersion_point(m.data, p0, p).x
    bent = immersion_point(m.data, p0, p, path=[p0, 1.0, 0.5 + 0.8j, p]).x
    np.testing.assert_allclose(straight, bent, atol=1e-8)


def test_period_vectors():
    cat = catenoid()
    np.testing.assert_allclose(period_vector(cat.data, [0.0, 2j * np.pi]), 0.0, atol=1e-10)
    m5 = deformed_catenoid(0.5)
    np.testing.assert_allclose(
        period_vector(m5.data, [0.0, 2j * np.pi]), [0.0, -8 * np.pi / 3, 0.0], atol=1e-9
    )


def test_period_vanishes_on_contractible_cycle():
    m = deformed_catenoid(-0.4)
    cycle = [0.5, 1.0, 1.0 + 1.0j, 0.5 + 1.0j]
    np.testing.assert_allclose(period_vector(m.data, cycle), 0.0, atol=1e-10)


def test_pole_on_path_detected():
    bad = WeierstrassData(const(1.0) / Z, const(1.0), RectDomain.square(2.0))
    with pytest.raises(PoleOnPath):
        immersion_point(bad, -1.0, 1.0)


def test_inverse_stereographic_convention():
    np.testing.assert_allclose(inverse_stereographic(0j), [0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(inverse_stereographic(complex(np.inf)), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(inverse_stereographic(1e300 + 0j), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(inverse_stereographic(1.0 + 0j), [1, 0, 0], atol=1e-15)
    # equator: |G| = 1 maps to the z = 0 circle
    g = np.exp(1j * np.linspace(0, 2 * np.pi, 9))
    assert np.abs(inverse_stereographic(g)[..., 2]).max() < 1e-15
    # exact bits, signed zeros included: NaN is the north pole, and a signed
    # zero G keeps its signs on the south pole
    nan = np.nan
    exact = [
        (complex(nan, 0.0), (0.0, -0.0, 1.0)), (complex(0.0, nan), (0.0, -0.0, 1.0)),
        (complex(nan, nan), (0.0, -0.0, 1.0)),
        (complex(0.0, 0.0), (0.0, 0.0, -1.0)), (complex(-0.0, 0.0), (-0.0, 0.0, -1.0)),
        (complex(0.0, -0.0), (0.0, -0.0, -1.0)), (complex(-0.0, -0.0), (-0.0, -0.0, -1.0)),
    ]
    got = inverse_stereographic(np.array([g for g, _ in exact]))
    assert got.tobytes() == np.array([n for _, n in exact]).tobytes()


def test_catenoid_mesh_positions_and_normals():
    cat = catenoid()
    mesh = sample_mesh(cat.data, (64, 64), domain=RectDomain(-2, 2, 0, 2 * np.pi))
    assert np.abs(np.linalg.norm(mesh.normals, axis=-1) - 1.0).max() < 1e-8
    X, Y = np.real(mesh.zs), np.imag(mesh.zs)
    F = np.stack([np.cosh(X) * np.cos(Y), np.cosh(X) * np.sin(Y), X], axis=-1)
    np.testing.assert_allclose(mesh.positions, F - F[0, 0], atol=1e-6)
    # Gauss-map normals match the right-handed parameterization normal
    N = np.stack([-np.cos(Y), -np.sin(Y), np.sinh(X)], axis=-1) / np.cosh(X)[..., None]
    np.testing.assert_allclose(mesh.normals, N, atol=1e-10)


def test_mesh_normals_orthogonal_to_tangents_and_conformal():
    m = deformed_catenoid(0.3)
    mesh = sample_mesh(m.data, (48, 48), domain=RectDomain(-1, 1, 0, np.pi))
    pos = mesh.positions
    tx = (pos[:, 2:, :] - pos[:, :-2, :]) / (2 * mesh.grid.hx)
    ty = (pos[2:, :, :] - pos[:-2, :, :]) / (2 * mesh.grid.hy)
    n = mesh.normals[1:-1, 1:-1]
    # orthogonality to O(delta^2)
    dot_x = np.abs(np.einsum("ijk,ijk->ij", tx[1:-1], n))
    dot_y = np.abs(np.einsum("ijk,ijk->ij", ty[:, 1:-1], n))
    assert dot_x.max() < 5e-3 and dot_y.max() < 5e-3
    # conformality: equal tangent lengths, orthogonal tangents, length = lambda
    lx = np.linalg.norm(tx[1:-1], axis=-1)
    ly = np.linalg.norm(ty[:, 1:-1], axis=-1)
    assert np.abs(lx / ly - 1.0).max() < 5e-3
    cross = np.abs(np.einsum("ijk,ijk->ij", tx[1:-1], ty[:, 1:-1])) / (lx * ly)
    assert cross.max() < 5e-3
    lam = np.sqrt(metric_fields(m.data, mesh.zs[1:-1, 1:-1])["lambda_sq"])
    assert np.abs(lx / lam - 1.0).max() < 5e-3


@pytest.mark.parametrize(
    "t, n, domain, poles",
    [
        # the Gauss map of C_t has a pole at z = -log t (mod 2 pi i), here on a node
        (0.5, 9, RectDomain(np.log(2.0) - 1.0, np.log(2.0) + 1.0, -1.0, 1.0), [(4, 4)]),
        (np.exp(-1.0), 13, None, [(0, 10), (12, 10)]),
    ],
    ids=["half", "inv_e"],
)
def test_mesh_samples_a_gauss_map_pole_on_its_node(t, n, domain, poles):
    m = deformed_catenoid(t)
    mesh = sample_mesh(m.data, (n, n), domain=domain)
    g = mesh.grid
    assert np.array_equal(mesh.zs, g.zs)
    origin = m.closed_form(g.xs[0], g.ys[0])
    ref = np.array([[m.closed_form(x, y) - origin for x in g.xs] for y in g.ys])
    assert np.abs(mesh.positions - ref).max() < 1e-12
    for iy, ix in poles:
        assert abs(g.zs[iy, ix] - complex(-np.log(t), 2 * np.pi * round(g.ys[iy] / (2 * np.pi)))) < 1e-14
        assert np.isfinite(mesh.K[iy, ix]) and mesh.K[iy, ix] < 0
        assert np.array_equal(mesh.normals[iy, ix], [0.0, 0.0, 1.0])
    assert np.isfinite(mesh.T_norm).all() and np.isfinite(mesh.That_norm).all()


def test_spinor_mesh_reads_the_pair_by_the_spinor_rule():
    # hill.spinor_metric: |w1| <= 1e-13 |w2| is a Gauss-map pole, and a
    # metric factor (|w1|^2 + |w2|^2)^2 that overflows is refused
    grid = RectDomain(-1.0, 1.0, -1.0, 1.0).grid(5, 5)
    fields = {k: np.ones(grid.shape, dtype=np.complex128) for k in ("w1", "w2")}
    fields.update({k: np.zeros(grid.shape) for k in ("x1", "x2", "x3")})
    fields["w1"][2, 2] = 1e-14
    mesh = surface.spinor_mesh(grid, fields, const(-1.0))
    assert np.array_equal(mesh.normals[2, 2], [0.0, 0.0, 1.0])
    assert np.allclose(mesh.normals[0, 0], [1.0, 0.0, 0.0])
    fields["w2"][0, 0] = 1e155
    with pytest.raises(DegeneratePoint):
        surface.spinor_mesh(grid, fields, const(-1.0))


def test_enneper_mesh_matches_hill_route_after_alignment():
    # two independent pipelines to the same surface: catalog data (z, z)
    # integrated by quadrature vs the rho = 0 Hill system marched by ODE
    # (data (z, -z)); they differ by the isometry -I.
    dom = RectDomain(-1, 1, -1, 1)
    enn = enneper()  # mu = 1/sqrt(2): G = z, h = z
    mesh = sample_mesh(enn.data, (21, 21), domain=dom)
    a = mesh.positions.reshape(-1, 3)

    sys0 = HillSystem(const(0.0), 0.0, canonical_state_mu_nu(1.0 / np.sqrt(2.0)))
    grid = dom.grid(21, 21)
    f = solve_on_grid(sys0, grid, with_positions=True)
    b = np.stack([f["x1"], f["x2"], f["x3"]], axis=-1).reshape(-1, 3)

    a0 = a - a.mean(axis=0)
    b0 = b - b.mean(axis=0)
    # orthogonal Procrustes (isometries include the point reflection)
    M = b0.T @ a0
    U, _, Vt = np.linalg.svd(M)
    Q = U @ Vt
    assert np.abs(b0 @ Q - a0).max() < 1e-6


def test_obj_and_sidecar_export(tmp_path):
    cat = catenoid()
    mesh = sample_mesh(cat.data, (8, 8), domain=RectDomain(-1, 1, 0, np.pi))
    obj_path = tmp_path / "cat.obj"
    write_obj(mesh, str(obj_path))
    lines = obj_path.read_text().splitlines()
    v = [l for l in lines if l.startswith("v ")]
    vn = [l for l in lines if l.startswith("vn ")]
    fc = [l for l in lines if l.startswith("f ")]
    assert len(v) == 64 and len(vn) == 64
    assert len(fc) == 2 * 7 * 7
    # all face indices in range, 1-based
    for line in fc:
        ids = [int(tok.split("//")[0]) for tok in line.split()[1:]]
        assert all(1 <= i <= 64 for i in ids)

    side_path = tmp_path / "cat.json"
    write_sidecar(mesh, str(side_path))
    doc = json.loads(side_path.read_text())
    assert doc["nx"] == 8 and doc["ny"] == 8
    assert len(doc["K"]) == 64 and len(doc["T_norm"]) == 64 and len(doc["That_norm"]) == 64
    np.testing.assert_allclose(doc["K"], mesh.K.reshape(-1), rtol=1e-12)


def _record_fallback(monkeypatch):
    """Replace the adaptive edge quadrature by a wrapper that records the
    (start, end) of every edge sent to it."""
    edges = []
    adaptive = surface._edge_integrals

    def record(f, za, zb, tol):
        record.calls += 1
        edges.extend(zip(za.tolist(), zb.tolist()))
        return adaptive(f, za, zb, tol)

    record.calls = 0
    monkeypatch.setattr(surface, "_edge_integrals", record)
    return edges


def _closed_form_positions(model, grid):
    xs, ys = grid.xs, grid.ys
    origin = model.closed_form(xs[0], ys[0])
    return np.array([[model.closed_form(x, y) - origin for x in xs] for y in ys])


def _hermite_estimates(data, zs):
    """(start, end, max |I5 - I3|) of the bottom-row and vertical edges,
    with the integrand's derivatives from jets of the data's expressions."""
    r, p, h = (eval_jet(e, zs, 2) for e in (data.h / data.G, data.h * data.G, data.h))
    # f^(k) at every node, components last
    f = [np.stack([0.5 * (r.derivative(k) - p.derivative(k)),
                   0.5j * (r.derivative(k) + p.derivative(k)),
                   h.derivative(k)], axis=-1) for k in range(3)]

    def estimate(a, b):
        d = (zs[b] - zs[a])[..., None]
        dI = d**2 * (f[1][a] - f[1][b]) / 60.0 + d**3 * (f[2][a] + f[2][b]) / 120.0
        return zs[a].ravel(), zs[b].ravel(), np.abs(dI).max(axis=-1).ravel()

    bottom = estimate((0, slice(None, -1)), (0, slice(1, None)))
    columns = estimate(slice(None, -1), slice(1, None))
    return [np.concatenate(v) for v in zip(bottom, columns)]


@pytest.mark.parametrize("t, fallback", [(0.3161, False), (0.4114, True)])
def test_ct_mesh_by_hermite_rule_matches_closed_form(monkeypatch, t, fallback):
    model = deformed_catenoid(t)
    edges = _record_fallback(monkeypatch)
    mesh = sample_mesh(model.data, (256, 256))
    np.testing.assert_allclose(mesh.positions, _closed_form_positions(model, mesh.grid), rtol=0, atol=1e-9)
    # the adaptive engine gets exactly the edges whose estimate exceeds the tolerance
    za, zb, est = _hermite_estimates(model.data, mesh.zs)
    over = ~(est <= SEGMENT_TOL)
    assert len(set(edges)) == len(edges) == over.sum()
    assert set(edges) == set(zip(za[over].tolist(), zb[over].tolist()))
    assert (len(edges) > 0) == fallback


def test_enneper_mesh_takes_the_hermite_rule_through_a_zero_of_G(monkeypatch):
    # G = h = z: the grid node z = 0 cuts h/G short by one order
    model = enneper()
    edges = _record_fallback(monkeypatch)
    mesh = sample_mesh(model.data, (21, 21), domain=RectDomain(-1, 1, -1, 1))
    assert mesh.zs[10, 10] == 0
    np.testing.assert_allclose(mesh.positions, _closed_form_positions(model, mesh.grid), rtol=0, atol=1e-13)
    assert edges == []
