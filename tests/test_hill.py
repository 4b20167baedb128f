"""Hill-equation integration, group actions, and reconstruction tests."""

import numpy as np
import pytest

from entropydiff import hill
from entropydiff.errors import NotUnimodular, PoleOnPath
from entropydiff.geomnum import RectDomain, ScalarField
from entropydiff.hill import (
    HillSystem,
    apply_sl2,
    canonical_state_mu_nu,
    canonical_state_phi_alpha,
    integrate_hill,
    liouville_residual,
    ql_factor,
    rebase,
    reconstruct_weierstrass,
    reconstructed_rho,
    solve_on_grid,
)
from entropydiff.jets import Z, const, exp
from entropydiff.weierstrass import rho_from_derivatives


def test_zero_coefficient_linear_solution():
    sys0 = HillSystem(const(0.0), 0.0, [[1.0, 0.0], [0.0, 0.5]])
    sol = integrate_hill(sys0, [0.0, 2.0])
    (w1, w2), _ = sol.end_state
    assert abs(w1 - 1.0) < 1e-12 and abs(w2 - 1.0) < 1e-12
    assert sol.wronskian_drift < 1e-10


def test_constant_negative_coefficient_exponentials():
    # rho = -1: w1 = e^{-z/2}/sqrt(2), w2 = e^{z/2}/sqrt(2)
    s = np.array([[1, 1], [-0.5, 0.5]]) / np.sqrt(2)
    sysm = HillSystem(const(-1.0), 0.0, s)
    sol = integrate_hill(sysm, [0.0, 1.0])
    (w1, w2), _ = sol.end_state
    assert abs(w1 - np.exp(-0.5) / np.sqrt(2)) < 1e-10
    assert abs(w2 - np.exp(0.5) / np.sqrt(2)) < 1e-10
    assert sol.wronskian_drift < 1e-10


def test_wronskian_is_first_integral_on_wild_path():
    sys = HillSystem(Z**2 - 0.5j * Z, 0.0, canonical_state_mu_nu(1.3, 0.2j))
    path = [0.0, 1.0 + 0.5j, 0.5 + 1.5j, -0.5 + 1.0j, 0.0 + 2.0j]
    sol = integrate_hill(sys, path)
    assert sol.wronskian_drift < 1e-10


def test_path_independence_of_endpoint_state():
    sys = HillSystem(Z, 0.0, canonical_state_mu_nu(0.9))
    end = 1.0 + 1.0j
    sol_a = integrate_hill(sys, [0.0, end])
    sol_b = integrate_hill(sys, [0.0, 1.0, end])
    sol_c = integrate_hill(sys, [0.0, 1.0j, -0.3 + 0.8j, end])
    assert np.abs(sol_a.end_state - sol_b.end_state).max() < 1e-8
    assert np.abs(sol_a.end_state - sol_c.end_state).max() < 1e-8


def test_pole_on_path_raises():
    sys = HillSystem(const(1.0) / Z, 1.0, canonical_state_mu_nu(1.0, base=1.0))
    with pytest.raises(PoleOnPath):
        integrate_hill(sys, [1.0, -1.0])


def test_wronskian_invariant_enforced_on_construction():
    with pytest.raises(ValueError):
        HillSystem(const(0.0), 0.0, [[1.0, 0.0], [0.0, 1.0]])


def _airy_state(z):
    # rho = z: w'' = -(z/4) w is Airy's equation in a z with a^3 = -1/4;
    # (Ai(a z), pi/(2a) Bi(a z)) has Wronskian a W(Ai, Bi) pi/(2a) = 1/2
    import mpmath as mp

    mp.mp.dps = 30
    a = -mp.mpf(4) ** (-mp.mpf(1) / 3)
    k = mp.pi / (2 * a)
    x = a * mp.mpc(z)
    vals = [[mp.airyai(x), k * mp.airybi(x)], [a * mp.airyai(x, 1), k * a * mp.airybi(x, 1)]]
    return np.array([[complex(v) for v in row] for row in vals])


def test_airy_along_a_long_complex_polyline_matches_mpmath():
    path = [0.0, 2.0 + 1.0j, 3.0 - 2.0j, -1.0 - 3.0j, -4.0 + 1.0j, 0.5 + 4.0j]
    sol = integrate_hill(HillSystem(Z, 0.0, _airy_state(0.0)), path)
    for z, st in zip(path[1:], sol.states[1:]):
        ref = _airy_state(z)
        assert np.abs(st - ref).max() <= 1e-9 * np.abs(ref).max(), z
    assert sol.wronskian_drift <= 1e-10
    # a finely subdivided ray: one run of long steps, read at its vertices
    ray = list(np.linspace(0.0, 1.0, 10001) * (-4.0 + 1.0j))
    sol = integrate_hill(HillSystem(Z, 0.0, _airy_state(0.0)), ray)
    for z, st in zip(ray[::1000], sol.states[::1000]):
        ref = _airy_state(z)
        assert np.abs(st - ref).max() <= 1e-9 * np.abs(ref).max(), z
    assert sol.wronskian_drift <= 1e-10


def _bessel_state(s):
    # rho = 1/s (s = z - pole): w = sqrt(s) J1(sqrt(s)) and
    # (pi/2) sqrt(s) Y1(sqrt(s)), with w' = J0/2 and (pi/4) Y0; Wronskian 1/2
    import mpmath as mp

    mp.mp.dps = 30
    r = mp.sqrt(mp.mpc(s))
    vals = [
        [r * mp.besselj(1, r), mp.pi / 2 * r * mp.bessely(1, r)],
        [mp.besselj(0, r) / 2, mp.pi / 4 * mp.bessely(0, r)],
    ]
    return np.array([[complex(v) for v in row] for row in vals])


def test_path_passing_near_a_pole_splits_steps_and_stays_accurate():
    # the segment passes 0.05 below the simple pole of rho; s = z - pole stays
    # in the lower half plane, off the branch cuts of the reference
    pole = 0.05j
    sys = HillSystem(const(1.0) / (Z - const(pole)), -1.0, _bessel_state(-1.0 - pole))
    sol = integrate_hill(sys, [-1.0, 1.0])
    assert sol.steps > 10  # one step of length 2 cannot pass the pole
    assert sol.wronskian_drift <= 1e-10
    assert np.abs(sol.end_state - _bessel_state(1.0 - pole)).max() <= 1e-9


def test_grid_nodes_match_path_integration_along_the_same_edges():
    grid = RectDomain(-1.0, 1.0, -0.5, 1.0).grid(11, 9)
    sys = HillSystem(Z - 0.5j * Z**2, 0.3 + 0.2j, canonical_state_mu_nu(0.8, 0.1j, base=0.3 + 0.2j))
    f = solve_on_grid(sys, grid)
    for j in (0, 4, 8):
        edge = [grid.xs[0] + 1j * y for y in grid.ys[: j + 1]]
        row = [x + 1j * grid.ys[j] for x in grid.xs]
        sol = integrate_hill(sys, [sys.base] + edge + row[1:])
        for i, st in enumerate(sol.states[len(edge):]):
            got = np.array([[f["w1"][j, i], f["w2"][j, i]], [f["w1p"][j, i], f["w2p"][j, i]]])
            assert np.abs(got - st).max() <= 1e-12 * max(1.0, np.abs(st).max())


def _count_jets(monkeypatch) -> list:
    calls = []
    real = hill.eval_jet
    monkeypatch.setattr(hill, "eval_jet", lambda *args: calls.append(args) or real(*args))
    return calls


def test_grid_march_takes_a_few_long_steps(monkeypatch):
    # the catenoid's pair on 401^2; one step per cell would take 800 steps
    calls = _count_jets(monkeypatch)
    grid = RectDomain.square(1.0).grid(401, 401)
    f = solve_on_grid(HillSystem(const(-1.0), 0.0, canonical_state_phi_alpha(0.0, 1.0)), grid)
    u = np.log(np.abs(f["w1"]) ** 2 + np.abs(f["w2"]) ** 2)
    assert np.abs(u - np.log(np.cosh(np.real(grid.zs)))).max() <= 1e-10
    assert f["wronskian_drift"] <= 1e-10
    assert f["steps"] <= 40 and len(calls) <= 40
    assert len(calls) == f["steps"] + f["rejected"]  # one jet of rho per attempted step


def _march_per_cell(sys: HillSystem, points, y) -> list:
    """States and positions at ``points``, one run of Taylor steps per segment."""
    states = [np.asarray(y, dtype=np.complex128)]
    for a, b in zip(points[:-1], points[1:]):
        states.append(hill._advance(sys.rho, [a], b - a, states[-1])[0])
    return states


def test_a_long_ray_takes_a_few_long_steps(monkeypatch):
    # 10001 vertices on one line; one step per segment would take 10000 jets
    calls = _count_jets(monkeypatch)
    ray = list(np.linspace(0.0, 1.0, 10001) * (0.9 + 0.9j))
    sol = integrate_hill(HillSystem(const(-1.0), 0.0, canonical_state_phi_alpha(0.0, 1.0)), ray)
    u = np.log(np.abs(sol.states[:, 0, 0]) ** 2 + np.abs(sol.states[:, 0, 1]) ** 2)
    assert np.abs(u - np.log(np.cosh(np.real(ray)))).max() <= 1e-10
    assert sol.wronskian_drift <= 1e-10
    assert len(calls) <= 20
    assert len(calls) == 1 + sol.steps + sol.rejected  # the pole probe, then one jet per attempted step


def _grid_edge_case(grid, sys, j):
    edge = [grid.xs[0] + 1j * y for y in grid.ys[: j + 1]]
    return sys, [sys.base] + edge + [x + 1j * grid.ys[j] for x in grid.xs[1:]]


_PATH_CASES = {
    "airy-polyline": lambda: (HillSystem(Z, 0.0, _airy_state(0.0)),
                              [0.0, 2.0 + 1.0j, 3.0 - 2.0j, -1.0 - 3.0j, -4.0 + 1.0j, 0.5 + 4.0j]),
    "wild": lambda: (HillSystem(Z**2 - 0.5j * Z, 0.0, canonical_state_mu_nu(1.3, 0.2j)),
                     [0.0, 1.0 + 0.5j, 0.5 + 1.5j, -0.5 + 1.0j, 0.0 + 2.0j]),
    "near-pole": lambda: (HillSystem(const(1.0) / (Z - const(0.05j)), -1.0, _bessel_state(-1.0 - 0.05j)), [-1.0, 1.0]),
    "grid-edge": lambda: _grid_edge_case(RectDomain(-1.0, 1.0, -0.5, 1.0).grid(11, 9), HillSystem(
        Z - 0.5j * Z**2, 0.3 + 0.2j, canonical_state_mu_nu(0.8, 0.1j, base=0.3 + 0.2j)), 8),
    "dense-grid-edge": lambda: _grid_edge_case(RectDomain(-1.0, 1.0, -0.5, 1.0).grid(129, 129), HillSystem(
        exp(Z), 0.3 + 0.2j, canonical_state_mu_nu(0.8, 0.1j, base=0.3 + 0.2j)), 64),
    "repeated-vertices": lambda: (HillSystem(Z, 0.0, canonical_state_mu_nu(1.0)),
                                  [0.0, 0.0, 0.5, 0.5, 1.0, 1.0 + 0.5j, 1.0 + 0.5j, 1.0 + 0.5j]),
    "doubling-back": lambda: (HillSystem(Z, 0.0, canonical_state_mu_nu(1.0)), [0.0, 1.0, 0.5, 2.0]),
    "one-point": lambda: (HillSystem(Z, 0.0, canonical_state_mu_nu(1.0)), [0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("case", list(_PATH_CASES))
def test_path_vertices_match_a_march_per_segment(case):
    sys, path = _PATH_CASES[case]()
    sol = integrate_hill(sys, path)
    marched = np.array([y.reshape(4) for y in _march_per_cell(sys, path, sys.state_at_base.reshape(4, 1))])
    got = sol.states.reshape(-1, 4)
    assert np.all(np.abs(got - marched) <= 1e-12 * np.maximum(1.0, np.abs(marched)))
    for k in range(1, len(path)):
        if path[k] == path[k - 1]:  # a zero-length segment copies the state before it
            assert np.array_equal(sol.states[k], sol.states[k - 1])


def test_dense_grid_nodes_match_per_cell_integration_with_positions():
    grid = RectDomain(-1.0, 1.0, -0.5, 1.0).grid(129, 129)
    sys = HillSystem(exp(Z), 0.3 + 0.2j, canonical_state_mu_nu(0.8, 0.1j, base=0.3 + 0.2j))
    f = solve_on_grid(sys, grid, with_positions=True)
    corner = grid.xs[0] + 1j * grid.ys[0]
    start = np.zeros((7, 1), dtype=np.complex128)  # the positions start at 0 at the corner
    start[:4] = integrate_hill(sys, [sys.base, corner]).end_state.reshape(4, 1)
    for j in (0, 64, 128):
        edge = [grid.xs[0] + 1j * y for y in grid.ys[: j + 1]]
        row = [x + 1j * grid.ys[j] for x in grid.xs]
        sol = integrate_hill(sys, [sys.base] + edge + row[1:])
        marched = _march_per_cell(sys, edge + row[1:], start)[j:]
        for i, (st, y) in enumerate(zip(sol.states[len(edge):], marched)):
            got = np.array([f[k][j, i] for k in ("w1", "w2", "w1p", "w2p")])
            assert np.all(np.abs(got - st.reshape(4)) <= 1e-12 * np.maximum(1.0, np.abs(st.reshape(4))))
            got = np.array([f[k][j, i] for k in ("x1", "x2", "x3")])
            assert np.all(np.abs(got - y[4:, 0].real) <= 1e-12 * np.maximum(1.0, np.abs(y[4:, 0].real)))


@pytest.mark.parametrize("pole", [0.5, 1.0, 0.5 + 1.0j], ids=["interior", "last-column", "top-row"])
def test_a_pole_of_rho_on_a_grid_node_is_a_pole_on_path(pole):
    grid = RectDomain.square(1.0).grid(9, 9)
    with pytest.raises(PoleOnPath):
        solve_on_grid(HillSystem(const(1.0) / (Z - const(pole)), 0.0, canonical_state_mu_nu(1.0)), grid)


def test_a_pole_of_rho_between_two_rows_integrates():
    grid = RectDomain.square(1.0).grid(9, 9)  # rows at y = 0 and 0.25
    f = solve_on_grid(HillSystem(const(1.0) / (Z - const(0.5 + 0.125j)), 0.0, canonical_state_mu_nu(1.0)), grid)
    assert all(np.isfinite(f[k]).all() for k in ("w1", "w2", "w1p", "w2p"))
    assert f["wronskian_drift"] <= 1e-10


# --- SL(2,C) machinery -------------------------------------------------------

def _random_su2(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    a = v[0] + 1j * v[1]
    b = v[2] + 1j * v[3]
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def test_apply_sl2_identity_and_triangular():
    sys0 = HillSystem(const(0.0), 0.0, [[1.0, 0.0], [0.0, 0.5]])
    same = apply_sl2(np.eye(2), sys0)
    assert np.abs(same.state_at_base - sys0.state_at_base).max() == 0.0
    moved = apply_sl2(np.array([[2.0, 0.0], [1j, 0.5]]), sys0)
    # w1 -> 2, w2 -> i + z/4
    expected = np.array([[2.0, 1j], [0.0, 0.25]])
    assert np.abs(moved.state_at_base - expected).max() < 1e-14


def test_apply_sl2_rejects_non_unimodular():
    sys0 = HillSystem(const(0.0), 0.0, [[1.0, 0.0], [0.0, 0.5]])
    with pytest.raises(NotUnimodular):
        apply_sl2(np.diag([2.0, 1.0]), sys0)


def test_su2_action_preserves_u_pointwise():
    rng = np.random.default_rng(8)
    sys = HillSystem(const(-1.0), 0.0, canonical_state_phi_alpha(0.15, 1.0))
    pts = [0.0, 0.4 + 0.3j, -0.6 + 1.1j, 1.2 - 0.8j]
    sol = integrate_hill(sys, pts)
    states = sol.states[1:]
    for _ in range(100):
        U = _random_su2(rng)
        for st in states:
            transformed = st @ U.T
            u_before = np.log(abs(st[0, 0]) ** 2 + abs(st[0, 1]) ** 2)
            u_after = np.log(abs(transformed[0, 0]) ** 2 + abs(transformed[0, 1]) ** 2)
            assert abs(u_before - u_after) < 1e-12


def test_su2_action_commutes_with_integration():
    rng = np.random.default_rng(9)
    sys = HillSystem(0.3 * Z, 0.0, canonical_state_mu_nu(1.0))
    end = 0.8 + 0.6j
    base_end = integrate_hill(sys, [0.0, end]).end_state
    for _ in range(3):
        U = _random_su2(rng)
        moved = apply_sl2(U, sys)
        moved_end = integrate_hill(moved, [0.0, end]).end_state
        assert np.abs(moved_end - base_end @ U.T).max() < 1e-9


def test_sl2_action_is_transitive_on_wronskian_half_states():
    rng = np.random.default_rng(10)
    sys0 = HillSystem(const(0.0), 0.0, [[1.0, 0.0], [0.0, 0.5]])
    s0 = sys0.state_at_base
    for _ in range(20):
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
        if abs(det) < 0.05:
            continue
        t = t / np.sqrt(det / 0.5)
        bt = np.linalg.solve(s0, t)
        B = bt.T
        detB = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
        assert abs(detB - 1.0) < 1e-10
        moved = apply_sl2(B, sys0)
        assert np.abs(moved.state_at_base - t).max() < 1e-10


def test_ql_factorization():
    # lower triangular with positive diagonal: U = I
    B = np.array([[2.0, 0.0], [0.3 + 0.4j, 0.5]])
    U, L = ql_factor(B)
    assert np.abs(U - np.eye(2)).max() < 1e-14
    assert np.abs(L - B).max() < 1e-14
    # already unitary: L = I
    B = np.array([[0.0, -1.0], [1.0, 0.0]])
    U, L = ql_factor(B)
    assert np.abs(U - B).max() < 1e-14
    assert np.abs(L - np.eye(2)).max() < 1e-14
    # random SL(2,C): reassembly and structure
    rng = np.random.default_rng(12)
    for _ in range(25):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        M = M / np.sqrt(np.linalg.det(M).astype(complex))
        U, L = ql_factor(M)
        assert np.abs(U.conj().T @ U - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(U) - 1.0) < 1e-12
        assert np.abs(U @ L - M).max() < 1e-12
        assert abs(L[0, 1]) == 0.0
        assert L[0, 0].imag == 0.0 and L[0, 0].real > 0
        assert L[1, 1].imag == 0.0 and L[1, 1].real > 0


def test_translation_action_matches_closed_forms():
    # for constant rho = -alpha^2, integrating to tau and rebasing must
    # reproduce the closed-form translated pair
    phi, alpha = 0.2, 1.0
    tau = 0.7 - 0.4j
    sys = HillSystem(const(-(alpha**2)), 0.0, canonical_state_phi_alpha(phi, alpha))
    moved = rebase(sys, tau)
    expected = canonical_state_phi_alpha(phi, alpha, base=tau)
    assert np.abs(moved.state_at_base - expected).max() < 1e-9


# --- reconstruction -----------------------------------------------------------

def test_reconstruct_exponential_pair():
    # (w1, w2) = (e^{-z/2}, e^{z/2})/sqrt(2): G = e^z, h = -1
    s = np.array([[1, 1], [-0.5, 0.5]]) / np.sqrt(2)
    sys = HillSystem(const(-1.0), 0.0, s)
    sol = integrate_hill(sys, [0.0, 0.9])
    rec = reconstruct_weierstrass(sol)[-1]
    assert abs(rec.G - np.exp(0.9)) < 1e-9
    assert abs(rec.h + 1.0) < 1e-10
    assert abs(rec.lambda_sq - np.cosh(0.9) ** 2) < 1e-9
    assert abs(rec.u - np.log(np.cosh(0.9)) - np.log(1.0)) < 1e-9


def test_reconstruct_enneper_pair():
    mu = 0.75
    sys = HillSystem(const(0.0), 0.0, canonical_state_mu_nu(mu))
    sol = integrate_hill(sys, [0.0, 1.3 + 0.4j])
    rec = reconstruct_weierstrass(sol)[-1]
    z = 1.3 + 0.4j
    assert abs(rec.G - z / (2 * mu**2)) < 1e-10
    assert abs(rec.h + z) < 1e-10


def test_reconstruct_flags_gauss_pole():
    # w1 = z/2 vanishes at 0: swap the Enneper pair so w1 has the zero
    state = np.array([[0.0, -1.0], [0.5, 0.0]])  # w1 = z/2, w2 = -1, W = 1/2
    sys = HillSystem(const(0.0), 0.0, state)
    sol = integrate_hill(sys, [0.0, 1.0])
    rec = reconstruct_weierstrass(sol)
    assert rec[0].gauss_pole and rec[0].G is None
    assert abs(rec[0].h) < 1e-12
    assert not rec[-1].gauss_pole


def test_round_trip_recovers_entropy_coefficient():
    # the module's master test: Hill solve -> spinor jets -> rho in G and q
    for rho in (const(0.0), const(-1.0), const(-1j), Z):
        sys = HillSystem(rho, 0.0, canonical_state_mu_nu(1.0, 0.1))
        pts = [0.25 + 0.2j, 0.6 - 0.3j, 1.1 + 0.7j]
        sol = integrate_hill(sys, [0.0] + pts)
        rhat = reconstructed_rho(sol.states[1:], rho, pts)
        assert np.abs(rhat - rho.eval(np.array(pts))).max() < 1e-8
        assert sol.wronskian_drift < 1e-10


def test_reconstructed_rho_is_regular_at_the_zeros_of_the_spinors():
    # rho = -1, phi = 0.3: w1 vanishes at log(cot 0.3) (a Gauss-map pole)
    # and w2 at -log(cot 0.3) (G = 0)
    rho = const(-1.0)
    sys = HillSystem(rho, 0.0, canonical_state_phi_alpha(0.3, 1.0))
    x = np.log(1.0 / np.tan(0.3))
    sol = integrate_hill(sys, [0.0, x, -x])
    assert abs(sol.states[1, 0, 0]) < 1e-12 and abs(sol.states[2, 0, 1]) < 1e-12
    np.testing.assert_allclose(reconstructed_rho(sol.states[1:], rho, [x, -x]), -1.0, rtol=0, atol=1e-12)

def test_rho_in_g_and_q_is_the_eight_term_formula():
    # under h = -q G/G' the eight terms equal 2 {G, z} - q''/q + (5/4)(q'/q)^2
    # for any G and q; with q constant, as for every Hill pair, this is the
    # rho = 2 {G, z} of hill.reconstructed_rho
    sp = pytest.importorskip("sympy")
    z = sp.symbols("z")
    G, q = sp.Function("G")(z), sp.Function("q")(z)
    h = -q * G / G.diff(z)
    eight = rho_from_derivatives(G, *(G.diff(z, k) for k in (1, 2, 3)), h, h.diff(z), h.diff(z, 2))
    schwarzian = G.diff(z, 3) / G.diff(z) - sp.Rational(3, 2) * (G.diff(z, 2) / G.diff(z)) ** 2
    target = 2 * schwarzian - q.diff(z, 2) / q + sp.Rational(5, 4) * (q.diff(z) / q) ** 2
    assert sp.simplify(sp.nsimplify(eight) - target) == 0


# --- grids and the Liouville equation -----------------------------------------

def test_liouville_residual_enneper_grid():
    grid = RectDomain.square(1.0).grid(201, 201)
    sys = HillSystem(const(0.0), 0.0, canonical_state_mu_nu(1.0))
    f = solve_on_grid(sys, grid)
    u = np.log(np.abs(f["w1"]) ** 2 + np.abs(f["w2"]) ** 2)
    exact = np.log(1.0 + np.abs(grid.zs) ** 2 / 4.0)
    assert np.abs(u - exact).max() < 1e-10
    res = liouville_residual(ScalarField(grid, u))
    assert res.max_residual < 1e-3


def test_liouville_residual_catenoid_grid():
    grid = RectDomain.square(1.0).grid(201, 201)
    sys = HillSystem(const(-1.0), 0.0, canonical_state_phi_alpha(0.0, 1.0))
    f = solve_on_grid(sys, grid)
    assert f["wronskian_drift"] < 1e-10
    u = np.log(np.abs(f["w1"]) ** 2 + np.abs(f["w2"]) ** 2)
    assert np.abs(u - np.log(np.cosh(np.real(grid.zs)))).max() < 1e-10
    res = liouville_residual(ScalarField(grid, u))
    assert res.max_residual < 1e-3


def test_liouville_constant_negative_control():
    grid = RectDomain.square(1.0).grid(21, 21)
    res = liouville_residual(ScalarField(grid, np.full(grid.shape, 0.3)))
    assert abs(res.max_residual - np.exp(-0.6)) < 1e-14
