"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import json
import math
import time

import numpy as np

from entropydiff.cli import main
from entropydiff.geomnum import RectDomain, ScalarField
from entropydiff.hill import (
    HillSystem,
    canonical_state_mu_nu,
    canonical_state_phi_alpha,
    liouville_residual,
    solve_on_grid,
)
from entropydiff.jets import Z, const
from entropydiff.models import (
    catenoid,
    closed_form_vs_weierstrass,
    deformed_catenoid,
    deformed_helicoid,
    enneper,
    family_relation_residual,
    get_model,
)
from entropydiff.surface import period_vector, sample_mesh
from entropydiff.verify import (
    curvature_decay_profile,
    ecritical_metric,
    ecritical_residual,
    hill_round_trip,
    ht_period_check,
    pole_probe,
    ricci_residual,
    soliton_check,
    weighted_entropy_norm,
)
from entropydiff.weierstrass import WeierstrassData


def _report(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_catenoid_norm_via_cli(tmp_path):
    out = tmp_path / "norm.json"
    t0 = time.perf_counter()
    code = main(["norm", "--surface", "catenoid", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    value = json.loads(out.read_text())["norm"]
    expected = 2.0 * math.sqrt(2.0) * math.pi**4
    rel = abs(value - expected) / expected
    assert rel < 1e-3
    assert elapsed < 5.0
    _report(1, f"norm --surface catenoid = {value:.6f} vs 2*sqrt(2)*pi^4 "
               f"(rel err {rel:.2e}) in {elapsed:.2f} s")


def test_criterion_2_family_relations():
    worst = 0.0
    cases = [("enneper", enneper())]
    for t in (-0.7, 0.0, 0.3, 0.9):
        cases.append((f"C_{t}", deformed_catenoid(t)))
        cases.append((f"H_{t}", deformed_helicoid(t)))
    for name, m in cases:
        resid = family_relation_residual(m, m.data.domain.grid(32, 32))
        assert resid < 1e-9, f"{name}: {resid}"
        worst = max(worst, resid)
    _report(2, f"P=0 / P=Q/2 / P=iQ/2 relations on 32x32 grids, worst residual {worst:.2e}")


def test_criterion_3_pole_coefficients():
    worst = 0.0
    for n in (1, 2, 3):
        data = WeierstrassData(1 + Z ** (n + 1), const(1.0), RectDomain.square(2.0))
        err = abs(pole_probe(data, 0.0).c_minus2 - (-(3 * n * n + 4 * n) / 8.0))
        assert err < 1e-4, f"umbilic n={n}"
        worst = max(worst, err)
    for n, k in ((1, 1), (2, 1), (3, 2)):
        data = WeierstrassData(Z**k, Z ** (n + k), RectDomain.square(2.0))
        err = abs(pole_probe(data, 0.0).c_minus2 - ((n + k + 1) ** 2 - 4 * k * k) / 8.0)
        assert err < 1e-4, f"branch n={n},k={k}"
        worst = max(worst, err)
    data = WeierstrassData(Z**2, Z**3, RectDomain.square(2.0))
    err = abs(pole_probe(data, 0.0).c_minus2)
    assert err < 1e-4
    worst = max(worst, err)
    _report(3, f"Laurent c_-2 laws (umbilic and branch cases), worst error {worst:.2e}")


def _order(deltas, errs):
    return float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])


def test_criterion_4_stencil_residual_suites():
    deltas = (0.04, 0.02, 0.01)
    patches = {
        "catenoid": (catenoid().data, RectDomain.square(1.0)),
        "helicoid": (get_model("helicoid").data, RectDomain.square(1.0)),
        "enneper": (enneper(half_width=4.0).data, RectDomain(1.0, 3.0, -1.0, 1.0)),
    }
    lines = []
    for name, (data, patch) in patches.items():
        for check, fn in (("ricci", ricci_residual), ("ecritical", ecritical_residual)):
            errs = []
            for d in deltas:
                n = int(round((patch.x1 - patch.x0) / d)) + 1
                rep = fn(data, patch.grid(n, n))
                errs.append(rep.statistics["max_residual"])
            slope = _order(deltas, errs)
            assert 1.8 <= slope <= 2.2, f"{name}/{check} order {slope}"
            assert errs[-1] < 1e-3, f"{name}/{check} max {errs[-1]}"
            lines.append(f"{name}/{check}: order {slope:.2f}, max {errs[-1]:.1e}")

    systems = {
        "enneper": HillSystem(const(0.0), 0.0, canonical_state_mu_nu(1.0)),
        "catenoid": HillSystem(const(-1.0), 0.0, canonical_state_phi_alpha(0.0, 1.0)),
        "helicoid": HillSystem(const(-1j), 0.0, canonical_state_phi_alpha(0.0, np.sqrt(1j))),
    }
    for name, sys_ in systems.items():
        errs = []
        for d in deltas:
            n = int(round(2.0 / d)) + 1
            grid = RectDomain.square(1.0).grid(n, n)
            f = solve_on_grid(sys_, grid)
            u = np.log(np.abs(f["w1"]) ** 2 + np.abs(f["w2"]) ** 2)
            errs.append(liouville_residual(ScalarField(grid, u)).max_residual)
        slope = _order(deltas, errs)
        assert 1.8 <= slope <= 2.2, f"liouville/{name} order {slope}"
        assert errs[-1] < 1e-3, f"liouville/{name} max {errs[-1]}"
        lines.append(f"liouville/{name}: order {slope:.2f}, max {errs[-1]:.1e}")
    _report(4, "; ".join(lines))


def test_criterion_5_hill_round_trips():
    lines = []
    for rho in (const(0.0), const(-1.0), const(-1j), Z):
        rep = hill_round_trip(rho, n_samples=50)
        assert rep.statistics["max_rho_residual"] < 1e-6
        assert rep.statistics["wronskian_drift"] < 1e-10
        lines.append(f"rho={rho}: resid {rep.statistics['max_rho_residual']:.1e}, "
                     f"drift {rep.statistics['wronskian_drift']:.1e}")
    _report(5, "; ".join(lines))


def test_criterion_6_two_pipeline_equality_and_period():
    grid = RectDomain(-1, 1, 0, np.pi).grid(8, 8)
    worst = 0.0
    for m in (catenoid(), get_model("helicoid"), deformed_catenoid(0.5)):
        err = closed_form_vs_weierstrass(m, grid)
        assert err < 1e-6, m.name
        worst = max(worst, err)
    pv = period_vector(deformed_catenoid(0.5).data, [0.0, 2j * np.pi])
    per_err = float(np.abs(pv - np.array([0.0, -8 * np.pi / 3, 0.0])).max())
    assert per_err < 1e-6
    _report(6, f"closed form vs Weierstrass integral worst {worst:.2e}; "
               f"C_1/2 period error {per_err:.2e}")


def test_criterion_7_soliton_correspondence():
    grid = RectDomain.square(1.0).grid(201, 201)
    enn = enneper(half_width=1.5)
    rep = soliton_check(enn.data, grid)
    assert rep.passed
    assert rep.statistics["hessian_residual"] < 1e-3
    m_hat, _, _ = ecritical_metric(enn.data, grid)
    cigar_ratio = m_hat.lambda_sq * (1.0 + np.abs(grid.zs) ** 2) / 2.0
    cigar_err = float(np.abs(cigar_ratio - 1.0).max())
    assert cigar_err < 1e-9
    neg = soliton_check(catenoid().data, grid)
    assert not neg.passed
    _report(7, f"Enneper ghat soliton residual {rep.statistics['hessian_residual']:.1e}, "
               f"2x cigar factor error {cigar_err:.1e}; catenoid control fails "
               f"(residual {neg.statistics['hessian_residual']:.2f})")


def test_criterion_8_norm_scale_invariance():
    dom = RectDomain(-20, 20, 0, 2 * np.pi)
    cat = catenoid()
    base = weighted_entropy_norm(cat.data, dom, tol=1e-6)
    worst = 0.0
    for lam in (0.5, 2.0, 10.0):
        v = weighted_entropy_norm(cat.data.rescaled(lam), dom, tol=1e-6)
        rel = abs(v - base) / base
        assert rel < 1e-8, f"lambda={lam}"
        worst = max(worst, rel)
    _report(8, f"norm invariant under h -> lambda h, worst rel change {worst:.2e}")


def test_criterion_9_decay_diagnostic_substitutes():
    # The small-norm curvature estimate and the compactness statement are
    # not desk-reproducible (non-constructive eps, C); the machinery they
    # consume is: the norm (criteria 1, 8) plus this bounded-profile
    # diagnostic.
    cat = catenoid(x_half_width=2.0)
    mesh = sample_mesh(cat.data, (32, 32), domain=RectDomain(-2, 2, 0, 2 * np.pi))
    neck = np.unravel_index(np.argmin(np.abs(mesh.zs)), mesh.zs.shape)
    prof_c = curvature_decay_profile(mesh, center=mesh.positions[neck])
    assert max(v for _, v in prof_c) < 10.0

    enn = enneper(half_width=2.0)
    mesh_e = sample_mesh(enn.data, (32, 32), domain=RectDomain.square(2.0))
    mid = np.unravel_index(np.argmin(np.abs(mesh_e.zs)), mesh_e.zs.shape)
    prof_e = curvature_decay_profile(mesh_e, center=mesh_e.positions[mid])
    assert max(v for _, v in prof_e) < 50.0
    _report(9, f"decay profiles bounded: catenoid sup {max(v for _, v in prof_c):.2f}, "
               f"Enneper sup {max(v for _, v in prof_e):.2f} (estimate itself out of scope)")


def test_criterion_10_ht_period_resolution():
    lines = []
    for t in (0.2, 0.5):
        rep = ht_period_check(t)
        assert rep.passed  # exactly one candidate matched
        assert rep.statistics["matched"] == "parameterization"
        err = abs(rep.statistics["measured"] - rep.statistics["candidate_parameterization"])
        assert err < 1e-6
        lines.append(f"t={t}: measured {rep.statistics['measured']:.6f} matches "
                     f"2pi(1+t^2)/(1-t^2)")
    _report(10, "; ".join(lines))
