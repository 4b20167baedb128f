#!/usr/bin/env python3
"""Residual checks of the structural identities, with convergence tables.

Ricci condition      Delta_g log|K| = 4K          (minimal-surface metrics)
E-criticality        Delta_ghat log K_ghat = -2 K_ghat,  ghat = |K|^(3/4) g
Liouville equation   4 d^2_{z zbar} u = e^(-2u)   (u from Hill solutions)
Soliton condition    trace-free Hessian of log K_ghat = 0 (Enneper only)

Each stencil residual decays at second order; a synthetic non-minimal
metric and the catenoid's ghat serve as negative controls.  A check passes
when its observed order, from the grid of every other node to its own, is
at least 1.5.
"""

import numpy as np

from entropydiff import (
    HillSystem,
    canonical_state_mu_nu,
    canonical_state_phi_alpha,
    const,
    ecritical_residual,
    liouville_residual,
    ricci_residual,
    soliton_check,
    solve_on_grid,
)
from entropydiff.geomnum import ConformalMetricField, RectDomain, ScalarField
from entropydiff.models import catenoid, enneper, helicoid
from entropydiff.verify import gauss_curvature_of_conformal, ricci_residual_fields

DELTAS = (0.04, 0.02, 0.01)


def order(errs):
    return np.polyfit(np.log(DELTAS), np.log(errs), 1)[0]


print("== Ricci and E-critical residuals (max over interior nodes) ==")
patches = [
    ("catenoid", catenoid().data, RectDomain.square(1.0)),
    ("helicoid", helicoid().data, RectDomain.square(1.0)),
    ("enneper", enneper(half_width=4.0).data, RectDomain(1.0, 3.0, -1.0, 1.0)),
]
for name, data, patch in patches:
    for check, fn in (("ricci", ricci_residual), ("ecritical", ecritical_residual)):
        errs = []
        for d in DELTAS:
            n = int(round((patch.x1 - patch.x0) / d)) + 1
            errs.append(fn(data, patch.grid(n, n)).statistics["max_residual"])
        table = "  ".join(f"{d}: {e:.2e}" for d, e in zip(DELTAS, errs))
        print(f"  {name:<9} {check:<10} {table}   order {order(errs):.2f}")

print("\n== Liouville residual for Hill-system conformal factors ==")
systems = [
    ("rho=0", HillSystem(const(0.0), 0.0, canonical_state_mu_nu(1.0))),
    ("rho=-1", HillSystem(const(-1.0), 0.0, canonical_state_phi_alpha(0.0, 1.0))),
    ("rho=-i", HillSystem(const(-1j), 0.0, canonical_state_phi_alpha(0.0, np.sqrt(1j)))),
]
for name, sys_ in systems:
    errs = []
    for d in DELTAS:
        n = int(round(2.0 / d)) + 1
        grid = RectDomain.square(1.0).grid(n, n)
        f = solve_on_grid(sys_, grid)
        u = np.log(np.abs(f["w1"]) ** 2 + np.abs(f["w2"]) ** 2)
        errs.append(liouville_residual(ScalarField(grid, u)).max_residual)
    table = "  ".join(f"{d}: {e:.2e}" for d, e in zip(DELTAS, errs))
    print(f"  {name:<8} {table}   order {order(errs):.2f}")

print("\n== negative control: a non-minimal synthetic metric fails Ricci ==")
grid = RectDomain.square(1.0).grid(101, 101)
m = ConformalMetricField(grid, 1.0 + np.real(grid.zs) ** 2)
rep = ricci_residual_fields(m, gauss_curvature_of_conformal(m).values)
print(f"  lambda^2 = 1 + x^2: max residual {rep.statistics['max_residual']:.2f}, "
      f"observed order {rep.statistics['observed_order']:.2f} (passes at >= {rep.tolerance}) -> pass = {rep.passed}")

print("\n== the soliton dichotomy (appendix correspondence) ==")
grid = RectDomain.square(1.0).grid(101, 101)
enn = soliton_check(enneper(half_width=1.5).data, grid)
cat = soliton_check(catenoid().data, grid)
print(f"  Enneper ghat: Hessian residual {enn.statistics['hessian_residual']:.2e}, "
      f"fitted lambda {enn.statistics['fitted_lambda']:+.2e} (steady), "
      f"observed order {enn.statistics['observed_order']:.2f} -> pass = {enn.passed}")
print(f"  catenoid ghat: Hessian residual {cat.statistics['hessian_residual']:.2f}, "
      f"observed order {cat.statistics['observed_order']:.2f} "
      f"-> pass = {cat.passed} (only Enneper's metric maps to a gradient soliton)")
