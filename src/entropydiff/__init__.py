"""entropydiff: entropy differentials of minimal surfaces.

Compute the meromorphic quadratic differential P = (rho/2) dz^2 of a
minimal surface from its Weierstrass data, reconstruct surfaces from a
prescribed rho through Hill's equation, and verify the identities the
theory predicts (Ricci condition, E-criticality, pole laws, model-family
characterizations, weighted norms, the Ricci-soliton correspondence).

Modules
-------
jets         expression trees and exact Taylor-jet arithmetic
geomnum      grids, conformal stencil operators, adaptive quadrature
weierstrass  metric, curvature, Hopf and entropy coefficients, norms
hill         Hill's equation, SL(2,C) actions, spinor reconstruction
surface      immersion integrals, periods, meshes, OBJ export
models       catalog: Enneper, catenoid, helicoid, deformed families
verify       identity checks producing JSON-serializable reports
cli          the ``entropydiff`` command-line tool
"""

from .errors import EntropyDiffError
from .geomnum import RectDomain, UniformGrid, ScalarField, ConformalMetricField, integrate2d
from .jets import AnalyticExpr, Jet, MAX_JET_ORDER, Z, const, eval_jet, exp, parse_expression
from .weierstrass import (
    MetricSample,
    WeierstrassData,
    entropy_coefficient,
    entropy_form_norms,
    hopf_coefficient,
    metric_sample,
    schwarzian,
)
from .hill import (
    HillSystem,
    PathSolution,
    apply_sl2,
    canonical_state_mu_nu,
    canonical_state_phi_alpha,
    integrate_hill,
    liouville_residual,
    ql_factor,
    reconstruct_weierstrass,
    solve_on_grid,
)
from .surface import SurfaceMesh, immersion_point, period_vector, sample_mesh, write_obj, write_sidecar
from .models import ModelSurface, get_model, MODEL_NAMES
from .verify import (
    Report,
    ConformalPowerMap,
    conformal_power,
    curvature_decay_profile,
    ecritical_residual,
    entropy_functional,
    hill_round_trip,
    ht_period_check,
    liouville_check,
    pole_probe,
    ricci_residual,
    soliton_check,
    weighted_entropy_norm,
)

__version__ = "0.1.0"
