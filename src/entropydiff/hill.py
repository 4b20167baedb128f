"""Hill's equation w'' + (rho/4) w = 0 and the inverse problem.

A :class:`HillSystem` is a fundamental pair (w1, w2) of holomorphic
solutions with Wronskian w1 w2' - w2 w1' = 1/2, represented by its state
matrix [[w1, w2], [w1', w2']] at a base point.  Integrating the system
along paths, acting by SL(2,C) (QL-factored into SU(2) x lower-triangular)
and translating the base realize all geometrically distinct solutions.

Integration runs on the jet engine: one jet of rho at a point gives the
Taylor coefficients of w by c_{k+2} = -(rho w)_k / (4 (k+1)(k+2)), and a
step sums that series to order 10, accepting it when its last two terms
are within tolerance and splitting it otherwise (Corliss & Chang, ACM TOMS
8, 1982; Jorba & Zou, Exp. Math. 14, 2005).  Paths take adaptive steps;
grids march with one step per cell and all rows in lockstep.

The minimal surface behind a system is recovered through the spinor
representation: G = w2/w1, h = -2 w1 w2, metric (|w1|^2+|w2|^2)^2.  Data
reconstructed this way always carries Hopf coefficient q = 2W = +1
(``HOPF_SIGN_CONVENTION``); the deformed-family catalog in
:mod:`entropydiff.models` uses the opposite orientation q = -1, which
differs only by h -> -h and leaves rho and all norms unchanged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotUnimodular, PoleOnPath, StepFailure
from .geomnum import ConformalMetricField, ScalarField, UniformGrid, interior_stats, laplacian_conformal
from .jets import AnalyticExpr, Jet, eval_jet, jet_div, jet_mul

__all__ = [
    "HOPF_SIGN_CONVENTION",
    "HillSystem",
    "PathSolution",
    "ReconstructedSample",
    "canonical_state_mu_nu",
    "canonical_state_phi_alpha",
    "integrate_hill",
    "rebase",
    "apply_sl2",
    "ql_factor",
    "reconstruct_weierstrass",
    "reconstructed_data_jets",
    "solve_on_grid",
    "liouville_residual",
    "LiouvilleResidual",
]

#: Hopf coefficient carried by all data reconstructed from Wronskian-1/2
#: systems (q = 2W).  Recorded rather than silently matched to the catalog
#: convention q = -1.
HOPF_SIGN_CONVENTION = +1

_WRONSKIAN_TOL = 1e-10


def _wronskian(state: np.ndarray):
    return state[..., 0, 0] * state[..., 1, 1] - state[..., 0, 1] * state[..., 1, 0]


@dataclass
class HillSystem:
    """Fundamental solution pair of w'' + (rho/4) w = 0 at a base point.

    ``state_at_base`` is [[w1, w2], [w1', w2']]; its determinant is the
    Wronskian and must equal 1/2.
    """

    rho: AnalyticExpr
    base: complex
    state_at_base: np.ndarray

    def __post_init__(self):
        self.base = complex(self.base)
        self.state_at_base = np.asarray(self.state_at_base, dtype=np.complex128)
        if self.state_at_base.shape != (2, 2):
            raise ValueError("state must be a 2x2 matrix [[w1,w2],[w1',w2']]")
        with np.errstate(all="ignore"):  # a non-finite state gives NaN, which fails
            w = complex(_wronskian(self.state_at_base))
        if not abs(w - 0.5) <= _WRONSKIAN_TOL:
            raise ValueError(f"Wronskian must be 1/2, got {w}")


def canonical_state_mu_nu(mu: float = 1.0, nu: complex = 0j, base: complex = 0j) -> np.ndarray:
    """State of the pair (w1, w2) = (mu, nu + z/(2 mu)) at ``base``.

    Exact solution family for rho = 0 (Enneper case); for general rho it
    still provides a valid Wronskian-1/2 initial state.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    return np.array([[mu, nu + base / (2 * mu)], [0.0, 1.0 / (2 * mu)]], dtype=np.complex128)


def canonical_state_phi_alpha(phi: float, alpha: complex, base: complex = 0j) -> np.ndarray:
    """State of the exponential normal-form pair for rho = -alpha^2.

        w1 = (cos(phi) e^{-alpha z/2} - sin(phi) e^{alpha z/2}) / N
        w2 = (sin(phi) e^{-alpha z/2} - cos(phi) e^{alpha z/2}) / N

    N = sqrt(-2 alpha cos(2 phi)) normalizes the Wronskian to exactly 1/2
    (the bare pair has Wronskian -alpha cos(2 phi)).
    """
    if not -math.pi / 4 < phi < math.pi / 4:
        raise ValueError("phi must lie in (-pi/4, pi/4)")
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero (use canonical_state_mu_nu for rho = 0)")
    c, s = math.cos(phi), math.sin(phi)
    norm = cmath.sqrt(-2.0 * alpha * math.cos(2 * phi))
    em = cmath.exp(-alpha * base / 2)
    ep = cmath.exp(alpha * base / 2)
    w1 = (c * em - s * ep) / norm
    w2 = (s * em - c * ep) / norm
    w1p = (-alpha / 2 * c * em - alpha / 2 * s * ep) / norm
    w2p = (-alpha / 2 * s * em - alpha / 2 * c * ep) / norm
    return np.array([[w1, w2], [w1p, w2p]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# Taylor steps on the jet engine
# ---------------------------------------------------------------------------

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
_MAX_STEPS_PER_SEGMENT = 200_000

# Order N of a Taylor step: rho's jet to order N - 2 = MAX_JET_ORDER fixes
# the coefficients c_0 .. c_N of w.
_ORDER = 10
_POWERS = np.arange(_ORDER + 1)
# c_j c_l s^(j+l) integrates over [0, h] to c_j c_l h^(j+l+1) / (j+l+1)
_SPANS = _POWERS[:, None] + _POWERS[None, :] + 1


def _hill_series(r, w, wp, order: int) -> np.ndarray:
    """Taylor coefficients c_0 .. c_order of the solutions of
    w'' + (rho/4) w = 0 with values ``w`` and derivatives ``wp``.

    The equation gives c_{k+2} = -(rho w)_k / (4 (k+1)(k+2)) from rho's
    Taylor coefficients ``r`` (at least order - 1 of them).  The leading
    axis of ``w`` counts the solutions; ``r`` broadcasts over it.
    """
    r = np.asarray(r)[:, None]
    c = np.empty((order + 1,) + np.broadcast_shapes(np.shape(w), r.shape[1:]), dtype=np.complex128)
    c[0], c[1] = w, wp
    for k in range(order - 1):
        c[k + 2] = -(r[: k + 1] * c[k::-1]).sum(axis=0) / (4.0 * (k + 1) * (k + 2))
    return c


def _position_increments(c: np.ndarray, h: complex) -> np.ndarray:
    """Integrals over one step h of w2^2 - w1^2, -i (w1^2 + w2^2) and
    -2 w1 w2, term by term from the Taylor coefficients ``c`` of (w1, w2)."""
    m = np.tensordot(h**_SPANS / _SPANS, c, axes=1)
    s11, s22, s12 = ((c[:, a] * m[:, b]).sum(axis=0) for a, b in ((0, 0), (1, 1), (0, 1)))
    return np.stack([s22 - s11, -1j * (s11 + s22), -2.0 * s12])


def _advance(rho: AnalyticExpr, z0, dz: complex, y: np.ndarray, observer=None) -> np.ndarray:
    """Carry states from the points ``z0`` to ``z0 + dz`` by Taylor steps.

    ``y`` has one column per point and the rows (w1, w2, w1', w2'),
    optionally followed by the position integrals of w2^2 - w1^2,
    -i (w1^2 + w2^2) and -2 w1 w2.  All columns share each step h: one jet
    of rho at every point gives the series of w, summed for w and w' and
    integrated term by term for the positions.  A step is accepted when the
    last two terms of each series of w and of w' are within DEFAULT_ATOL +
    DEFAULT_RTOL max(|old value|, |new value|), and split otherwise (w alone
    would leave w' off by ~N times that tail near a singularity of rho).
    ``observer(z, y)`` fires at every accepted step.
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    y = np.array(y, dtype=np.complex128)
    if dz == 0:
        return y
    s, frac = 0.0, 1.0
    for _ in range(_MAX_STEPS_PER_SEGMENT):
        last = frac >= 1.0 - s
        frac = min(frac, 1.0 - s)
        if frac < 1e-14:
            raise StepFailure("step size underflow in Hill integration")
        z = z0 + s * dz
        r = eval_jet(rho, z, _ORDER - 2).coeffs
        if not np.all(np.isfinite(r)):
            raise PoleOnPath(f"rho is not finite at z = {z[~np.isfinite(r).all(axis=0)][0]}")
        h = frac * dz
        c = _hill_series(r, y[:2], y[2:4], _ORDER)
        hk = h**_POWERS
        weights = np.stack([hk, _POWERS * np.concatenate([[0.0], hk[:-1]])])  # of c_k in w and in w'
        with np.errstate(all="ignore"):
            new = np.tensordot(weights, c, axes=1).reshape(4, -1)
            tail = np.abs(weights[:, -2:, None, None] * c[-2:]).sum(axis=1).reshape(4, -1)
            err = float(np.max(tail / (DEFAULT_ATOL + DEFAULT_RTOL * np.maximum(np.abs(y[:4]), np.abs(new)))))
        if err <= 1.0:
            y = np.concatenate([new] + ([y[4:] + _position_increments(c, h)] if len(y) > 4 else []))
            s = 1.0 if last else s + frac
            if observer is not None:
                observer(z0 + s * dz, y)
            if last:
                return y
        # Jorba & Zou: the tail of w' scales like h^(N-2); overflow (NaN) splits most
        ratio = 0.9 * max(err, 1e-30) ** (-1.0 / (_ORDER - 2)) if err <= 1e300 else 0.0
        frac *= min(5.0, ratio) if err <= 1.0 else min(0.5, max(0.1, ratio))
    raise StepFailure("too many steps in Hill integration segment")


@dataclass
class PathSolution:
    """Hill solutions along a polyline: accepted-step samples and drift."""

    rho: AnalyticExpr
    path: list
    samples: list = field(default_factory=list)  # (z, w1, w2, w1', w2')
    wronskian_drift: float = 0.0

    @property
    def end_state(self) -> np.ndarray:
        z, w1, w2, w1p, w2p = self.samples[-1]
        return np.array([[w1, w2], [w1p, w2p]], dtype=np.complex128)

    def states_at(self, points):
        """State matrices at the requested sample points (must have been
        recorded, e.g. as path vertices)."""
        out = []
        for p in points:
            hits = [s for s in self.samples if abs(s[0] - p) <= 1e-12 * max(1.0, abs(p))]
            if not hits:
                raise ValueError(f"no recorded sample at {p}")
            z, w1, w2, w1p, w2p = hits[-1]
            out.append(np.array([[w1, w2], [w1p, w2p]], dtype=np.complex128))
        return out


def integrate_hill(sys: HillSystem, path) -> PathSolution:
    """Integrate the fundamental pair along a polyline starting at the base.

    Every accepted Taylor step is recorded as a sample.  The Wronskian (a
    first integral) is monitored there; the maximum deviation from 1/2 is
    reported as ``wronskian_drift``.
    """
    path = [complex(p) for p in path]
    if abs(path[0] - sys.base) > 1e-12 * max(1.0, abs(sys.base)):
        raise ValueError("path must start at the system base point")
    sol = PathSolution(rho=sys.rho, path=path)

    def observe(z, y):
        w1, w2, w1p, w2p = (complex(v) for v in y[:, 0])
        sol.wronskian_drift = max(sol.wronskian_drift, abs(w1 * w2p - w2 * w1p - 0.5))
        sol.samples.append((complex(z[0]), w1, w2, w1p, w2p))

    y = sys.state_at_base.reshape(4, 1)
    observe([sys.base], y)
    for a, b in zip(path[:-1], path[1:]):
        probe = sys.rho.eval(np.linspace(0.0, 1.0, 33) * (b - a) + a)
        if not np.all(np.isfinite(probe)):
            raise PoleOnPath(f"rho has a pole on the segment {a} -> {b}")
        y = _advance(sys.rho, [a], b - a, y, observe)
    return sol


def rebase(sys: HillSystem, z: complex) -> HillSystem:
    """The same global solution pair presented at a new base point
    (integrates along the straight segment base -> z)."""
    sol = integrate_hill(sys, [sys.base, complex(z)])
    return HillSystem(sys.rho, complex(z), sol.end_state)


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------

def _check_unimodular(B: np.ndarray) -> np.ndarray:
    B = np.asarray(B, dtype=np.complex128)
    if B.shape != (2, 2):
        raise NotUnimodular("expected a 2x2 matrix")
    det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    if abs(det - 1.0) > 1e-12:
        raise NotUnimodular(f"determinant {det} != 1")
    return B


def apply_sl2(B, sys: HillSystem) -> HillSystem:
    """Act by B in SL(2,C): (w1, w2) -> B (w1, w2)^T, same for derivatives.

    The state matrix has solutions in columns, so the new state is S B^T;
    the Wronskian is preserved exactly (det B = 1).
    """
    B = _check_unimodular(B)
    return HillSystem(sys.rho, sys.base, sys.state_at_base @ B.T)


def ql_factor(B):
    """Unique factorization B = U L with U in SU(2) and L lower triangular
    with positive real diagonal and det 1 (Gram-Schmidt on columns)."""
    B = _check_unimodular(B)
    b1, b2 = B[:, 0], B[:, 1]
    mu = 1.0 / float(np.linalg.norm(b2))
    u2 = mu * b2
    nu = complex(np.vdot(u2, b1))
    u1 = (b1 - nu * u2) / mu
    U = np.column_stack([u1, u2])
    L = np.array([[mu, 0.0], [nu, 1.0 / mu]], dtype=np.complex128)
    return U, L


# ---------------------------------------------------------------------------
# Spinor reconstruction
# ---------------------------------------------------------------------------

@dataclass
class ReconstructedSample:
    """Weierstrass data recovered at one path sample.

    G is None where w1 vanishes (Gauss map pole); h and the metric are
    still reported there.  All reconstructed data carries Hopf coefficient
    q = +1 (see HOPF_SIGN_CONVENTION).
    """

    z: complex
    G: complex | None
    h: complex
    lambda_sq: float
    u: float
    gauss_pole: bool = False


_SPINOR_TOL = 1e-13


def reconstruct_weierstrass(sol: PathSolution) -> list[ReconstructedSample]:
    """G = w2/w1 and h = -2 w1 w2 at every recorded sample, with the
    induced metric factor lambda^2 = (|w1|^2 + |w2|^2)^2; a vanishing
    spinor (w1 = 0) is a flagged sample."""
    out = []
    for z, w1, w2, _, _ in sol.samples:
        scale = max(abs(w1), abs(w2), 1e-300)
        pole = abs(w1) <= _SPINOR_TOL * scale
        norm_sq = abs(w1) ** 2 + abs(w2) ** 2
        out.append(
            ReconstructedSample(
                z=z,
                G=None if pole else w2 / w1,
                h=-2.0 * w1 * w2,
                lambda_sq=norm_sq**2,
                u=math.log(norm_sq),
                gauss_pole=pole,
            )
        )
    return out


def reconstructed_data_jets(state: np.ndarray, rho: AnalyticExpr, z: complex, order: int = 4):
    """Jets of the reconstructed (G, h) at a point from the state there.

    Higher Taylor coefficients of w1, w2 follow from the equation itself
    (the recurrence of :func:`_hill_series`).  Returns (jet of G to order 3,
    jet of h to order 2) ready for the entropy-coefficient formula.
    """
    state = np.asarray(state, dtype=np.complex128)
    c = _hill_series(eval_jet(rho, complex(z), order - 2).coeffs, state[0], state[1], order)
    jw1, jw2 = Jet(complex(z), c[:, 0]), Jet(complex(z), c[:, 1])
    jG = jet_div(jw2, jw1)
    jh = -2.0 * jet_mul(jw1, jw2)
    return jG.truncated(3), jh.truncated(2)


# ---------------------------------------------------------------------------
# Grid solving and the Liouville residual
# ---------------------------------------------------------------------------

def solve_on_grid(sys: HillSystem, grid: UniformGrid, with_positions: bool = False):
    """Fundamental pair (and optional Weierstrass position integrals) on a
    full grid by Taylor steps: to the grid corner, up the left edge, then
    along x with all rows in lockstep (one jet of rho per column and step).

    Returns a dict of (ny, nx) complex arrays: w1, w2, w1p, w2p and, with
    positions, x1, x2, x3 (real parts of the spinor Weierstrass integrals,
    anchored at the grid corner), plus the max Wronskian drift observed.
    """
    ny, nx = grid.ny, grid.nx
    x0 = grid.xs[0]
    # rows (w1, w2, w1', w2'[, I1, I2, I3]); the integrals start at 0 at the corner
    y = np.zeros((7 if with_positions else 4, 1), dtype=np.complex128)
    y[:4] = _advance(sys.rho, [sys.base], x0 + 1j * grid.ys[0] - sys.base, sys.state_at_base.reshape(4, 1))
    fields = np.empty((len(y), ny, nx), dtype=np.complex128)
    fields[:, 0, 0] = y[:, 0]
    for j in range(1, ny):
        y = _advance(sys.rho, [x0 + 1j * grid.ys[j - 1]], 1j * (grid.ys[j] - grid.ys[j - 1]), y)
        fields[:, j, 0] = y[:, 0]
    y = fields[:, :, 0]
    drift = 0.0
    for i in range(1, nx):
        y = _advance(sys.rho, grid.xs[i - 1] + 1j * grid.ys, grid.xs[i] - grid.xs[i - 1], y)
        fields[:, :, i] = y
        drift = max(drift, float(np.max(np.abs(y[0] * y[3] - y[1] * y[2] - 0.5))))

    out = {"w1": fields[0], "w2": fields[1], "w1p": fields[2], "w2p": fields[3], "wronskian_drift": drift}
    if with_positions:
        out["x1"], out["x2"], out["x3"] = np.real(fields[4:])
    return out


@dataclass
class LiouvilleResidual:
    field: ScalarField
    max_residual: float
    mean_residual: float


def liouville_residual(u: ScalarField) -> LiouvilleResidual:
    """Residual of Liouville's equation 4 d^2_{z zbar} u = e^{-2u} on a grid.

    The mixed derivative is (uxx + uyy)/4 by 5-point stencils, so the
    residual is |flat Laplacian of u - e^{-2u}|; statistics exclude the
    2-node boundary ring.  Expected O(delta^2) on exact solutions.
    """
    grid = u.grid
    lap = laplacian_conformal(u, ConformalMetricField(grid, np.ones(grid.shape)))
    resid = np.abs(lap.values - np.exp(-2.0 * u.values))
    mx, mean = interior_stats(resid, grid)
    return LiouvilleResidual(ScalarField(grid, resid), mx, mean)
