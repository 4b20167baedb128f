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
8, 1982; Jorba & Zou, Exp. Math. 14, 2005).  Paths and grids march by
one rule: a run of steps along a straight line, each as long as the tail
test allows, with the nodes inside a step read from its series (dense
output; Hairer, Norsett & Wanner, Solving ODEs I, II.6).  A path takes one
run per straight stretch, its vertices the nodes; a grid takes three, the
last with all rows in lockstep.

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
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoint, NotUnimodular, PoleOnPath, StepFailure
from .geomnum import ConformalMetricField, ScalarField, UniformGrid, interior_stats, laplacian_conformal
from .jets import AnalyticExpr, eval_jet, jet_div
from .weierstrass import metric_from, taylor_schwarzian, weierstrass_forms

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
    "reconstructed_rho",
    "solve_on_grid",
    "spinor_metric",
    "liouville_residual",
    "LiouvilleResidual",
]

#: Hopf coefficient carried by all data reconstructed from Wronskian-1/2
#: systems (q = 2W).  Recorded rather than silently matched to the catalog
#: convention q = -1.
HOPF_SIGN_CONVENTION = +1

_WRONSKIAN_TOL = 1e-10


def _wronskian(w1, w2, w1p, w2p):
    return w1 * w2p - w2 * w1p


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
            w = complex(_wronskian(*self.state_at_base.reshape(4)))
        if not abs(w - 0.5) <= _WRONSKIAN_TOL:
            raise ValueError(f"Wronskian must be 1/2, got {w}")
        try:
            spinor_metric(*self.state_at_base[0], self.base)
        except DegeneratePoint as exc:
            raise ValueError(f"the state is refused: {exc}") from None


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


def _position_increments(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Integrals over [0, t] of the Weierstrass 1-forms of the pair (h/G,
    hG and h are -2 w1^2, -2 w2^2 and -2 w1 w2), shape (3, T, columns) for
    the T offsets ``t``: term by term from the Taylor coefficients ``c``."""
    m = np.tensordot(t[:, None, None] ** _SPANS / _SPANS, c, axes=1)
    s11, s22, s12 = ((c[:, a] * m[:, :, b]).sum(axis=1) for a, b in ((0, 0), (1, 1), (0, 1)))
    return weierstrass_forms(-2.0 * s11, -2.0 * s22, -2.0 * s12)


def _weights(t) -> np.ndarray:
    """Weights of the Taylor coefficients c_0 .. c_N in w and in w' at the
    offsets ``t``: shape (2,) + shape(t) + (N + 1,)."""
    tk = np.asarray(t)[..., None] ** _POWERS
    return np.stack([tk, _POWERS * np.concatenate([np.zeros_like(tk[..., :1]), tk[..., :-1]], axis=-1)])


def _advance(rho: AnalyticExpr, z0, dz: complex, y: np.ndarray, nodes=(), out=None):
    """Carry states from the points ``z0`` to ``z0 + dz`` by Taylor steps.

    ``y`` has one column per point and the rows (w1, w2, w1', w2'),
    optionally followed by the integrals of the pair's Weierstrass 1-forms
    (positions).  All columns share each step h: one jet of rho at every
    point gives the series of w, summed for w and w' and integrated term by
    term for the positions.  A step is accepted when the
    last two terms of each series of w and of w' are within DEFAULT_ATOL +
    DEFAULT_RTOL max(|old value|, |new value|), and split otherwise (w alone
    would leave w' off by ~N times that tail near a singularity of rho).

    Dense output: ``nodes`` are sorted offsets from ``z0`` in [0, dz], and
    each accepted step sums its series (and their integrals, for positions)
    at the nodes that fall inside it, writing the states at ``z0 + nodes[k]``
    to ``out[:, k]``; for dz = 0 every node gets ``y``.  Returns the states
    at ``z0 + dz`` and the numbers of accepted and rejected steps.
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    y = np.array(y, dtype=np.complex128)
    nodes = np.asarray(nodes, dtype=np.complex128)
    if dz == 0:
        if len(nodes):
            out[...] = y[:, None]
        return y, 0, 0
    at = (nodes / dz).real  # the nodes as fractions of dz
    s, frac, k, steps = 0.0, 1.0, 0, 0
    for attempt in range(_MAX_STEPS_PER_SEGMENT):
        last = frac >= 1.0 - s
        frac = min(frac, 1.0 - s)
        if frac < 1e-14:
            raise StepFailure("step size underflow in Hill integration")
        z = z0 + s * dz
        r = eval_jet(rho, z, _ORDER - 2)
        if not np.all(np.isfinite(r)):
            raise PoleOnPath(f"rho is not finite at z = {z[~np.isfinite(r).all(axis=0)][0]}")
        h = frac * dz
        # an overflow gives inf or NaN silently: the tail test splits the step, and the readers of the pair refuse it
        with np.errstate(all="ignore"):
            c = _hill_series(r, y[:2], y[2:4], _ORDER)
            weights = _weights(h)  # of c_k in w and in w'
            new = np.tensordot(weights, c, axes=1).reshape(4, -1)
            tail = np.abs(weights[:, -2:, None, None] * c[-2:]).sum(axis=1).reshape(4, -1)
            err = float(np.max(tail / (DEFAULT_ATOL + DEFAULT_RTOL * np.maximum(np.abs(y[:4]), np.abs(new)))))
            if err <= 1.0:
                end = len(at) if last else int(np.searchsorted(at, s + frac))  # the nodes before the step's end
                t = nodes[k:end] - s * dz
                if len(y) > 4:  # the positions at the step's nodes and at its end, in one evaluation
                    x = y[4:, None] + _position_increments(c, np.append(t, h))
                    new = np.concatenate([new, x[:, -1]])
                if end > k:
                    out[:4, k:end] = np.moveaxis(np.tensordot(_weights(t), c, axes=1), 1, 2).reshape(4, len(t), -1)
                    if len(y) > 4:
                        out[4:, k:end] = x[:, :-1]
                    k = end
        if err <= 1.0:
            y = new
            steps += 1
            s = 1.0 if last else s + frac
            if last:
                return y, steps, attempt + 1 - steps
        # Jorba & Zou: the tail of w' scales like h^(N-2); overflow (NaN) splits most
        ratio = 0.9 * max(err, 1e-30) ** (-1.0 / (_ORDER - 2)) if err <= 1e300 else 0.0
        frac *= min(5.0, ratio) if err <= 1.0 else min(0.5, max(0.1, ratio))
    raise StepFailure("too many steps in Hill integration segment")


@dataclass
class PathSolution:
    """Hill states at the vertices of a polyline, the largest deviation of
    the Wronskian from 1/2 over them, and the numbers of Taylor steps."""

    path: list
    states: np.ndarray  # (n, 2, 2): [[w1, w2], [w1', w2']] at path[k]
    wronskian_drift: float
    steps: int
    rejected: int

    @property
    def end_state(self) -> np.ndarray:
        return self.states[-1]


def integrate_hill(sys: HillSystem, path) -> PathSolution:
    """Integrate the fundamental pair along a polyline starting at the base.

    One jet call probes every segment at 33 points first; a pole of rho
    there raises PoleOnPath naming the first such segment.  The polyline is
    then marched in maximal straight runs, segments that go on in the same
    direction (a zero-length segment goes on; a vertex that doubles back
    starts a new run), by one run of Taylor steps each that reads the run's
    vertices by dense output.  The Wronskian (a first integral) is checked
    at every vertex; the largest deviation from 1/2 is ``wronskian_drift``.
    """
    path = [complex(p) for p in path]
    if abs(path[0] - sys.base) > 1e-12 * max(1.0, abs(sys.base)):
        raise ValueError("path must start at the system base point")
    za, zb = (np.array(ends, dtype=np.complex128) for ends in (path[:-1], path[1:]))
    probe = za[:, None] + (zb - za)[:, None] * np.linspace(0.0, 1.0, 33)
    ok = np.isfinite(eval_jet(sys.rho, probe, 0)[0]).all(axis=1)
    if not ok.all():
        k = int(np.argmin(ok))
        raise PoleOnPath(f"rho has a pole on the segment {path[k]} -> {path[k + 1]}")
    states = np.empty((len(path), 4), dtype=np.complex128)  # rows (w1, w2, w1', w2') at each vertex
    states[0] = sys.state_at_base.reshape(4)
    i = steps = rejected = 0
    while i < len(path) - 1:
        a, j = path[i], i + 1
        while j < len(path) - 1:  # the run goes on while the next segment is zero or along it, to rounding
            p = (path[j + 1] - path[j]) * (path[j] - a).conjugate()
            if not abs(p.imag) <= 1e-12 * p.real:
                break
            j += 1
        _, accepted, split = _advance(sys.rho, [a], path[j] - a, states[i, :, None], nodes=zb[i:j] - a,
                                      out=states[i + 1 : j + 1].T[:, :, None])
        i, steps, rejected = j, steps + accepted, rejected + split
    with np.errstate(all="ignore"):  # an overflowed pair, which its readers refuse
        drift = float(np.max(np.abs(_wronskian(*states.T) - 0.5)))
    return PathSolution(path, states.reshape(-1, 2, 2), drift, steps, rejected)


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

    G is None at a Gauss-map pole (see :func:`spinor_metric`); h and the
    metric are still reported there.  All reconstructed data carries Hopf coefficient
    q = +1 (see HOPF_SIGN_CONVENTION).
    """

    z: complex
    G: complex | None
    h: complex
    lambda_sq: float
    u: float
    gauss_pole: bool = False


_SPINOR_TOL = 1e-13


def spinor_metric(w1, w2, z):
    """The one rule by which a surface is read from spinor pairs (w1, w2)
    at the points ``z``, over arrays: returns the metric of ``metric_from``
    for h/G = -2 w1^2, hG = -2 w2^2 and q = 2W = 1, and the mask of
    Gauss-map poles, |w1| <= _SPINOR_TOL max(|w1|, |w2|), where G = w2/w1 is
    infinite.  A metric factor lambda^2 = (|w1|^2 + |w2|^2)^2 that is not a
    positive finite float raises DegeneratePoint."""
    a1, a2 = np.abs(w1), np.abs(w2)
    with np.errstate(all="ignore"):  # an overflow gives inf, which fails
        metric = metric_from(2.0 * a1 * a1, 2.0 * a2 * a2, 1.0)  # it reads only |h/G| and |hG|
    bad = ~((metric["lambda_sq"] > 0.0) & (metric["lambda_sq"] < np.inf))
    if bad.any():
        z = np.asarray(z)[bad][0]
        raise DegeneratePoint(f"the metric factor (|w1|^2 + |w2|^2)^2 at z = {z} is not a positive finite float")
    return metric, a1 <= _SPINOR_TOL * np.maximum(a1, a2)


def reconstruct_weierstrass(sol: PathSolution) -> list[ReconstructedSample]:
    """G = w2/w1 and h = -2 w1 w2 at every vertex of the path, with lambda^2
    and u = log(|w1|^2 + |w2|^2) of the metric :func:`spinor_metric` reads;
    a Gauss-map pole is a flagged sample, and a metric factor that is not a
    positive finite float raises DegeneratePoint."""
    w1, w2 = sol.states[:, 0].T
    metric, pole = spinor_metric(w1, w2, sol.path)
    return [
        ReconstructedSample(zk, None if pk else w2k / w1k, -2.0 * w1k * w2k, float(lk), float(uk), bool(pk))
        for zk, w1k, w2k, lk, uk, pk in zip(sol.path, w1.tolist(), w2.tolist(), metric["lambda_sq"], metric["u"], pole)
    ]


def reconstructed_rho(states, rho: AnalyticExpr, z) -> np.ndarray:
    """rho recovered from the states [[w1, w2], [w1', w2']] (shape (n, 2, 2))
    at the n points ``z`` as

        rho = 2 {R, z},

    the Schwarzian form of the entropy coefficient wherever the Hopf
    coefficient is constant, as q = 2W = 1 is for every Hill pair.  R is
    w2/w1 = G or w1/w2 = 1/G ({1/G, z} = {G, z}), whichever has the larger
    denominator, with its jet from those of the spinors.  So rho is regular
    wherever the pair is, at a zero of w1 (a Gauss-map pole) or of w2
    (G = 0) too.
    """
    z = np.asarray(z, dtype=np.complex128)
    states = np.asarray(states, dtype=np.complex128)
    c = _hill_series(eval_jet(rho, z, 1), states[:, 0].T, states[:, 1].T, 3)
    swap = np.abs(c[0, 0]) < np.abs(c[0, 1])
    R = jet_div(np.where(swap, c[:, 0], c[:, 1]), np.where(swap, c[:, 1], c[:, 0]))
    return 2.0 * taylor_schwarzian(R)


# ---------------------------------------------------------------------------
# Grid solving and the Liouville residual
# ---------------------------------------------------------------------------

def solve_on_grid(sys: HillSystem, grid: UniformGrid, with_positions: bool = False):
    """Fundamental pair (and optional Weierstrass position integrals) on a
    full grid by three runs of Taylor steps: to the grid corner, up the left
    column, then along x with all rows in lockstep (one jet of rho per row
    and step).  Steps are as long as the tail test allows, spanning many
    cells; the nodes inside a step come from its series (dense output).

    Returns a dict of (ny, nx) complex arrays: w1, w2, w1p, w2p and, with
    positions, x1, x2, x3 (real parts of the spinor Weierstrass integrals,
    anchored at the grid corner), plus the max Wronskian drift over the
    grid and the numbers of accepted and rejected steps.
    """
    xs, ys = grid.xs, grid.ys
    corner = xs[0] + 1j * ys[0]
    # rows (w1, w2, w1', w2'[, I1, I2, I3]); the integrals start at 0 at the corner
    fields = np.zeros((7 if with_positions else 4, grid.ny, grid.nx), dtype=np.complex128)
    y, steps, rejected = _advance(sys.rho, [sys.base], corner - sys.base, sys.state_at_base.reshape(4, 1))
    fields[:4, 0, 0] = y[:, 0]
    # up the left column, then all rows in lockstep along x; out[:, k] is the state at node k
    column = _advance(sys.rho, [corner], 1j * (ys[-1] - ys[0]), fields[:, 0, :1], nodes=1j * (ys[1:] - ys[0]),
                      out=fields[:, 1:, :1])
    rows = _advance(sys.rho, xs[0] + 1j * ys, xs[-1] - xs[0], fields[:, :, 0], nodes=xs[1:] - xs[0],
                    out=np.moveaxis(fields[:, :, 1:], 2, 1))
    steps += column[1] + rows[1]
    rejected += column[2] + rows[2]
    with np.errstate(all="ignore"):  # an overflowed pair, which its readers refuse
        drift = float(np.max(np.abs(_wronskian(*fields[:4]) - 0.5)))

    out = {"w1": fields[0], "w2": fields[1], "w1p": fields[2], "w2p": fields[3], "wronskian_drift": drift,
           "steps": steps, "rejected": rejected}
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
