"""Catalog of the model surfaces: Enneper's family, the catenoid and
helicoid, and the deformed families C_t and H_t.

Each entry bundles Weierstrass data, the closed-form parameterization
printed for it, and the relation its entropy differential satisfies
(P = 0, P = Q/2, or P = iQ/2).  The deformed families arise from the
catenoid/helicoid by the Moebius maps B_t(w) = (t + w)/(1 - t w) acting on
the Gauss map; their data is

    G_t = (t - e^z)/(1 - t e^z),
    h_t = (1 - t e^-z)(1 - t e^z)/(1 - t^2)     (times -i for H_t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .geomnum import RectDomain
from .jets import Z, const, exp
from .surface import immersion_point
from .weierstrass import WeierstrassData, fields_of

__all__ = [
    "FamilyRelation",
    "ModelSurface",
    "enneper",
    "catenoid",
    "helicoid",
    "deformed_catenoid",
    "deformed_helicoid",
    "get_model",
    "MODEL_NAMES",
    "closed_form_point",
    "family_relation_residual",
    "closed_form_vs_weierstrass",
]


class FamilyRelation(Enum):
    """Relation between the entropy and Hopf differentials for a family."""

    P_ZERO = "P=0"
    P_EQ_HALF_Q = "P=Q/2"
    P_EQ_IHALF_Q = "P=iQ/2"

    @property
    def coefficient(self) -> complex:
        return {"P=0": 0j, "P=Q/2": 0.5 + 0j, "P=iQ/2": 0.5j}[self.value]


@dataclass
class ModelSurface:
    name: str
    parameter: float | None
    data: WeierstrassData
    closed_form: Callable[[float, float], np.ndarray]
    expected_relation: FamilyRelation


def _deformed_pair(t: float):
    et, emt = exp(Z), exp(-Z)
    G = (const(t) - et) / (const(1.0) - const(t) * et)
    h_cat = (const(1.0) - const(t) * emt) * (const(1.0) - const(t) * et) / const(1.0 - t * t)
    return G, h_cat


def _check_t(t: float):
    if not -1.0 < t < 1.0:
        raise ValueError("t must lie in (-1,1)")


def enneper(mu: float = 1.0 / math.sqrt(2.0), half_width: float = 1.2) -> ModelSurface:
    """Enneper's surface scale family: G = z/(2 mu^2), eta = z dz.

    mu = 1/sqrt(2) gives the standard normalization G = z.
    """
    c = 0.5 / (mu * mu) if mu * mu > 0 else math.inf
    if not (0.0 < mu < math.inf and 0.0 < c < math.inf):
        raise ValueError("mu and 1/(2 mu^2) must be positive and finite")
    data = WeierstrassData(const(c) * Z, Z, RectDomain.square(half_width), label=f"enneper(mu={mu:g})")

    def closed_form(x: float, y: float) -> np.ndarray:
        z = complex(x, y)
        mu2 = mu * mu
        w = mu2 * z - z**3 / (12.0 * mu2)
        v = mu2 * z + z**3 / (12.0 * mu2)
        return np.array([w.real, -v.imag, (0.5 * z * z).real])

    return ModelSurface("enneper", mu, data, closed_form, FamilyRelation.P_ZERO)


def deformed_catenoid(t: float, x_half_width: float = 1.5) -> ModelSurface:
    """C_t: the catenoid's Gauss map pushed by the Moebius map B_t."""
    _check_t(t)
    G, h = _deformed_pair(t)
    data = WeierstrassData(
        G, h, RectDomain(-x_half_width, x_half_width, 0.0, 2 * math.pi),
        periodic_y=2 * math.pi, label=f"C_t(t={t:g})",
    )
    c = 2.0 * t / (1.0 - t * t)

    def closed_form(x: float, y: float) -> np.ndarray:
        base = np.array([math.cosh(x) * math.cos(y), math.cosh(x) * math.sin(y), x])
        corr = np.array([0.0, -y + t * math.cosh(x) * math.sin(y), t * x - math.sinh(x) * math.cos(y)])
        return base + c * corr

    return ModelSurface("deformed-catenoid", t, data, closed_form, FamilyRelation.P_EQ_HALF_Q)


def deformed_helicoid(t: float, x_half_width: float = 1.5) -> ModelSurface:
    """H_t: the helicoid's Gauss map pushed by the Moebius map B_t."""
    _check_t(t)
    G, h_cat = _deformed_pair(t)
    data = WeierstrassData(
        G, const(-1j) * h_cat, RectDomain(-x_half_width, x_half_width, 0.0, 2 * math.pi),
        periodic_y=2 * math.pi, label=f"H_t(t={t:g})",
    )
    c = 2.0 * t / (1.0 - t * t)

    def closed_form(x: float, y: float) -> np.ndarray:
        base = np.array([math.sinh(x) * math.sin(y), -math.sinh(x) * math.cos(y), y])
        corr = np.array([0.0, x - t * math.sinh(x) * math.cos(y), t * y - math.cosh(x) * math.sin(y)])
        return base + c * corr

    return ModelSurface("deformed-helicoid", t, data, closed_form, FamilyRelation.P_EQ_IHALF_Q)


def catenoid(x_half_width: float = 1.5) -> ModelSurface:
    """The vertical catenoid C_0 (data G = -e^z, h = 1 on C/<2 pi i>)."""
    m = deformed_catenoid(0.0, x_half_width)
    return ModelSurface("catenoid", None, m.data, m.closed_form, m.expected_relation)


def helicoid(x_half_width: float = 1.5) -> ModelSurface:
    """The vertical helicoid H_0 (data G = -e^z, h = -i)."""
    m = deformed_helicoid(0.0, x_half_width)
    return ModelSurface("helicoid", None, m.data, m.closed_form, m.expected_relation)


MODEL_NAMES = ("enneper", "catenoid", "helicoid", "deformed-catenoid", "deformed-helicoid")


def get_model(name: str, t: float | None = None, mu: float | None = None, **kwargs) -> ModelSurface:
    """Catalog lookup by name; t for the deformed families, mu for Enneper.
    A parameter the named surface does not take raises ValueError."""
    name = name.lower()
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown surface {name!r}; choose from {MODEL_NAMES}")
    takes = {"enneper": "mu", "deformed-catenoid": "t", "deformed-helicoid": "t"}.get(name)
    for param, value in (("t", t), ("mu", mu)):
        if value is not None and param != takes:
            raise ValueError(f"{name} takes no parameter {param}")
    if name == "enneper":
        return enneper(**({"mu": mu} if mu is not None else {}), **kwargs)
    if takes is None:
        return (catenoid if name == "catenoid" else helicoid)(**kwargs)
    if t is None:
        raise ValueError(f"{name} needs a parameter t")
    return (deformed_catenoid if name == "deformed-catenoid" else deformed_helicoid)(t, **kwargs)


def closed_form_point(m: ModelSurface, x: float, y: float) -> np.ndarray:
    """Evaluate the printed parameterization (entire; no preconditions)."""
    return m.closed_form(float(x), float(y))


def family_relation_residual(m: ModelSurface, grid=None) -> float:
    """max |rho/2 - c q| over a grid, c per the family's expected relation.

    Nodes where the data itself is singular (isolated Gauss-map poles of
    the deformed families) are excluded; everywhere else both fields are
    evaluated from the Weierstrass data via jets.
    """
    if grid is None:
        grid = m.data.domain.grid(32, 32)
    zs = grid.zs if hasattr(grid, "zs") else np.asarray(grid, dtype=np.complex128)
    (resid,) = fields_of(m.data, zs, lambda f: (np.abs(0.5 * f.rho - m.expected_relation.coefficient * f.q),))
    valid = np.isfinite(resid)
    if not valid.any():
        raise ValueError("no valid grid nodes for the family relation")
    return float(resid[valid].max())


def closed_form_vs_weierstrass(m: ModelSurface, grid=None) -> float:
    """max distance between the printed parameterization and the
    Weierstrass integral, after aligning the integration constant at z = 0."""
    if grid is None:
        grid = m.data.domain.grid(8, 8)
    zs = (grid.zs if hasattr(grid, "zs") else np.asarray(grid, dtype=np.complex128)).reshape(-1)
    base = closed_form_point(m, 0.0, 0.0)
    worst = 0.0
    for z in zs:
        via_integral = immersion_point(m.data, 0j, complex(z)).x
        via_formula = closed_form_point(m, z.real, z.imag) - base
        worst = max(worst, float(np.linalg.norm(via_integral - via_formula)))
    return worst
