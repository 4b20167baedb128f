"""Property suite: jets of seeded random expression trees against mpmath.

Tree ``index`` is drawn from ``numpy.random.default_rng((SEED, index))``:
depth at most 5 over constants, z, + - * /, the integer powers -2, -1, 2, 3
and exp.  At up to three drawn points where every denominator (the right
operand of a quotient, the base of a negative power) has modulus >= 0.1,
the jet to order 8 is compared with mpmath's Taylor coefficients at 40
digits.  So is the jet of the removable quotient (e (z - a))/(z - a) at
z = a, whose oracle is the Taylor series of e itself.

A coefficient passes within 1e-12 max(1, |c_k|), the tolerance of
``test_higher_coefficients_match_mpmath_taylor``.  Trees 0 .. TREES-1 all
pass.  A scan of the first 1000 indices found the trees listed below, which
run as strict xfails so that the defects stay in view:

- ``_ROUNDING_LOSSES`` fail by rounding alone.  The quotient recurrence
  carries an error of about eps/r^k into order k, r the radius of
  convergence of an intermediate series (z/z at z0 has r = |z0|), while the
  true coefficient of the whole expression is much smaller.  Tree 562
  left the list, and runs as a pass, when constant factors became
  scalars: its product c * e is now rounded as e * c, and its worst error
  fell from 1.12e-12 to 6.3e-13.  That is a change of rounding, not of
  accuracy.
- ``_SPURIOUS_POLES`` raise PoleAtPoint on the removable quotient.  Its
  retry at a higher order lets the coefficients of an inner quotient grow
  like r^-k, and the relative vanishing rule of ``jets._quotient`` then
  takes that quotient's nonzero denominator for a zero.

Both are ROADMAP item 10, jets that carry their own rounding bound; a
change that mends a tree takes it off its list.
"""

import mpmath as mp
import numpy as np
import pytest

from entropydiff.errors import PoleAtPoint
from entropydiff.jets import Z, const, eval_jet, exp

SEED = 2024
TREES = 200
DEPTH = 5
ORDER = 8
TOL = 1e-12
_POWERS = (-2, -1, 2, 3)
# the worst error of each, over its points: 1.1e-12 to 7.3e-11
_ROUNDING_LOSSES = (258, 271, 374, 389, 530, 649, 802, 870, 897, 898)
_SPURIOUS_POLES = (418,)


def _tree(rng, depth):
    if depth == 1 or rng.random() < 0.2:
        return Z if rng.random() < 0.5 else const(complex(*np.round(rng.uniform(-2.0, 2.0, 2), 3)))
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "exp"])
    if kind == "pow":
        return _tree(rng, depth - 1) ** int(rng.choice(_POWERS))
    if kind == "exp":
        return exp(_tree(rng, depth - 1))
    a, b = _tree(rng, depth - 1), _tree(rng, depth - 1)
    return {"add": a + b, "sub": a - b, "mul": a * b, "div": a / b}[kind]


def _denominators(e):
    if e.kind == "div":
        yield e.args[1]
    if e.kind == "pow" and e.value < 0:
        yield e.args[0]
    for a in e.args:
        yield from _denominators(a)


def _mp_eval(e, w):
    """The tree evaluated in mpmath, an evaluator independent of the jets."""
    if e.kind == "const":
        return mp.mpc(e.value)
    if e.kind == "z":
        return w
    a = [_mp_eval(x, w) for x in e.args]
    if e.kind == "pow":
        return a[0] ** e.value
    if e.kind == "exp":
        return mp.exp(a[0])
    return _BINARY[e.kind](*a)


_BINARY = {"add": mp.fadd, "sub": mp.fsub, "mul": mp.fmul, "div": mp.fdiv}


def _worst_error(index: int):
    """(max error over the tree's admitted points, both forms; points admitted)."""
    rng = np.random.default_rng((SEED, index))
    e = _tree(rng, DEPTH)
    worst, admitted = 0.0, 0
    for z0 in np.round(rng.uniform(-1.5, 1.5, (3, 2)), 3) @ [1.0, 1j]:
        at = np.array([z0])  # a one-point array: a pole reads NaN, where a scalar raises
        if not (all(abs(d.eval(at)[0]) >= 0.1 for d in _denominators(e)) and np.isfinite(e.eval(at)[0])):
            continue
        admitted += 1
        with mp.workdps(40):
            want = np.array([complex(c) for c in mp.taylor(lambda w: _mp_eval(e, w), mp.mpc(z0), ORDER)])
        removable = (e * (Z - z0)) / (Z - z0)
        for got in (eval_jet(e, z0, ORDER), eval_jet(removable, z0, ORDER)):
            worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))))
    return worst, admitted


@pytest.mark.parametrize(
    "index",
    list(range(TREES))
    + [562]  # off _ROUNDING_LOSSES: see the module docstring
    + [pytest.param(i, marks=pytest.mark.xfail(strict=True, reason="rounding loss, ROADMAP item 10"))
       for i in _ROUNDING_LOSSES]
    + [pytest.param(i, marks=pytest.mark.xfail(strict=True, raises=PoleAtPoint, reason="spurious pole, ROADMAP item 10"))
       for i in _SPURIOUS_POLES],
)
def test_random_tree_jets_match_mpmath(index):
    worst, _ = _worst_error(index)
    assert worst <= TOL


def test_the_suite_admits_most_trees():
    # the draw is not vacuous: most trees are compared at some point
    assert sum(_worst_error(i)[1] > 0 for i in range(0, TREES, 10)) >= 15
