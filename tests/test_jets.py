"""Jet arithmetic (Taylor coefficient arrays) and expression-grammar tests."""

import math
import operator

import mpmath as mp
import numpy as np
import pytest

from entropydiff import jets
from entropydiff.errors import ExpressionParseError, OrderOverflow, PoleAtPoint
from entropydiff.jets import (
    MAX_JET_ORDER,
    AnalyticExpr,
    Z,
    const,
    eval_jet,
    exp,
    jet_add,
    jet_div,
    jet_exp,
    jet_mul,
    parse_expression,
)
from test_jet_properties import _mp_eval  # the tree in mpmath, independent of the jets


def test_exp_series_at_zero():
    jet = eval_jet(exp(Z), 0.0, 3)
    np.testing.assert_allclose(jet, [1.0, 1.0, 0.5, 1.0 / 6.0], rtol=0, atol=1e-15)


def test_square_at_complex_point():
    jet = eval_jet(Z**2, 1 + 1j, 2)
    np.testing.assert_allclose(jet, [2j, 2 + 2j, 1.0], rtol=0, atol=1e-15)


def test_deformed_catenoid_gauss_map_jet():
    # (t - e^z)/(1 - t e^z) at z=0 with t=1/2; quotient rule gives
    # G(0) = -1 and G'(0) = (t^2-1)/(1-t)^2 = -3.
    t = 0.5
    g = (const(t) - exp(Z)) / (const(1.0) - const(t) * exp(Z))
    jet = eval_jet(g, 0.0, 1)
    np.testing.assert_allclose(jet, [-1.0, -3.0], rtol=1e-14, atol=1e-14)


def test_removable_singularity_division():
    # z^2 / z at 0 is z; the requested order survives the cancellation.
    jet = eval_jet(Z**2 / Z, 0.0, 2)
    np.testing.assert_allclose(jet, [0.0, 1.0, 0.0], rtol=0, atol=1e-15)


def test_quotient_keeps_every_order_away_from_a_removable_zero():
    # z e^z / z: only the node at 0 loses an order to the cancellation
    z = np.array([0.0, 0.5, 1.0 + 1.0j])
    num, den = eval_jet(Z * exp(Z), z, 3), eval_jet(Z, z, 3)
    coeffs = jet_div(num, den)
    assert coeffs.shape == (4, 3)
    np.testing.assert_allclose(coeffs[:, 1:], eval_jet(exp(Z), z[1:], 3), rtol=1e-14, atol=0)
    np.testing.assert_allclose(coeffs[:3, 0], [1.0, 1.0, 0.5], rtol=0, atol=1e-15)
    assert np.isnan(coeffs[3, 0])


def test_exp_times_exp_inverse_is_one():
    a = eval_jet(exp(Z), 0.0, 4)
    b = eval_jet(exp(-Z), 0.0, 4)
    np.testing.assert_allclose(jet_mul(a, b), [1, 0, 0, 0, 0], rtol=0, atol=1e-15)


def test_jet_exp_of_identity():
    jet = jet_exp(eval_jet(Z, 0.0, 2))
    np.testing.assert_allclose(jet, [1.0, 1.0, 0.5], rtol=0, atol=1e-15)


def test_true_pole_raises():
    # a scalar raises; in an array the pole is NaN and the other points keep their values
    for e in (const(1.0) / Z, Z / Z**2):
        for order in range(4):
            with pytest.raises(PoleAtPoint):
                eval_jet(e, 0.0, order)
            jet = eval_jet(e, np.array([0.5, 0.0]), order)
            assert np.all(np.isnan(jet[:, 1]))
            np.testing.assert_array_equal(jet[:, 0], eval_jet(e, 0.5, order))


def test_order_overflow():
    with pytest.raises(OrderOverflow):
        eval_jet(Z, 0.0, MAX_JET_ORDER + 1)


def test_derivative_conversion_factor():
    # c[k] = f^(k)(z0)/k!: the k-th derivative of e^(2z) at 0 is 2^k
    jet = eval_jet(exp(const(2.0) * Z), 0.0, 4)
    for k in range(5):
        np.testing.assert_allclose(jet[k] * math.factorial(k), 2.0**k, rtol=1e-14)


@pytest.mark.parametrize("z", [0.5 - 0.25j, np.array([0.0, 1.0, 1j]), np.linspace(-1, 1, 6).reshape(2, 3) + 0.5j])
def test_a_jet_is_its_coefficient_array(z):
    for order in (0, 3):
        jet = eval_jet(exp(Z) / (Z + 3.0), z, order)
        assert type(jet) is np.ndarray and jet.dtype == np.complex128
        assert jet.shape == (order + 1,) + np.shape(z)


def test_vectorized_base_points():
    zs = np.array([0.0, 1.0, 1j, 0.5 - 0.25j])
    jet = eval_jet(exp(Z) * Z, zs, 2)
    np.testing.assert_allclose(jet[0], zs * np.exp(zs), rtol=1e-14)
    np.testing.assert_allclose(jet[1], (1 + zs) * np.exp(zs), rtol=1e-14)


def test_vectorized_cancellation_mixed_points():
    # h/G for Enneper-type data: z/z cancels at the origin node only.
    zs = np.array([0.0, 0.5, -1.0 + 0.5j])
    jet = eval_jet(Z / Z, zs, 1)
    np.testing.assert_allclose(jet[0], np.ones(3), rtol=0, atol=1e-14)
    np.testing.assert_allclose(jet[1], np.zeros(3), rtol=0, atol=1e-14)


# --- random-corpus properties ------------------------------------------------

def _random_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Z
        return const(complex(rng.normal(), rng.normal()))
    kind = rng.integers(0, 5)
    if kind == 0:
        return _random_expr(rng, depth - 1) + _random_expr(rng, depth - 1)
    if kind == 1:
        return _random_expr(rng, depth - 1) - _random_expr(rng, depth - 1)
    if kind == 2:
        return _random_expr(rng, depth - 1) * _random_expr(rng, depth - 1)
    if kind == 3:
        # shift the denominator to keep poles away from the sample disk
        return _random_expr(rng, depth - 1) / (_random_expr(rng, depth - 1) + const(6.0 + 5.0j))
    return exp(const(0.3) * _random_expr(rng, depth - 1))


def test_value_matches_direct_evaluation():
    rng = np.random.default_rng(7)
    for _ in range(60):
        e = _random_expr(rng)
        z = complex(rng.normal(), rng.normal()) * 0.5
        with mp.workdps(30):
            direct = complex(_mp_eval(e, mp.mpc(z)))
        jet = eval_jet(e, z, 3)
        assert abs(jet[0] - direct) <= 1e-13 * max(1.0, abs(direct))


def test_first_derivative_matches_central_difference():
    # mpmath's central difference at 30 digits
    rng = np.random.default_rng(11)
    for _ in range(60):
        e = _random_expr(rng)
        z = complex(rng.normal(), rng.normal()) * 0.5
        jet = eval_jet(e, z, 2)
        with mp.workdps(30):
            fd = complex(mp.diff(lambda w: _mp_eval(e, w), mp.mpc(z)))
        assert abs(jet[1] - fd) < 1e-12 * max(1.0, abs(fd))


def _constant_tree(rng, depth=4):
    """A seeded tree without z: constants of every size, joined by every node kind."""
    if depth == 0 or rng.random() < 0.25:
        return const(complex(*(rng.choice([0.0, 1.0, -2.5, 1e-3, 3e150, 1e300]) for _ in range(2))))
    kind = rng.integers(0, 7)
    if kind == 4:
        return -_constant_tree(rng, depth - 1)
    if kind == 5:
        return _constant_tree(rng, depth - 1) ** int(rng.choice([-3, -1, 0, 2, 5]))
    if kind == 6:
        return exp(_constant_tree(rng, depth - 1))
    a, b = _constant_tree(rng, depth - 1), _constant_tree(rng, depth - 1)
    return (a + b, a - b, a * b, a / b)[kind]


def _bits(value):
    """The bytes of a value and its type, or "pole" where evaluation raised it."""
    try:
        v = value()
    except PoleAtPoint:
        return "pole"
    return type(v), np.asarray(v, dtype=np.complex128).tobytes()


def test_a_value_is_row_0_of_the_jet_bit_for_bit():
    # one evaluator: eval is eval_jet at order 0, at a scalar (a complex, or
    # PoleAtPoint) and at a one-point array (NaN at a pole)
    rng = np.random.default_rng(29)
    trees = [_constant_tree(rng) for _ in range(400)]
    trees += [parse_expression(text) for text, want in _PARSE_CORPUS if want != "refused"]
    for e in trees:
        for z in (0.0, 0.5 - 0.25j, -3.0):
            assert _bits(lambda: e.eval(z)) == _bits(lambda: complex(eval_jet(e, z, 0)[0])), (str(e), z)
            at = np.array([z])
            assert _bits(lambda: e.eval(at)) == _bits(lambda: eval_jet(e, at, 0)[0]), (str(e), z)


def _removable_forms(f, z0, rng):
    """f wrapped in removable singularities at z0: (e^w - 1)/w, w f / w and
    w^k / w^k with w = z - z0."""
    w = Z - const(z0)
    k = int(rng.integers(1, 5))
    return f * ((exp(w) - 1.0) / w), (w * f) / w, f * (w**k / w**k)


def test_scalar_and_array_jets_agree_at_removable_points():
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = _random_expr(rng)
        z0 = complex(rng.normal(), rng.normal()) * 0.5
        others = z0 + 0.3 * np.exp(2j * np.pi * rng.random(3))
        zs = np.concatenate([others[:1], [z0], others[1:]])
        for e in _removable_forms(f, z0, rng):
            for order in range(4):
                point = eval_jet(e, z0, order)
                grid = eval_jet(e, zs, order)
                assert np.all(np.isfinite(point)), (str(e), order)
                np.testing.assert_array_equal(grid[:, 1], point, err_msg=f"{e} at order {order}")
                np.testing.assert_allclose(point[0], f.eval(z0), rtol=1e-9, atol=1e-12)
    # the quotient on one array mixing regular points, removable zeros of
    # order 1 and 2, and a denominator whose value is NaN but whose higher
    # rows are finite: each point equals its quotient taken alone, bit for
    # bit (a one-point array, as eval_jet takes a scalar)
    a, b = (rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6)) for _ in range(2))
    a[0, 1] = b[0, 1] = 0.0
    a[:2, 3] = b[:2, 3] = 0.0
    a[0, 4] = b[0, 4] = complex(np.nan, 0.0)
    grid = jet_div(a, b)
    for k, lost in enumerate((0, 1, 0, 2, 1, 0)):
        np.testing.assert_array_equal(grid[:, k], jet_div(a[:, k : k + 1], b[:, k : k + 1])[:, 0])
        assert np.all(np.isfinite(grid[: 4 - lost, k])) and np.all(np.isnan(grid[4 - lost :, k])), k


def test_only_vanishing_denominators_are_deepened(monkeypatch):
    # exp overflows at x = 800: that point stays NaN after one pass, while
    # (e^z - 1)/z at 0 needs a second pass at order 2
    overflow, removable = (exp(Z) + 1.0) / (exp(Z) + 2.0), (exp(Z) - 1.0) / Z
    passes = []
    tree = jets._eval_jet_tree

    def counted(expr, z, *rest):
        if expr is overflow or expr is removable:
            passes.append(z.size)
        return tree(expr, z, *rest)

    monkeypatch.setattr(jets, "_eval_jet_tree", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        jet = eval_jet(overflow, np.array([800.0, 0.5]), 3)
        assert passes == [2] and np.isnan(jet[0, 0]) and np.isfinite(jet[0, 1])
        passes.clear()
        # a denominator that is NaN at every order, not zero, is not deepened
        eval_jet(const(1.0) / overflow, np.array([800.0, 0.5]), 3)
        assert passes == [2]
        passes.clear()
        eval_jet(removable, np.array([800.0, 0.0, 0.5]), 0)
        assert passes == [3, 1]


def test_a_removable_point_costs_one_pass_over_that_point_alone(monkeypatch):
    # z^2/z on a 257 x 257 grid through 0: every point is evaluated once at
    # order 2, then 0, which lost an order, alone at order 4
    expr = Z**2 / Z
    passes = []
    tree = jets._eval_jet_tree

    def counted(e, z, order, vanished):
        if e is expr:
            passes.append((z.size, order))
        return tree(e, z, order, vanished)

    monkeypatch.setattr(jets, "_eval_jet_tree", counted)
    x = np.linspace(-1.0, 1.0, 257)
    zs = x[:, None] + 1j * x[None, :]
    jet = eval_jet(expr, zs, 2)
    assert passes == [(257 * 257, 2), (1, 4)]
    np.testing.assert_allclose(jet, eval_jet(Z, zs, 2), rtol=0, atol=1e-14)


def test_nested_removable_quotients_cancel():
    # the inner quotients lose an order at 0; the outer one still cancels
    zs = np.array([0.0, 0.5, -1.0 + 0.5j])
    for e in ((Z**2 / Z) / (Z**2 / Z), Z / (Z**2 / Z), (Z**3 / Z) / Z**2):
        for order in range(4):
            np.testing.assert_allclose(eval_jet(e, zs, order), eval_jet(const(1.0), zs, order), rtol=1e-14, atol=1e-14)
    # z^2/z over z^2 is 1/z: a pole, even though the numerator lost its last
    # row; vanishing is relative to the rows it kept, however small
    for scale in (1.0, 1e-20):
        with pytest.raises(PoleAtPoint):
            eval_jet((const(scale) * (Z**2 / Z)) / Z**2, 0.0, 3)


def _random_jet(rng, order=4):
    return eval_jet(
        const(complex(rng.normal(), rng.normal())) + const(complex(rng.normal(), rng.normal())) * Z + Z**2 * const(complex(rng.normal(), rng.normal())),
        complex(rng.normal(), rng.normal()),
        order,
    )


def test_jet_ring_axioms():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a, b, c = (_random_jet(rng) for _ in range(3))
        ab_c = jet_mul(jet_mul(a, b), c)
        a_bc = jet_mul(a, jet_mul(b, c))
        np.testing.assert_allclose(ab_c, a_bc, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(jet_mul(a, b), jet_mul(b, a), rtol=1e-13, atol=1e-13)
        lhs = jet_mul(a, jet_add(b, c))
        rhs = jet_add(jet_mul(a, b), jet_mul(a, c))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_division_inverts_multiplication():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a, b = _random_jet(rng), _random_jet(rng)
        if abs(b[0]) < 0.1:
            continue
        back = jet_div(jet_mul(a, b), b)
        np.testing.assert_allclose(back, a, rtol=1e-10, atol=1e-10)


def test_constant_operands_act_as_scalars():
    # c * e, e * c and e / c scale the jet of e; they equal the product and quotient with c's jet
    rng = np.random.default_rng(11)
    e = exp(Z) * Z**2 - (0.5 + 0.25j) / (Z - 3.0)
    zs = rng.uniform(-1.5, 1.5, 64) + 1j * rng.uniform(-1.5, 1.5, 64)
    real = rng.normal(size=4) * 10.0 ** rng.integers(-3, 4, 4)
    for c in [*real, *(rng.normal(size=(4, 2)) @ [1.0, 1j])]:
        for order in (0, 3, 8):
            E, C = eval_jet(e, zs, order), eval_jet(const(c), zs, order)
            assert np.all(np.isfinite(E))
            EC = jet_mul(E, C)
            np.testing.assert_array_equal(eval_jet(e * const(c), zs, order), EC)
            np.testing.assert_array_equal(eval_jet(const(c) * e, zs, order), EC)
            np.testing.assert_array_equal(eval_jet(e / const(c), zs, order), jet_div(E, C))
            # numpy's fused complex product may round C * E and E * C apart in the last bit
            gap = np.abs(EC - jet_mul(C, E))
            assert np.all(gap <= 4 * np.finfo(float).eps * abs(c) * np.abs(E))


def test_division_by_a_zero_constant_is_a_pole_everywhere():
    e = exp(Z) * Z**2
    zs = np.array([0.5, -1.0 + 0.25j, 0.0])
    for order in (0, 3):
        assert np.all(np.isnan(eval_jet(e / const(0.0), zs, order)))
        with pytest.raises(PoleAtPoint):
            eval_jet(e / const(0.0), 0.5, order)


def test_constant_quotient_by_zero_is_not_folded():
    e = const(1.0) / const(0.0)
    assert e.kind == "div"
    assert np.all(np.isnan(eval_jet(e, np.array([0.5, 0.0]), 2)))
    with pytest.raises(PoleAtPoint):
        eval_jet(e, 0.5, 2)


def test_operators_fold_constants_and_identities():
    e = exp(Z)
    assert str(const(2.0) + 3.0) == "5.0" and str(const(1j) * const(1j)) == "-1.0"
    assert str(const(6.0) / 4.0) == "1.5" and str(const(1.0) - const(0.25)) == "0.75"
    for folded in (e * 0, 0 * e, const(0.0) * const(2.0)):
        assert folded.kind == "const" and folded.value == 0
    for same in (1 * e, e * 1.0, e / 1, e + 0, 0.0 + e, e - 0):
        assert same is e
    # 0 - e keeps its zero signs, and neg, pow and exp of a constant stay as written
    assert str(0 - e) == "(0.0 - exp(z))"
    assert [x.kind for x in (-const(2.0), const(2.0) ** 2, exp(const(1.0)), 1 / e)] == ["neg", "pow", "exp", "div"]


def test_catalog_catenoid_and_helicoid_fold_to_their_data():
    from entropydiff.models import catenoid, helicoid

    def exps(x):
        return (x.kind == "exp") + sum(exps(a) for a in x.args)

    for m, h in ((catenoid(), "1.0"), (helicoid(), "-1.0i")):
        assert (str(m.data.G), str(m.data.h)) == ("(0.0 - exp(z))", h)
        assert exps(m.data.G) + exps(m.data.h) == 1


def test_a_catenoid_field_pass_takes_one_exp(monkeypatch):
    from entropydiff.models import catenoid
    from entropydiff.weierstrass import SurfaceFields

    calls = []
    jet_exp = jets.jet_exp

    def counted(a):
        calls.append(a.shape)
        return jet_exp(a)

    monkeypatch.setattr(jets, "jet_exp", counted)
    m = catenoid()
    f = SurfaceFields(m.data, m.data.domain.grid(16, 16).zs)
    assert np.all(np.isfinite(f.metric["K"])) and np.all(np.isfinite(f.rho))
    assert len(calls) == 1


def test_a_product_with_zero_is_zero_where_the_other_factor_has_a_pole():
    # 0 * (1/z) is the zero function: its singularity at 0 is removable
    zs = np.array([0.0, 0.5 - 1j])
    for e in (0 * (const(1.0) / Z), (const(1.0) / Z) * const(0.0)):
        for order in (0, 3):
            np.testing.assert_array_equal(eval_jet(e, zs, order), np.zeros((order + 1, 2)))
            np.testing.assert_array_equal(eval_jet(e, 0.0, order), np.zeros(order + 1))
    # the product as written, unfolded, is NaN there
    unfolded = AnalyticExpr("mul", args=(const(0.0), const(1.0) / Z))
    assert np.all(np.isnan(eval_jet(unfolded, zs, 3)[:, 0]))
    with pytest.raises(PoleAtPoint):
        eval_jet(unfolded, 0.0, 3)


_BUILD = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def _fold_pair(rng, depth):
    """(as written, folded): one random tree built node by node and through
    the folding operators.  Its constants are 0, 1 and a few reals that are
    powers of two, and its denominators are exp(...), 1 or such a constant,
    so that no pole meets a factor 0.  Every folded constant is then exact:
    in general Python's complex arithmetic, which folds, and numpy's, which
    evaluates jets, may round one operation apart in the last bit."""
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(["z", "0", "1", "2", "-0.5", "0.25", "-4"], p=[0.3, 0.2, 0.2, 0.1, 0.1, 0.05, 0.05])
        leaf = Z if leaf == "z" else const(float(leaf))
        return leaf, leaf
    kind = rng.choice(["add", "sub", "mul", "div", "exp"])
    if kind == "exp":
        raw, folded = _fold_pair(rng, depth - 1)
        return exp(raw), exp(folded)
    (ra, fa), (rb, fb) = _fold_pair(rng, depth - 1), _fold_pair(rng, depth - 1)
    if kind == "div" and not (rb is fb and rb.kind == "const" and rb.value != 0):
        rb, fb = (exp(rb), exp(fb)) if rng.random() < 0.7 else (const(1.0), const(1.0))
    return AnalyticExpr(kind, args=(ra, rb)), _BUILD[kind](fa, fb)


def _size(e):
    return 1 + sum(_size(a) for a in e.args)


def test_folded_trees_have_the_jets_of_the_trees_as_written():
    # equal at every finite coefficient (a zero may change sign), and
    # non-finite at the same ones: where exp overflows, e / 1 as written
    # gives inf * 0 = NaN in the other part of inf, and folded keeps e's inf
    rng = np.random.default_rng(29)
    zs = np.concatenate([rng.uniform(-1.0, 1.0, 6) + 1j * rng.uniform(-1.0, 1.0, 6), [0.0, 1.0]])
    saved = 0
    for _ in range(150):
        raw, folded = _fold_pair(rng, 4)
        saved += _size(raw) - _size(folded)
        for order in (0, 3):
            want, got = eval_jet(raw, zs, order), eval_jet(folded, zs, order)
            finite = np.isfinite(want)
            np.testing.assert_array_equal(np.isfinite(got), finite, err_msg=str(raw))
            np.testing.assert_array_equal(got[finite], want[finite], err_msg=str(raw))
    assert saved > 300


def test_higher_coefficients_match_mpmath_taylor():
    # independent high-precision oracle for orders 0..5
    import mpmath as mp

    mp.mp.dps = 40
    e = (const(1 + 2j) * Z**2 - exp(const(0.5) * Z)) / (Z + const(3.0 - 1j))

    def f(w):
        w = mp.mpc(w)
        return ((1 + 2j) * w**2 - mp.exp(0.5 * w)) / (w + (3 - 1j))

    for z0 in (0.0, 0.7 - 0.3j, -1.1 + 0.4j):
        jet = eval_jet(e, z0, 5)
        coeffs = mp.taylor(f, mp.mpc(z0), 5)
        for k in range(6):
            got = jet[k]
            want = complex(coeffs[k])
            assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (z0, k)


def test_deep_cancellation_orders():
    # z^5 / z^5 = 1 and z^6/z^3 = z^3 need several retry rounds
    jet = eval_jet(Z**5 / Z**5, 0.0, 3)
    np.testing.assert_allclose(jet, [1, 0, 0, 0], rtol=0, atol=1e-14)
    jet = eval_jet(Z**6 / Z**3, 0.0, 4)
    np.testing.assert_allclose(jet, [0, 0, 0, 1, 0], rtol=0, atol=1e-14)
    # nested removable singularities in both factors
    jet = eval_jet((Z**2 / Z) * (Z**3 / Z**2), 0.0, 3)
    np.testing.assert_allclose(jet, [0, 0, 1, 0], rtol=0, atol=1e-14)


# --- parser -------------------------------------------------------------------

def test_parse_complex_literals_and_power():
    e = parse_expression("(1+2i)*z^2 - 0.5i")
    assert abs(e.eval(1.0) - (1 + 2j - 0.5j)) < 1e-15
    assert abs(e.eval(2j) - ((1 + 2j) * (2j) ** 2 - 0.5j)) < 1e-14


def test_parse_exp_and_negative_power():
    e = parse_expression("exp(-z) + z^(-2)")
    z = 0.7 + 0.2j
    assert abs(e.eval(z) - (np.exp(-z) + z**-2)) < 1e-14


def test_parse_deformed_catenoid_string():
    e = parse_expression("(0.5 - exp(z)) / (1 - 0.5*exp(z))")
    jet = eval_jet(e, 0.0, 1)
    np.testing.assert_allclose(jet, [-1.0, -3.0], rtol=1e-14)


def test_parse_errors():
    for bad in ["z +", "exp(z", "2**z", "q", "z^i", "1..2"]:
        with pytest.raises(ExpressionParseError):
            parse_expression(bad)


# the parser's tree (its str) or its refusal on edge cases of the grammar
_PARSE_CORPUS = (
    ("5.", "5.0"), (".5", "0.5"), ("1e-3i", "0.001i"), ("1..2", "refused"), ("2e+", "refused"), ("1e400", "refused"),
    ("\u0663", "3.0"), ("1e3", "1000.0"), ("1E+3", "1000.0"), ("2.5e-2i", "0.025i"), ("00", "0.0"), ("3i", "3.0i"),
    ("i", "1.0i"), ("1.2.3", "refused"), (".", "refused"), ("5.e2", "500.0"), ("1e", "refused"), ("1ei", "refused"),
    ("1e2.5", "refused"), ("1e-400", "0.0"), ("1e309i", "refused"), ("\uff11", "1.0"), ("\u00b2", "refused"),
    ("1\u00b2", "refused"), ("2e5z", "refused"), ("2ei", "refused"), ("1_000", "refused"),
    ("0.1+0.2", "0.30000000000000004"), ("7/2", "3.5"), ("2iz", "refused"), ("pi", "refused"), ("zi", "refused"),
    ("exp2", "refused"), ("Z", "refused"), ("exp", "refused"), ("exp z", "refused"), ("i z", "refused"),
    ("zz", "refused"), ("z2", "refused"), ("expz", "refused"), ("\u00e9", "refused"), ("EXP(z)", "refused"),
    ("exp()", "refused"), ("exp(z,z)", "refused"), ("inf", "refused"), ("nan", "refused"), ("z^+2", "refused"),
    ("z**2", "refused"), ("2^3^2", "refused"), ("z^(3", "refused"), ("z^(-3)", "z^(-3)"), ("z^-3", "z^(-3)"),
    ("z^2.0", "z^(2)"), ("z^2.5", "refused"), ("z^1e1", "z^(10)"), ("z^ 2", "z^(2)"), ("z^2i", "refused"),
    ("z^0", "z^(0)"), ("z^(- 2)", "z^(-2)"), ("z^((2))", "refused"), ("exp(z)^2", "exp(z)^(2)"),
    ("-z^2", "(-z^(2))"), ("z^-(2)", "refused"), ("(z)^2", "z^(2)"), ("--z", "(-(-z))"), ("-+-z", "(-(-z))"),
    ("+z", "z"), ("z-", "refused"), ("*z", "refused"), ("z/0", "(z / 0.0)"), ("0/0", "(0.0 / 0.0)"),
    ("1/0", "(1.0 / 0.0)"), ("z*0", "0.0"), ("0*exp(z)", "0.0"), ("1*z", "z"), ("z+0", "z"), ("0-z", "(0.0 - z)"),
    ("2*3-1", "5.0"), ("(1+2i)*z^2 - 0.5i", "(((1.0+2.0i) * z^(2)) - 0.5i)"),
    ("exp(-z) + z^(-2)", "(exp((-z)) + z^(-2))"),
    ("(0.5 - exp(z)) / (1 - 0.5*exp(z))", "((0.5 - exp(z)) / (1.0 - (0.5 * exp(z))))"),
    ("z*z/z-z+z", "((((z * z) / z) - z) + z)"), ("", "refused"), (" ", "refused"), ("\tz\t+\t1", "(z + 1.0)"),
    ("z\n", "z"), ("z +", "refused"), ("()", "refused"), ("(z))", "refused"), ("z z", "refused"), ("2z", "refused"),
    ("z#", "refused"), ("z$", "refused"), ("1,5", "refused"),
)


def test_parse_corpus():
    for text, want in _PARSE_CORPUS:
        try:
            got = str(parse_expression(text))
        except ExpressionParseError:
            got = "refused"
        assert got == want, text


def test_parse_refuses_what_is_deeper_than_the_limit():
    n = jets.MAX_EXPR_DEPTH
    # nested exp and a chain of products are as deep as they are long;
    # brackets and signs add no tree level but count as nesting
    for text, depth in (("exp(" * (n - 1) + "z" + ")" * (n - 1), n), ("*".join(["z"] * n), n)):
        assert parse_expression(text).depth == depth
    for text in ("(" * n + "z" + ")" * n, "-+" * (n // 2) + "z"):
        parse_expression(text)
    for text in ("exp(" * n + "z" + ")" * n, "*".join(["z"] * (n + 1)), "(" * (n + 1) + "z" + ")" * (n + 1), "+" * (n + 1) + "z"):
        with pytest.raises(ExpressionParseError):
            parse_expression(text)


def test_expression_round_trips_through_str():
    rng = np.random.default_rng(19)
    for _ in range(20):
        e = _random_expr(rng)
        back = parse_expression(str(e))
        z = complex(rng.normal(), rng.normal()) * 0.3
        assert abs(e.eval(z) - back.eval(z)) < 1e-12 * max(1.0, abs(e.eval(z)))


def test_conjugated_expression_reflects():
    e = parse_expression("(1+2i)*z^2 - exp(0.5i*z)")
    ec = e.conjugated()
    for z in [0.3 + 0.4j, -1.2j, 2.0]:
        assert abs(ec.eval(np.conj(z)) - np.conj(e.eval(z))) < 1e-14
