"""Jet arithmetic and expression-grammar tests."""

import numpy as np
import pytest

from entropydiff import jets
from entropydiff.errors import ExpressionParseError, OrderOverflow, PoleAtPoint
from entropydiff.jets import (
    MAX_JET_ORDER,
    Z,
    const,
    eval_jet,
    exp,
    jet_div,
    jet_exp,
    jet_mul,
    parse_expression,
)


def test_exp_series_at_zero():
    jet = eval_jet(exp(Z), 0.0, 3)
    np.testing.assert_allclose(jet.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0], rtol=0, atol=1e-15)


def test_square_at_complex_point():
    jet = eval_jet(Z**2, 1 + 1j, 2)
    np.testing.assert_allclose(jet.coeffs, [2j, 2 + 2j, 1.0], rtol=0, atol=1e-15)


def test_deformed_catenoid_gauss_map_jet():
    # (t - e^z)/(1 - t e^z) at z=0 with t=1/2; quotient rule gives
    # G(0) = -1 and G'(0) = (t^2-1)/(1-t)^2 = -3.
    t = 0.5
    g = (const(t) - exp(Z)) / (const(1.0) - const(t) * exp(Z))
    jet = eval_jet(g, 0.0, 1)
    np.testing.assert_allclose(jet.coeffs, [-1.0, -3.0], rtol=1e-14, atol=1e-14)


def test_removable_singularity_division():
    # z^2 / z at 0 is z; the requested order survives the cancellation.
    jet = eval_jet(Z**2 / Z, 0.0, 2)
    np.testing.assert_allclose(jet.coeffs, [0.0, 1.0, 0.0], rtol=0, atol=1e-15)


def test_quotient_keeps_every_order_away_from_a_removable_zero():
    # z e^z / z: only the node at 0 loses an order to the cancellation
    z = np.array([0.0, 0.5, 1.0 + 1.0j])
    num, den = eval_jet(Z * exp(Z), z, 3), eval_jet(Z, z, 3)
    coeffs = jet_div(num, den).coeffs
    assert coeffs.shape == (4, 3)
    np.testing.assert_allclose(coeffs[:, 1:], eval_jet(exp(Z), z[1:], 3).coeffs, rtol=1e-14, atol=0)
    np.testing.assert_allclose(coeffs[:3, 0], [1.0, 1.0, 0.5], rtol=0, atol=1e-15)
    assert np.isnan(coeffs[3, 0])


def test_exp_times_exp_inverse_is_one():
    a = eval_jet(exp(Z), 0.0, 4)
    b = eval_jet(exp(-Z), 0.0, 4)
    np.testing.assert_allclose(jet_mul(a, b).coeffs, [1, 0, 0, 0, 0], rtol=0, atol=1e-15)


def test_jet_exp_of_identity():
    jet = jet_exp(eval_jet(Z, 0.0, 2))
    np.testing.assert_allclose(jet.coeffs, [1.0, 1.0, 0.5], rtol=0, atol=1e-15)


def test_true_pole_raises():
    # a scalar raises; in an array the pole is NaN and the other points keep their values
    for e in (const(1.0) / Z, Z / Z**2):
        for order in range(4):
            with pytest.raises(PoleAtPoint):
                eval_jet(e, 0.0, order)
            jet = eval_jet(e, np.array([0.5, 0.0]), order)
            assert np.all(np.isnan(jet.coeffs[:, 1]))
            np.testing.assert_array_equal(jet.coeffs[:, 0], eval_jet(e, 0.5, order).coeffs)


def test_order_overflow():
    with pytest.raises(OrderOverflow):
        eval_jet(Z, 0.0, MAX_JET_ORDER + 1)


def test_derivative_conversion_factor():
    # coeffs store f^(k)/k!; derivative() multiplies the k! back in.
    jet = eval_jet(exp(const(2.0) * Z), 0.0, 4)
    for k in range(5):
        np.testing.assert_allclose(jet.derivative(k), 2.0**k, rtol=1e-14)


def test_vectorized_base_points():
    zs = np.array([0.0, 1.0, 1j, 0.5 - 0.25j])
    jet = eval_jet(exp(Z) * Z, zs, 2)
    np.testing.assert_allclose(jet.coeffs[0], zs * np.exp(zs), rtol=1e-14)
    np.testing.assert_allclose(jet.coeffs[1], (1 + zs) * np.exp(zs), rtol=1e-14)


def test_vectorized_cancellation_mixed_points():
    # h/G for Enneper-type data: z/z cancels at the origin node only.
    zs = np.array([0.0, 0.5, -1.0 + 0.5j])
    jet = eval_jet(Z / Z, zs, 1)
    np.testing.assert_allclose(jet.coeffs[0], np.ones(3), rtol=0, atol=1e-14)
    np.testing.assert_allclose(jet.coeffs[1], np.zeros(3), rtol=0, atol=1e-14)


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
        direct = e.eval(z)
        jet = eval_jet(e, z, 3)
        assert abs(jet.coeffs[0] - direct) <= 1e-13 * max(1.0, abs(direct))


def test_first_derivative_matches_central_difference():
    rng = np.random.default_rng(11)
    delta = 1e-5
    for _ in range(60):
        e = _random_expr(rng)
        z = complex(rng.normal(), rng.normal()) * 0.5
        jet = eval_jet(e, z, 2)
        fd = (e.eval(z + delta) - e.eval(z - delta)) / (2 * delta)
        scale = max(1.0, abs(fd))
        assert abs(jet.derivative(1) - fd) < 1e-6 * scale


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
                point = eval_jet(e, z0, order).coeffs
                grid = eval_jet(e, zs, order).coeffs
                assert np.all(np.isfinite(point)), (str(e), order)
                np.testing.assert_array_equal(grid[:, 1], point, err_msg=f"{e} at order {order}")
                np.testing.assert_allclose(point[0], f.eval(z0), rtol=1e-9, atol=1e-12)


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
        assert passes == [2] and np.isnan(jet.coeffs[0, 0]) and np.isfinite(jet.coeffs[0, 1])
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
    np.testing.assert_allclose(jet.coeffs, eval_jet(Z, zs, 2).coeffs, rtol=0, atol=1e-14)


def test_nested_removable_quotients_cancel():
    # the inner quotients lose an order at 0; the outer one still cancels
    zs = np.array([0.0, 0.5, -1.0 + 0.5j])
    for e in ((Z**2 / Z) / (Z**2 / Z), Z / (Z**2 / Z), (Z**3 / Z) / Z**2):
        for order in range(4):
            np.testing.assert_allclose(eval_jet(e, zs, order).coeffs, eval_jet(const(1.0), zs, order).coeffs, rtol=1e-14, atol=1e-14)
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
        ab_c = jet_mul(jet_mul(a, b), c).coeffs
        a_bc = jet_mul(a, jet_mul(b, c)).coeffs
        np.testing.assert_allclose(ab_c, a_bc, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(jet_mul(a, b).coeffs, jet_mul(b, a).coeffs, rtol=1e-13, atol=1e-13)
        lhs = jet_mul(a, b + c).coeffs
        rhs = (jet_mul(a, b) + jet_mul(a, c)).coeffs
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_division_inverts_multiplication():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a, b = _random_jet(rng), _random_jet(rng)
        if abs(b.coeffs[0]) < 0.1:
            continue
        back = jet_div(jet_mul(a, b), b)
        np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=1e-10, atol=1e-10)


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
            got = jet.coeffs[k]
            want = complex(coeffs[k])
            assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (z0, k)


def test_deep_cancellation_orders():
    # z^5 / z^5 = 1 and z^6/z^3 = z^3 need several retry rounds
    jet = eval_jet(Z**5 / Z**5, 0.0, 3)
    np.testing.assert_allclose(jet.coeffs, [1, 0, 0, 0], rtol=0, atol=1e-14)
    jet = eval_jet(Z**6 / Z**3, 0.0, 4)
    np.testing.assert_allclose(jet.coeffs, [0, 0, 0, 1, 0], rtol=0, atol=1e-14)
    # nested removable singularities in both factors
    jet = eval_jet((Z**2 / Z) * (Z**3 / Z**2), 0.0, 3)
    np.testing.assert_allclose(jet.coeffs, [0, 0, 1, 0], rtol=0, atol=1e-14)


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
    np.testing.assert_allclose(jet.coeffs, [-1.0, -3.0], rtol=1e-14)


def test_parse_errors():
    for bad in ["z +", "exp(z", "2**z", "q", "z^i", "1..2"]:
        with pytest.raises(ExpressionParseError):
            parse_expression(bad)


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
