"""Closed-form complex expressions and exact Taylor-jet arithmetic.

An :class:`AnalyticExpr` is a small expression tree (constants, ``z``,
``+ - * /``, integer powers, ``exp``) describing a meromorphic function of
one complex variable.  :func:`eval_jet` evaluates such an expression as a
truncated Taylor series at a point, which is how every value (row 0) and
derivative in the library is produced: no symbolic algebra, no differencing.

A :class:`Jet` is nothing but its array of *Taylor coefficients*
``coeffs[k] = f^(k)(z0) / k!`` rather than raw derivatives, so the
arithmetic recurrences stay overflow-free; use :meth:`Jet.derivative` to
recover ``f^(k)`` (the ``k!`` conversion lives there and nowhere else).
Jets combine through :func:`jet_add`, :func:`jet_sub`, :func:`jet_mul`,
:func:`jet_div`, :func:`jet_exp` and :func:`jet_pow`.

Coefficient arrays may carry an arbitrary trailing shape, so one call can
evaluate jets on a whole grid of base points at once.

Text is read by a regular-expression tokenizer and a recursive-descent
parser; one table of the four binary operators serves the parser, the
printer, jet evaluation and constant folding.
"""

from __future__ import annotations

import operator
import re

import numpy as np

from .errors import ExpressionParseError, OrderOverflow, PoleAtPoint

#: Largest jet order callers may request (third derivatives of the Gauss
#: map need 3; pole probes get headroom).
MAX_JET_ORDER = 8

# Internal evaluation may exceed MAX_JET_ORDER temporarily while absorbing
# removable-singularity cancellation, up to this hard cap.
_INTERNAL_ORDER_CAP = 24

_NO_POINTS = np.zeros(0, dtype=np.intp)

#: Deepest tree, or nesting of brackets and signs, that the parser accepts.
MAX_EXPR_DEPTH = 100

# Relative threshold below which a leading coefficient counts as vanishing
# (relative to the largest coefficient magnitude of the same jet).
_CANCEL_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class AnalyticExpr:
    """A closed-form meromorphic function of one complex variable.

    Build expressions from the module-level variable :data:`Z` and the
    helpers :func:`const` and :func:`exp`, or parse them from text with
    :func:`parse_expression`.  Instances are immutable and hashable by
    identity.  Its value is row 0 of its jet (:meth:`eval`).

    The binary operators fold as they build: an operator may return a
    new tree, a folded constant or one of its operands (see :func:`_fold`).
    So 0 * e is 0 even where e has a pole: the product is taken as the
    meromorphic function it is, whose singularity there is removable.  A
    quotient by the constant 0 is not folded and stays a pole at every
    point.  ``-e``, ``e ** n`` and :func:`exp` build their node as written.
    The depth bound of :func:`parse_expression` applies to the folded tree,
    the one that evaluation recurses over.
    """

    __slots__ = ("kind", "value", "args", "depth")

    def __init__(self, kind: str, value=None, args: tuple = ()):
        self.kind = kind
        self.value = value
        self.args = args
        self.depth = 1 + max((a.depth for a in args), default=0)

    # -- construction -------------------------------------------------------

    @staticmethod
    def _wrap(other) -> "AnalyticExpr":
        if isinstance(other, AnalyticExpr):
            return other
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return AnalyticExpr("const", complex(other))
        raise TypeError(f"cannot use {type(other).__name__} in an expression")

    def __add__(self, other):
        return _fold("add", self, self._wrap(other))

    def __radd__(self, other):
        return _fold("add", self._wrap(other), self)

    def __sub__(self, other):
        return _fold("sub", self, self._wrap(other))

    def __rsub__(self, other):
        return _fold("sub", self._wrap(other), self)

    def __mul__(self, other):
        return _fold("mul", self, self._wrap(other))

    def __rmul__(self, other):
        return _fold("mul", self._wrap(other), self)

    def __truediv__(self, other):
        return _fold("div", self, self._wrap(other))

    def __rtruediv__(self, other):
        return _fold("div", self._wrap(other), self)

    def __neg__(self):
        return AnalyticExpr("neg", args=(self,))

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("only integer powers are supported")
        return AnalyticExpr("pow", value=int(n), args=(self,))

    # -- evaluation ----------------------------------------------------------

    def eval(self, z):
        """Row 0 of ``eval_jet(self, z, 0)``: a complex for a scalar ``z``
        (a pole raises PoleAtPoint), an ndarray otherwise (NaN at a pole)."""
        value = eval_jet(self, z, 0).value
        return value if isinstance(z, np.ndarray) else complex(value)

    __call__ = eval

    # -- structure -----------------------------------------------------------

    def conjugated(self) -> "AnalyticExpr":
        """The reflected expression e*(z) := conj(e(conj(z))).

        Obtained by conjugating every constant in the tree; used to test
        reflection invariance of pointwise norms.
        """
        if self.kind == "const":
            return AnalyticExpr("const", np.conj(self.value))
        return AnalyticExpr(self.kind, self.value, tuple(a.conjugated() for a in self.args))

    def __repr__(self):
        return f"AnalyticExpr({self!s})"

    def __str__(self):
        return _format_expr(self)


#: The complex coordinate: building block for all expressions.
Z = AnalyticExpr("z")


def const(c) -> AnalyticExpr:
    """A constant expression."""
    return AnalyticExpr("const", complex(c))


def exp(e) -> AnalyticExpr:
    """exp of an expression."""
    return AnalyticExpr("exp", args=(AnalyticExpr._wrap(e),))


# The binary operators by node kind: their function and their symbol in the grammar.
_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _fold(kind: str, a: AnalyticExpr, b: AnalyticExpr) -> AnalyticExpr:
    """The tree of ``a kind b``, folded: two constants become one (except a
    quotient by zero), a product with 0 becomes 0, and a product or
    quotient by 1 or a sum or difference with 0 returns the other operand.
    0 - e stays a difference: 0 - x and -x differ in the sign of a zero.
    Constants fold by Python's complex arithmetic, which may round a product
    or quotient one bit apart from numpy's (numpy divides by multiplying
    with a reciprocal)."""
    ca = a.value if a.kind == "const" else None
    cb = b.value if b.kind == "const" else None
    if ca is not None and cb is not None and not (kind == "div" and cb == 0):
        return const(_ARITHMETIC[kind](ca, cb))
    if kind == "mul" and (ca == 0 or cb == 0):
        return const(0.0)
    if (kind == "mul" and ca == 1) or (kind == "add" and ca == 0):
        return b
    if (kind in ("mul", "div") and cb == 1) or (kind in ("add", "sub") and cb == 0):
        return a
    return AnalyticExpr(kind, args=(a, b))


def _format_expr(e: AnalyticExpr) -> str:
    """Render in the input grammar (fully parenthesized where needed)."""
    k = e.kind
    if k == "const":
        c = e.value
        re_, im_ = c.real, c.imag
        if im_ == 0:
            return repr(re_)
        if re_ == 0:
            return f"{im_!r}i"
        sign = "+" if im_ >= 0 else "-"
        return f"({re_!r}{sign}{abs(im_)!r}i)"
    if k == "z":
        return "z"
    if k in _SYMBOL:
        return f"({_format_expr(e.args[0])} {_SYMBOL[k]} {_format_expr(e.args[1])})"
    if k == "neg":
        return f"(-{_format_expr(e.args[0])})"
    if k == "pow":
        return f"{_format_expr(e.args[0])}^({e.value})"
    if k == "exp":
        return f"exp({_format_expr(e.args[0])})"
    raise AssertionError(k)


# ---------------------------------------------------------------------------
# Parser for the plain-text grammar
# ---------------------------------------------------------------------------
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := ('-'|'+') unary | postfix
#   postfix:= atom ('^' int)?          (int optionally signed/parenthesized)
#   atom   := NUMBER['i'] | 'i' | 'z' | 'exp' '(' expr ')' | '(' expr ')'
#
# A NUMBER is digits and dots, starting with a digit or a dot and a digit,
# with an optional exponent; float() judges it, and one it takes to inf is
# refused.  A name is a letter and then letters or digits.  Whitespace
# separates tokens; any other character is refused.

_TOKEN = re.compile(
    r"(?P<num>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?i?)|(?P<name>[^\W\d_][^\W_]*)|(?P<op>[-+*/^()])|(?P<space>\s+)|(?P<bad>.)",
    re.DOTALL,
)


class _Tokens:
    """The tokens of a text, ending in ("end", None): ("num", complex),
    ("name", str) and (op, None) for each op of ``+-*/^()``."""

    def __init__(self, text: str):
        self.toks = []
        for m in _TOKEN.finditer(text):
            kind, s = m.lastgroup, m.group()
            if kind == "num":
                try:
                    val = float(s.rstrip("i"))
                except ValueError as exc:
                    raise ExpressionParseError(f"bad number at position {m.start()}: {s!r}") from exc
                if np.isinf(val):
                    raise ExpressionParseError(f"number out of range at position {m.start()}: {s!r}")
                self.toks.append(("num", complex(0.0, val) if s[-1] == "i" else complex(val, 0.0)))
            elif kind == "bad":
                raise ExpressionParseError(f"unexpected character {s!r} at position {m.start()}")
            elif kind != "space":
                self.toks.append((s, None) if kind == "op" else (kind, s))
        self.toks.append(("end", None))
        self.idx = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.toks[self.idx][0]

    def accept(self, kind: str) -> bool:
        """Take the next token if it is of ``kind``."""
        taken = self.peek() == kind
        self.idx += taken
        return taken

    def next(self):
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str):
        got = self.next()[0]
        if got != kind:
            raise ExpressionParseError(f"expected {kind!r}, got {got!r}")


def parse_expression(text: str) -> AnalyticExpr:
    """Parse the plain-text grammar: literals ``a+bi``, ``+ - * / ^``,
    ``exp(...)`` and the variable ``z``.  Example: ``(1+0.5i)*z^2 - exp(-z)``.
    A tree deeper than :data:`MAX_EXPR_DEPTH` is refused.
    """
    toks = _Tokens(text)
    e = _parse_binary(toks, 0)
    if toks.peek() != "end":
        raise ExpressionParseError(f"trailing input near token {toks.peek()!r}")
    if e.depth > MAX_EXPR_DEPTH:  # a long chain of + or * is as deep as it is long
        raise ExpressionParseError(f"expression deeper than {MAX_EXPR_DEPTH} levels")
    return e


_LEVELS = ("+-", "*/")  # the operator symbols of expr and of term
_KIND = {symbol: kind for kind, symbol in _SYMBOL.items()}


def _parse_binary(toks: _Tokens, nesting: int, level: int = 0) -> AnalyticExpr:
    """expr (level 0) or term (level 1): operands joined left to right."""
    def operand():
        return _parse_binary(toks, nesting, 1) if level == 0 else _parse_unary(toks, nesting)

    e = operand()
    while toks.peek() in _LEVELS[level]:
        e = _fold(_KIND[toks.next()[0]], e, operand())
    return e


def _parse_unary(toks: _Tokens, nesting: int) -> AnalyticExpr:
    # brackets and signs may build no tree level; bound the parser's recursion
    if nesting > MAX_EXPR_DEPTH:
        raise ExpressionParseError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
    if toks.accept("-"):
        return -_parse_unary(toks, nesting + 1)
    if toks.accept("+"):
        return _parse_unary(toks, nesting + 1)
    e = _parse_atom(toks, nesting)
    return e ** _parse_int_exponent(toks) if toks.accept("^") else e


def _parse_int_exponent(toks: _Tokens) -> int:
    paren = toks.accept("(")
    sign = -1 if toks.accept("-") else 1
    kind, val = toks.next()
    if kind != "num" or val.imag != 0 or val.real != int(val.real):
        raise ExpressionParseError("exponent must be an integer")
    if paren:
        toks.expect(")")
    return sign * int(val.real)


def _parse_atom(toks: _Tokens, nesting: int) -> AnalyticExpr:
    kind, val = toks.next()
    if kind == "num":
        return AnalyticExpr("const", val)
    if kind == "name":
        if val == "z":
            return Z
        if val == "i":
            return AnalyticExpr("const", 1j)
        if val == "exp":
            toks.expect("(")
            inner = _parse_binary(toks, nesting + 1)
            toks.expect(")")
            return exp(inner)
        raise ExpressionParseError(f"unknown name {val!r}")
    if kind == "(":
        inner = _parse_binary(toks, nesting + 1)
        toks.expect(")")
        return inner
    raise ExpressionParseError(f"unexpected token {kind!r}")


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

class Jet:
    """Truncated Taylor series: ``coeffs[k]`` is the k-th *Taylor
    coefficient* f^(k)(z0)/k! at the base point z0, which the jet does not
    keep.  The leading axis of ``coeffs`` indexes the order; any trailing
    axes carry a grid of base points evaluated simultaneously.  Jets have
    no operators: combine them with :func:`jet_add` ... :func:`jet_pow`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        if self.coeffs.shape[0] < 1:
            raise ValueError("a jet needs at least its value")

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def value(self):
        """f(z0)."""
        return self.coeffs[0]

    def derivative(self, k: int):
        """f^(k)(z0) = k! * coeffs[k] (the only place the k! lives)."""
        if k > self.order:
            raise OrderOverflow(f"jet of order {self.order} has no derivative {k}")
        return self.coeffs[k] * _FACTORIAL[k]

    def derivative_jet(self) -> "Jet":
        """Jet of f' at the same base point, one order lower."""
        if self.order < 1:
            raise OrderOverflow("need order >= 1 to differentiate a jet")
        k = np.arange(1, self.order + 1, dtype=np.float64)
        return Jet(self.coeffs[1:] * k.reshape((-1,) + (1,) * (self.coeffs.ndim - 1)))

    def __repr__(self):
        return f"Jet({self.coeffs!r})"


_FACTORIAL = np.array([float(np.prod(np.arange(1, k + 1))) if k else 1.0 for k in range(_INTERNAL_ORDER_CAP + 1)])


def jet_add(a: Jet, b: Jet) -> Jet:
    m = min(a.order, b.order)
    return Jet(a.coeffs[: m + 1] + b.coeffs[: m + 1])


def jet_sub(a: Jet, b: Jet) -> Jet:
    m = min(a.order, b.order)
    return Jet(a.coeffs[: m + 1] - b.coeffs[: m + 1])


def jet_mul(a: Jet, b: Jet) -> Jet:
    m = min(a.order, b.order)
    ac, bc = a.coeffs, b.coeffs
    out = np.zeros((m + 1,) + np.broadcast_shapes(ac.shape[1:], bc.shape[1:]), dtype=np.complex128)
    for n in range(m + 1):
        acc = ac[0] * bc[n]
        for j in range(1, n + 1):
            acc = acc + ac[j] * bc[n - j]
        out[n] = acc
    return Jet(out)


def jet_div(a: Jet, b: Jet) -> Jet:
    """Truncated quotient a/b to the common order, base point by base point.

    Where the denominator vanishes to some order k and the numerator at
    least as fast (a removable singularity), both are shifted by k: that
    point has NaN in its last k rows, and every other point keeps its full
    jet.  Vanishing is judged relative to the largest coefficient magnitude
    (threshold 1e-12); rows already lost (NaN) do not count.  Where the
    denominator vanishes to every kept order, or faster than the numerator,
    the quotient is NaN at that point.
    """
    return Jet(_quotient(a, b)[0])


def _quotient(a: Jet, b: Jet):
    """(coeffs of a/b, mask of the points where more orders could help: those
    that lost orders and those where b showed no nonzero coefficient)."""
    m = min(a.order, b.order)
    shape = np.broadcast_shapes(a.coeffs.shape[1:], b.coeffs.shape[1:])
    ac = np.broadcast_to(a.coeffs[: m + 1], (m + 1,) + shape)
    bc = np.broadcast_to(b.coeffs[: m + 1], (m + 1,) + shape)

    bmag = np.abs(bc)
    bmax = np.fmax.reduce(bmag, axis=0)
    poles = ~(bmax > 0.0)  # no nonzero coefficient, or none but NaN
    # b's lead order is 0 where |b0| is significant; search only the other
    # points, among them those where b0 is NaN (NaN compares false)
    small = ~(bmag[0] > _CANCEL_RTOL * bmax) & ~poles
    lead_b = np.zeros(shape, dtype=np.intp)
    if small.any():
        lead_b[small] = np.argmax(bmag[:, small] > _CANCEL_RTOL * bmax[small], axis=0)

    if np.any(lead_b > 0):
        amag = np.abs(ac)
        amax = np.fmax.reduce(amag, axis=0)
        asig = amag > _CANCEL_RTOL * np.where(amax > 0, amax, 1.0)
        lead_a = np.where(asig.any(axis=0), np.argmax(asig, axis=0), m + 1)
        deeper = lead_b > lead_a
        poles = poles | deeper
        lead_b = np.where(deeper, 0, lead_b)
        kmax = int(lead_b.max())
        if kmax:
            pad = np.full((kmax,) + shape, np.nan, dtype=np.complex128)
            idx = np.arange(m + 1).reshape((m + 1,) + (1,) * len(shape)) + lead_b[None, ...]
            idx = np.broadcast_to(idx, (m + 1,) + shape)
            ac = np.take_along_axis(np.concatenate([ac, pad]), idx, axis=0)
            bc = np.take_along_axis(np.concatenate([bc, pad]), idx, axis=0)

    out = np.zeros((m + 1,) + shape, dtype=np.complex128)
    with np.errstate(all="ignore"):
        b0 = np.where(poles, 1.0, bc[0])
        for n in range(m + 1):
            acc = ac[n]
            for j in range(1, n + 1):
                acc = acc - bc[j] * out[n - j]
            out[n] = acc / b0
    if np.any(poles):
        out[:, poles] = np.nan
    return out, (bmax == 0.0) | (lead_b > 0)


def jet_exp(a: Jet) -> Jet:
    m = a.order
    ac = a.coeffs
    out = np.zeros_like(ac)
    out[0] = np.exp(ac[0])
    for n in range(1, m + 1):
        acc = ac[n] * out[0] * n
        for k in range(1, n):
            acc = acc + k * ac[k] * out[n - k]
        out[n] = acc / n
    return Jet(out)


def jet_pow(a: Jet, n: int) -> Jet:
    if n == 0:
        coeffs = np.zeros_like(a.coeffs)
        coeffs[0] = 1.0
        return Jet(coeffs)
    if n < 0:
        return jet_div(jet_pow(a, 0), jet_pow(a, -n))
    result = None
    base = a
    k = n
    while k:
        if k & 1:
            result = base if result is None else jet_mul(result, base)
        k >>= 1
        if k:
            base = jet_mul(base, base)
    return result


# ---------------------------------------------------------------------------
# Expression -> jet evaluation
# ---------------------------------------------------------------------------

def eval_jet(expr: AnalyticExpr, z, order: int) -> Jet:
    """Taylor jet of ``expr`` at ``z`` up to ``order``.

    ``z`` may be a complex scalar or an ndarray of points (the jet then
    carries one expansion per point); a scalar is evaluated as a one-point
    array, so both give the same coefficients.  Every point is evaluated
    once.  A point that lost orders to a removable zero of a denominator
    (see :func:`jet_div`), or where a denominator vanished to every kept
    order, is evaluated again, alone, at doubling order up to
    ``_INTERNAL_ORDER_CAP`` until its ``order + 1`` coefficients are
    finite.  A point that stays singular is NaN in an array; a scalar
    raises :class:`~entropydiff.errors.PoleAtPoint`, also where its value
    overflowed to NaN.  Overflow gives inf/NaN without a warning, and an
    overflowed point is not evaluated again.
    """
    if order < 0:
        raise OrderOverflow("jet order must be nonnegative")
    if order > MAX_JET_ORDER:
        raise OrderOverflow(f"jet order {order} above the supported maximum {MAX_JET_ORDER}")
    zz = np.asarray(z, dtype=np.complex128)
    points = zz.reshape(-1)
    # todo: the points still short of finite coefficients; None before the first pass
    coeffs, todo, attempt = None, None, order
    while True:
        vanished = []
        with np.errstate(all="ignore"):  # overflow and poles surface as inf/NaN
            jet = _eval_jet_tree(expr, points if todo is None else points[todo], attempt, vanished)
        marked = np.flatnonzero(np.any(vanished, axis=0)) if vanished else _NO_POINTS
        short = marked[~np.isfinite(jet.coeffs[: order + 1, marked]).all(axis=0)]
        if todo is None:
            coeffs, todo = jet.coeffs, short
        else:
            coeffs[:, todo] = jet.coeffs[: order + 1]
            todo = todo[short]
        if not todo.size or attempt == _INTERNAL_ORDER_CAP:
            break
        attempt = min(max(2 * attempt, attempt + 2), _INTERNAL_ORDER_CAP)
    coeffs = coeffs.reshape((order + 1,) + zz.shape)
    if zz.ndim == 0 and np.isnan(coeffs[0]):
        raise PoleAtPoint(f"expression is singular at {complex(zz)}")
    return Jet(coeffs)


def _eval_jet_tree(expr: AnalyticExpr, z: np.ndarray, order: int, vanished: list) -> Jet:
    """The jet of ``expr`` at the points ``z``.  Each division appends to
    ``vanished`` a mask of the points where more orders could help: those
    that lost orders to a removable zero, and those where the denominator
    showed no nonzero coefficient.  A nonzero finite constant c in a product
    or as a divisor is a scalar: c * e and e * c give e's coefficients
    times c, e / c gives them over c, as :func:`jet_mul` and
    :func:`jet_div` of e with c's jet do on finite jets.  (numpy's fused
    complex product may round c * e and e * c apart in the last bit.)
    A constant addend c takes one pass over e's coefficients: c + e is
    0.0 + e, e + c is e + 0.0, e - c is e - 0.0 and c - e is 0.0 - e, with c
    put into row 0 alone.  These are the bits of :func:`jet_add` and
    :func:`jet_sub` against c's jet, signed zeros included.  A quotient by
    zero stays a pole at every point."""
    kind = expr.kind
    if kind in ("const", "z"):
        coeffs = np.zeros((order + 1,) + z.shape, dtype=np.complex128)
        coeffs[0] = expr.value if kind == "const" else z
        if kind == "z" and order >= 1:
            coeffs[1] = 1.0
        return Jet(coeffs)
    if kind in _ARITHMETIC:
        a, b = expr.args
        op = _ARITHMETIC[kind]
        if kind in ("add", "sub") and "const" in (a.kind, b.kind):
            first = a.kind == "const"  # c + e or c - e
            e = _eval_jet_tree(b if first else a, z, order, vanished).coeffs
            coeffs = op(0.0, e) if first else op(e, 0.0)
            coeffs[0] = op(a.value, e[0]) if first else op(e[0], b.value)
            return Jet(coeffs)
        if kind == "mul" and _is_scale(a):
            a, b = b, a
        if kind in ("mul", "div") and _is_scale(b):
            return Jet(op(_eval_jet_tree(a, z, order, vanished).coeffs, b.value))
        ja, jb = _eval_jet_tree(a, z, order, vanished), _eval_jet_tree(b, z, order, vanished)
        if kind != "div":
            return {"add": jet_add, "sub": jet_sub, "mul": jet_mul}[kind](ja, jb)
        coeffs, deepen = _quotient(ja, jb)
        if deepen.any():
            vanished.append(deepen)
        return Jet(coeffs)
    if kind == "neg":
        return Jet(-_eval_jet_tree(expr.args[0], z, order, vanished).coeffs)
    if kind == "pow":
        return jet_pow(_eval_jet_tree(expr.args[0], z, order, vanished), expr.value)
    if kind == "exp":
        return jet_exp(_eval_jet_tree(expr.args[0], z, order, vanished))
    raise AssertionError(f"unknown node kind {kind!r}")


def _is_scale(e: AnalyticExpr) -> bool:
    """A nonzero finite constant, applied to a jet as a scalar."""
    return e.kind == "const" and e.value != 0 and bool(np.isfinite(e.value))
