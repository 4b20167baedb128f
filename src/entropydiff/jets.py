"""Closed-form complex expressions and exact Taylor-jet arithmetic.

An :class:`AnalyticExpr` is a small expression tree (constants, ``z``,
``+ - * /``, integer powers, ``exp``) describing a meromorphic function of
one complex variable.  :func:`eval_jet` evaluates such an expression as a
truncated Taylor series at a point, which is how every derivative in the
library is produced: no symbolic algebra, no finite differencing.

Jets store *Taylor coefficients* ``coeffs[k] = f^(k)(z0) / k!`` rather than
raw derivatives, so the arithmetic recurrences stay overflow-free; use
:meth:`Jet.derivative` to recover ``f^(k)`` (the ``k!`` conversion lives
there and nowhere else).

Coefficient arrays may carry an arbitrary trailing shape, so one call can
evaluate jets on a whole grid of base points at once.
"""

from __future__ import annotations

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
    identity; all operators return new trees.
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
        return AnalyticExpr("add", args=(self, self._wrap(other)))

    def __radd__(self, other):
        return AnalyticExpr("add", args=(self._wrap(other), self))

    def __sub__(self, other):
        return AnalyticExpr("sub", args=(self, self._wrap(other)))

    def __rsub__(self, other):
        return AnalyticExpr("sub", args=(self._wrap(other), self))

    def __mul__(self, other):
        return AnalyticExpr("mul", args=(self, self._wrap(other)))

    def __rmul__(self, other):
        return AnalyticExpr("mul", args=(self._wrap(other), self))

    def __truediv__(self, other):
        return AnalyticExpr("div", args=(self, self._wrap(other)))

    def __rtruediv__(self, other):
        return AnalyticExpr("div", args=(self._wrap(other), self))

    def __neg__(self):
        return AnalyticExpr("neg", args=(self,))

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("only integer powers are supported")
        return AnalyticExpr("pow", value=int(n), args=(self,))

    # -- evaluation ----------------------------------------------------------

    def eval(self, z):
        """Evaluate directly at ``z`` (scalar or ndarray).

        Division by zero yields inf/nan silently; callers that care check
        finiteness.  For jet evaluation (derivatives, pole cancellation)
        use :func:`eval_jet`.
        """
        scalar = not isinstance(z, np.ndarray)
        zz = np.asarray(z, dtype=np.complex128)
        with np.errstate(all="ignore"):
            out = self._eval(zz)
        out = np.asarray(out, dtype=np.complex128)
        return complex(out) if scalar else out

    __call__ = eval

    def _eval(self, z):
        kind = self.kind
        if kind == "const":
            return np.broadcast_to(np.complex128(self.value), z.shape)
        if kind == "z":
            return z
        if kind == "add":
            return self.args[0]._eval(z) + self.args[1]._eval(z)
        if kind == "sub":
            return self.args[0]._eval(z) - self.args[1]._eval(z)
        if kind == "mul":
            return self.args[0]._eval(z) * self.args[1]._eval(z)
        if kind == "div":
            return self.args[0]._eval(z) / self.args[1]._eval(z)
        if kind == "neg":
            return -self.args[0]._eval(z)
        if kind == "pow":
            return self.args[0]._eval(z) ** self.value
        if kind == "exp":
            return np.exp(self.args[0]._eval(z))
        raise AssertionError(f"unknown node kind {kind!r}")

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
    if k == "add":
        return f"({_format_expr(e.args[0])} + {_format_expr(e.args[1])})"
    if k == "sub":
        return f"({_format_expr(e.args[0])} - {_format_expr(e.args[1])})"
    if k == "mul":
        return f"({_format_expr(e.args[0])} * {_format_expr(e.args[1])})"
    if k == "div":
        return f"({_format_expr(e.args[0])} / {_format_expr(e.args[1])})"
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
#   unary  := '-' unary | postfix
#   postfix:= atom ('^' int)?          (int optionally signed/parenthesized)
#   atom   := NUMBER['i'] | 'i' | 'z' | 'exp' '(' expr ')' | '(' expr ')'

class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.toks: list[tuple[str, object]] = []
        self._scan()
        self.idx = 0

    def _scan(self):
        s, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = s[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^()":
                self.toks.append((c, None))
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and s[i + 1].isdigit()):
                j = i
                while j < n and (s[j].isdigit() or s[j] == "."):
                    j += 1
                if j < n and s[j] in "eE" and j + 1 < n and (s[j + 1].isdigit() or (s[j + 1] in "+-" and j + 2 < n and s[j + 2].isdigit())):
                    j += 2
                    while j < n and s[j].isdigit():
                        j += 1
                try:
                    val = float(s[i:j])
                except ValueError as exc:
                    raise ExpressionParseError(f"bad number at position {i}: {s[i:j]!r}") from exc
                if j < n and s[j] == "i":
                    self.toks.append(("num", complex(0.0, val)))
                    j += 1
                else:
                    self.toks.append(("num", complex(val, 0.0)))
                i = j
                continue
            if c.isalpha():
                j = i
                while j < n and s[j].isalnum():
                    j += 1
                self.toks.append(("name", s[i:j]))
                i = j
                continue
            raise ExpressionParseError(f"unexpected character {c!r} at position {i}")
        self.toks.append(("end", None))

    def peek(self):
        return self.toks[self.idx]

    def next(self):
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExpressionParseError(f"expected {kind!r}, got {tok[0]!r}")
        return tok


def parse_expression(text: str) -> AnalyticExpr:
    """Parse the plain-text grammar: literals ``a+bi``, ``+ - * / ^``,
    ``exp(...)`` and the variable ``z``.  Example: ``(1+0.5i)*z^2 - exp(-z)``.
    A tree deeper than :data:`MAX_EXPR_DEPTH` is refused.
    """
    toks = _Tokens(text)
    e = _parse_sum(toks, 0)
    if toks.peek()[0] != "end":
        raise ExpressionParseError(f"trailing input near token {toks.peek()[0]!r}")
    if e.depth > MAX_EXPR_DEPTH:  # a long chain of + or * is as deep as it is long
        raise ExpressionParseError(f"expression deeper than {MAX_EXPR_DEPTH} levels")
    return e


def _parse_sum(toks: _Tokens, nesting: int) -> AnalyticExpr:
    e = _parse_term(toks, nesting)
    while toks.peek()[0] in "+-":
        op = toks.next()[0]
        rhs = _parse_term(toks, nesting)
        e = e + rhs if op == "+" else e - rhs
    return e


def _parse_term(toks: _Tokens, nesting: int) -> AnalyticExpr:
    e = _parse_unary(toks, nesting)
    while toks.peek()[0] in "*/":
        op = toks.next()[0]
        rhs = _parse_unary(toks, nesting)
        e = e * rhs if op == "*" else e / rhs
    return e


def _parse_unary(toks: _Tokens, nesting: int) -> AnalyticExpr:
    # brackets and signs may build no tree level; bound the parser's recursion
    if nesting > MAX_EXPR_DEPTH:
        raise ExpressionParseError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
    if toks.peek()[0] == "-":
        toks.next()
        return -_parse_unary(toks, nesting + 1)
    if toks.peek()[0] == "+":
        toks.next()
        return _parse_unary(toks, nesting + 1)
    return _parse_postfix(toks, nesting)


def _parse_postfix(toks: _Tokens, nesting: int) -> AnalyticExpr:
    e = _parse_atom(toks, nesting)
    if toks.peek()[0] == "^":
        toks.next()
        e = e ** _parse_int_exponent(toks)
    return e


def _parse_int_exponent(toks: _Tokens) -> int:
    paren = toks.peek()[0] == "("
    if paren:
        toks.next()
    sign = 1
    if toks.peek()[0] == "-":
        toks.next()
        sign = -1
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
            inner = _parse_sum(toks, nesting + 1)
            toks.expect(")")
            return exp(inner)
        raise ExpressionParseError(f"unknown name {val!r}")
    if kind == "(":
        inner = _parse_sum(toks, nesting + 1)
        toks.expect(")")
        return inner
    raise ExpressionParseError(f"unexpected token {kind!r}")


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

class Jet:
    """Truncated Taylor series at a base point.

    ``coeffs[k]`` is the k-th *Taylor coefficient* f^(k)(base)/k!.  The
    leading axis of ``coeffs`` indexes the order; any trailing axes carry a
    grid of base points evaluated simultaneously.
    """

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        self.base = base
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        if self.coeffs.shape[0] < 1:
            raise ValueError("a jet needs at least its value")

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def value(self):
        """f(base)."""
        return self.coeffs[0]

    def derivative(self, k: int):
        """f^(k)(base) = k! * coeffs[k] (the only place the k! lives)."""
        if k > self.order:
            raise OrderOverflow(f"jet of order {self.order} has no derivative {k}")
        return self.coeffs[k] * _FACTORIAL[k]

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise OrderOverflow(f"cannot extend jet of order {self.order} to {order}")
        return Jet(self.base, self.coeffs[: order + 1])

    def derivative_jet(self) -> "Jet":
        """Jet of f' at the same base, one order lower."""
        if self.order < 1:
            raise OrderOverflow("need order >= 1 to differentiate a jet")
        k = np.arange(1, self.order + 1, dtype=np.float64)
        return Jet(self.base, self.coeffs[1:] * k.reshape((-1,) + (1,) * (self.coeffs.ndim - 1)))

    def __add__(self, other):
        return jet_add(self, _as_jet(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return jet_sub(self, _as_jet(other, self))

    def __rsub__(self, other):
        return jet_sub(_as_jet(other, self), self)

    def __mul__(self, other):
        return jet_mul(self, _as_jet(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return jet_div(self, _as_jet(other, self))

    def __rtruediv__(self, other):
        return jet_div(_as_jet(other, self), self)

    def __neg__(self):
        return Jet(self.base, -self.coeffs)

    def __repr__(self):
        return f"Jet(base={self.base!r}, coeffs={self.coeffs!r})"


_FACTORIAL = np.array([float(np.prod(np.arange(1, k + 1))) if k else 1.0 for k in range(_INTERNAL_ORDER_CAP + 1)])


def _as_jet(x, like: Jet) -> Jet:
    if isinstance(x, Jet):
        return x
    coeffs = np.zeros_like(like.coeffs)
    coeffs[0] = complex(x)
    return Jet(like.base, coeffs)


def _common_order(a: Jet, b: Jet) -> int:
    return min(a.order, b.order)


def jet_add(a: Jet, b: Jet) -> Jet:
    m = _common_order(a, b)
    return Jet(a.base, a.coeffs[: m + 1] + b.coeffs[: m + 1])


def jet_sub(a: Jet, b: Jet) -> Jet:
    m = _common_order(a, b)
    return Jet(a.base, a.coeffs[: m + 1] - b.coeffs[: m + 1])


def jet_mul(a: Jet, b: Jet) -> Jet:
    m = _common_order(a, b)
    ac, bc = a.coeffs, b.coeffs
    out = np.zeros((m + 1,) + np.broadcast_shapes(ac.shape[1:], bc.shape[1:]), dtype=np.complex128)
    for n in range(m + 1):
        acc = ac[0] * bc[n]
        for j in range(1, n + 1):
            acc = acc + ac[j] * bc[n - j]
        out[n] = acc
    return Jet(a.base, out)


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
    return Jet(a.base, _quotient(a, b)[0])


def _quotient(a: Jet, b: Jet):
    """(coeffs of a/b, mask of the points where more orders could help: those
    that lost orders and those where b showed no nonzero coefficient)."""
    m = _common_order(a, b)
    shape = np.broadcast_shapes(a.coeffs.shape[1:], b.coeffs.shape[1:])
    ac = np.broadcast_to(a.coeffs[: m + 1], (m + 1,) + shape).copy()
    bc = np.broadcast_to(b.coeffs[: m + 1], (m + 1,) + shape).copy()

    amag, bmag = np.abs(ac), np.abs(bc)
    bmax = np.fmax.reduce(bmag, axis=0)
    poles = ~(bmax > 0.0)  # no nonzero coefficient, or none but NaN
    bsig = bmag > _CANCEL_RTOL * np.where(bmax > 0, bmax, 1.0)
    lead_b = np.where(poles, 0, np.argmax(bsig, axis=0))

    if np.any(lead_b > 0):
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
    return Jet(a.base, out)


def jet_pow(a: Jet, n: int) -> Jet:
    if n == 0:
        coeffs = np.zeros_like(a.coeffs)
        coeffs[0] = 1.0
        return Jet(a.base, coeffs)
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
    raises :class:`~entropydiff.errors.PoleAtPoint`.  Overflow and division
    by zero give inf/NaN silently, as in :meth:`AnalyticExpr.eval`, and an
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
    return Jet(zz, coeffs)


def _eval_jet_tree(expr: AnalyticExpr, z: np.ndarray, order: int, vanished: list) -> Jet:
    """The jet of ``expr`` at the points ``z``.  Each division appends to
    ``vanished`` a mask of the points where more orders could help: those
    that lost orders to a removable zero, and those where the denominator
    showed no nonzero coefficient."""
    kind = expr.kind
    if kind == "const":
        coeffs = np.zeros((order + 1,) + z.shape, dtype=np.complex128)
        coeffs[0] = expr.value
        return Jet(z, coeffs)
    if kind == "z":
        coeffs = np.zeros((order + 1,) + z.shape, dtype=np.complex128)
        coeffs[0] = z
        if order >= 1:
            coeffs[1] = 1.0
        return Jet(z, coeffs)
    if kind == "add":
        return jet_add(_eval_jet_tree(expr.args[0], z, order, vanished), _eval_jet_tree(expr.args[1], z, order, vanished))
    if kind == "sub":
        return jet_sub(_eval_jet_tree(expr.args[0], z, order, vanished), _eval_jet_tree(expr.args[1], z, order, vanished))
    if kind == "mul":
        return jet_mul(_eval_jet_tree(expr.args[0], z, order, vanished), _eval_jet_tree(expr.args[1], z, order, vanished))
    if kind == "div":
        coeffs, deepen = _quotient(_eval_jet_tree(expr.args[0], z, order, vanished), _eval_jet_tree(expr.args[1], z, order, vanished))
        if deepen.any():
            vanished.append(deepen)
        return Jet(z, coeffs)
    if kind == "neg":
        return -_eval_jet_tree(expr.args[0], z, order, vanished)
    if kind == "pow":
        return jet_pow(_eval_jet_tree(expr.args[0], z, order, vanished), expr.value)
    if kind == "exp":
        return jet_exp(_eval_jet_tree(expr.args[0], z, order, vanished))
    raise AssertionError(f"unknown node kind {kind!r}")
