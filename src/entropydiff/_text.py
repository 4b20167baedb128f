"""The text of numbers, vectorized with numpy: ``%.{p}g`` for p <= 17, the
shortest round-trip ``repr``, and the digits of non-negative integers.

A float x with |x| in [1e-270, 1e270] is scaled to y = |x| 10^(p - 1 - e),
e = floor(log10 |x|), in double-double arithmetic: Dekker's exact product
of |x| and the high part of 10^(p - 1 - e), plus |x| times its low part
(Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 18, 1971).  y is then known to about 1e-14, so it
rounds to the p-digit significand exactly unless it is within 1e-6 of a
tie.  The shortest round trip starts from the 17 digits of p = 17 and keeps
the fewest leading ones whose nearest rounding is still nearer to x than
half the gap between x and its neighbouring doubles, so that it reads back
as x (Steele and White, PLDI 1990); that is where ``repr`` stops.

A :class:`Style`'s ``python`` writes every element the kernel cannot vouch
for: one within 1e-6 of a unit of a tie or of the edge of that half gap,
one whose estimate of e was one off, one out of range, a non-finite one
and, for the shortest form, a power of two, whose gap below is half its gap
above.  So every element's text is exactly its ``python`` text.

Each element's text is a column of uint8 rows, a row per possible
character and 0 where that character is not written: :func:`float_rows`
and :func:`index_rows` make the rows of an array, and :func:`text` stacks
the rows of several arrays between literal rows, such as ``v `` or the line
break, and drops the zeros of the column-major bytes.  The rows are uint8,
and a character is selected by multiplying by a 0/1 mask, not by
``np.where``: Python ints and uint8 arrays promote alike under numpy 1.24
and 2.x.

``cli`` and ``surface`` import this module on first use.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Callable, NamedTuple

import numpy as np

_POWERS = range(-270, 290)  # 10^k for the k = p - 1 - e of every |x| in [1e-270, 1e270] and p <= 17
_SPLIT = 134217729.0  # 2^27 + 1: cuts a double into two halves of 26 bits
_SLACK = 1e-6  # how near a rounding decision, in units of the last digit, Python takes over
_MANTISSA = np.uint64(2**52 - 1)
_PLACE = np.arange(1, 18, dtype=np.uint8)[:, None]
_U8 = np.uint8
BLOCK = 16384  # elements per call: the temporaries stay in cache; 65536 took 1.7 times as long (2-core Xeon)


class Style(NamedTuple):
    """``%.{digits}g``, or the shortest round trip where digits is 0, and
    the text of an element that the kernel does not write itself."""

    digits: int
    python: Callable[[float], str]


G17 = Style(17, lambda v: format(v, ".17g") if math.isfinite(v) else "null")  # report fields
G9 = Style(9, lambda v: format(v, ".9g"))  # OBJ positions and normals
JSON = Style(0, json.dumps)  # sidecar scalars: repr, and NaN, Infinity, -Infinity


@functools.cache
def _powers_of_ten():
    """10^k for k in ``_POWERS`` as hi + lo, each correctly rounded from exact
    integers (an int / int quotient rounds correctly), so hi + lo is 10^k to
    2^-106 relative; and hi cut by ``_SPLIT`` for Dekker's exact product."""
    hi, lo = [], []
    for k in _POWERS:
        if k >= 0:
            h = float(10**k)
            lo.append(float(10**k - int(h)))
        else:
            h, d = 1 / 10**-k, 10**-k
            a, b = h.as_integer_ratio()
            lo.append((b - a * d) / (b * d))  # 1/d - a/b
        hi.append(h)
    hi = np.array(hi)
    big = _SPLIT * hi
    top = big - (big - hi)
    return hi, top, hi - top, np.array(lo)


def text(parts, n: int) -> str:
    """The text of n records, each the concatenation of ``parts`` in order:
    a bytes part is written in every record, any other is a sequence of n
    uint8 rows as :func:`float_rows` returns them, the record's element in
    each of them."""
    rows = [row for part in parts for row in part]
    buf = np.empty((len(rows), n), dtype=_U8)
    for i, row in enumerate(rows):
        buf[i] = row
    return buf.tobytes(order="F").translate(None, b"\0").decode("ascii")


def index_rows(v: np.ndarray) -> list:
    """The digits of every element of the 1-D int64 array ``v``, each in
    [0, 10^18), without leading zeros: a list of uint8 rows."""
    if v.size and not (v.min() >= 0 and v.max() < 10**18):
        raise ValueError("an index to write is negative or has more than 18 digits")
    digits = _digits(v, len(str(v.max())) if v.size else 1)
    written = np.logical_or.accumulate(digits != 0, axis=0)
    written[-1] = True  # the units, which write 0
    return list(written.view(_U8) * (digits + ord("0")))


def float_rows(x: np.ndarray, style: Style) -> list:
    """The text of every element of the 1-D real array ``x``, as a float64,
    in ``style``: a list of uint8 rows."""
    x = x.astype(np.float64, casting="same_kind", copy=False)
    ax = np.abs(x)
    sure = (ax >= 1e-270) & (ax <= 1e270)
    ax[~sure] = 1.0
    width = style.digits or 17
    sig, e, t = _scaled(ax, width)
    sure &= (np.abs(t) < 0.5 - _SLACK) & (sig < 10**width)
    sure &= (sig > 10 ** (width - 1)) | ((sig == 10 ** (width - 1)) & (t >= 0))
    if not style.digits:
        sig, e, sure = _shortest(ax, sig, e, t, sure)
    sig *= sure
    e *= sure
    shown = sure | (x == 0)  # written here; zero has e = 0 and no digit but the units
    fixed = shown & (e >= -4) & (e < (style.digits or 16))
    sci = shown & ~fixed
    neg = shown & np.signbit(x)
    small = fixed & (e < 0)  # "0." and -e - 1 zeros before the digits
    digits = _digits(sig, width)
    nonzero = ((digits != 0) * _PLACE[:width]).max(axis=0)  # digits up to the last nonzero one
    units = ((e + 1) * (fixed & (e >= 0))).astype(_U8)  # digits before the point in fixed notation
    count = np.maximum(nonzero, units)
    point = units + sci.view(_U8)  # digits before the point, which is written if a digit follows it
    trail = fixed & (e >= 0) & (nonzero <= point) & (not style.digits)  # repr's ".0"
    point *= (nonzero > point) | trail
    magnitude = np.abs(e).astype(np.uint16)

    def chars(mask, code):
        return mask.view(_U8) * code

    zero, dot = ord("0"), ord(".")
    rows = [chars(neg, ord("-"))] if neg.any() else []
    if small.any():
        rows += [chars(small, zero), chars(small, dot)]
        rows += [chars(m, zero) for m in (small & (e < -z) for z in (1, 2, 3)) if m.any()]
    written = np.bincount(point, minlength=18)
    digits += zero
    digits *= _PLACE[:width] <= count
    for j in range(int(count.max(initial=0))):
        rows.append(digits[j])
        if written[j + 1]:
            rows.append(chars(point == j + 1, dot))
    if trail.any():
        rows.append(chars(trail, zero))
    if sci.any():
        rows += [chars(sci, ord("e")), chars(sci, ord("+") + 2 * (e < 0).view(_U8))]  # "-" is "+" + 2
        if (sci & (magnitude >= 100)).any():
            rows.append(chars(sci & (magnitude >= 100), zero + magnitude // 100))
        rows += [chars(sci, zero + magnitude // 10 % 10), chars(sci, zero + magnitude % 10)]
    hard = np.flatnonzero(~shown)
    if hard.size:  # their rows are empty so far; Python's text gets rows of its own
        strs = [style.python(v) for v in x[hard].tolist()]
        size = max(map(len, strs))
        chosen = np.frombuffer("".join(s.ljust(size, "\0") for s in strs).encode("ascii"), dtype=_U8)
        extra = np.zeros((size, x.size), dtype=_U8)
        extra[:, hard] = chosen.reshape(hard.size, size).T
        rows += list(extra)
    return rows


def _scaled(ax: np.ndarray, p: int):
    """(sig, e, t): e = floor(log10 |x|) but for being one off next to a
    power of ten, and |x| 10^(p - 1 - e) = sig + t to about 1e-14, with sig
    an int64 and |t| <= 1/2, for every |x| in [1e-270, 1e270]."""
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, top, bottom, lo = (v[p - 1 - _POWERS.start - e] for v in _powers_of_ten())
    big = _SPLIT * ax
    xt = big - (big - ax)
    xb = ax - xt
    y = ax * hi  # y + t: Dekker's exact product of |x| and hi, plus |x| lo
    t = ((xt * top - y) + xt * bottom + xb * top) + xb * bottom + ax * lo
    r = np.rint(y)
    t += y - r  # exact: r is y itself from 2^52 on, and within 1/2 of it below
    s = np.rint(t)
    t -= s
    return r.astype(np.int64) + s.astype(np.int64), e, t


def _shortest(ax, sig, e, t, sure):
    """(sig, e, sure) for the shortest round trip, from the 17-digit (sig,
    e, t, sure) of ``_scaled``: sig keeps 17 digits, of which those after
    the shortest are 0.  The nearest rounding to k fewer digits reads back
    as |x| if it is within h of |x| 10^(16 - e), h the half gap between
    doubles there; that holds for every k up to the last it holds for,
    since a coarser rounding is never nearer."""
    sure &= (ax.view(np.uint64) & _MANTISSA) != 0  # not a power of two
    h = (sig + t) * (0.5 * np.spacing(ax) / ax)  # in (0.55, 11.1]: above 1/2, so 17 digits read back
    out = sig.copy()
    unsure = np.zeros_like(sure)
    live = np.flatnonzero(sure)
    for k in range(1, 17):
        m = 10**k
        s = sig[live]
        q = s // m
        rem = s - q * m  # as np.divmod gives, in less time (see _digits)
        f = t[live]
        down = np.abs(rem + f)  # the distance to q m; rem + f > -1/2
        up = (m - rem) - f  # to (q + 1) m
        near = np.minimum(down, up)
        gap = h[live]
        unsure[live] |= (np.abs(near - gap) <= _SLACK) | ((np.abs(down - up) <= _SLACK) & (near < gap + _SLACK))
        ok = near < gap
        live, q, up, down = live[ok], q[ok], up[ok], down[ok]
        if not live.size:
            break
        out[live] = (q + (up < down)) * m
    carry = out == 10**17  # rounded up to a power of ten: 1 in the next decade
    out[carry] = 10**16
    e[carry] += 1
    return out, e, sure & ~unsure


def _digits(v: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` low decimal digits of each int64 in [0, 10^18), most
    significant first: a (width, n) uint8 array."""
    out = np.empty((width, v.size), dtype=_U8)
    j = width
    parts = (v,)
    if width > 9:
        q = v // 10**9
        parts = (v - q * 10**9, q)  # np.divmod's pair, in 38 us, not 67, on 16384 elements (2-core Xeon)
    for part in parts:
        part = part.astype(np.uint32)
        for _ in range(min(j, 9)):
            j -= 1
            q = part // 10
            out[j] = part - q * 10
            part = q
    return out
