"""The exact ``%.17g`` text of a float64 array, vectorized with numpy.

An element x with |x| in [1e-270, 1e270] is scaled to y = |x| 10^(16 - e),
e = floor(log10 |x|), in double-double arithmetic: Dekker's exact product
of |x| and the high part of 10^(16 - e), plus |x| times its low part
(Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 18, 1971).  y is then known to about 1e-14, so it
rounds to the 17-digit significand exactly unless it is within 1e-6 of a
tie.  Python's correctly rounded ``%.17g`` writes those elements, those
whose estimate of e was one off and those out of range, so the text is
``format(x, ".17g")`` for every element.

``cli`` imports this module on first use.
"""

from __future__ import annotations

import functools

import numpy as np

_BLOCK = 16384  # elements per pass: its temporaries stay in cache; 65536 took 1.7 times as long (2-core Xeon)
_POWERS = range(-256, 290)  # 10^k for the k = 16 - e of every |x| in [1e-270, 1e270]
_SPLIT = 134217729.0  # 2^27 + 1: cuts a double into two halves of 26 bits
_DIGIT = np.arange(17, dtype=np.uint8)[:, None]


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


def g17(x: np.ndarray, sep: str) -> tuple[str, np.ndarray]:
    """The text of ``format(v, ".17g")`` for every element v of the 1-D
    float64 array ``x``, ``null`` for a non-finite one, each followed by
    ``sep``; and the lengths of the element texts (without ``sep``)."""
    parts = [_block(x[i : i + _BLOCK], sep) for i in range(0, x.size, _BLOCK)]
    return "".join(text for text, _ in parts), np.concatenate([n for _, n in parts])


def _significands(x: np.ndarray):
    """(sig, e, sure): |x| rounded to 17 digits is sig 10^(e - 16) with sig
    in [10^16, 10^17) where ``sure``, and sig = e = 0 elsewhere."""
    ax = np.abs(x)
    sure = (ax >= 1e-270) & (ax <= 1e270)
    ax[~sure] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)  # can be one off next to a power of ten
    hi, top, bottom, lo = (v[16 - _POWERS.start - e] for v in _powers_of_ten())
    big = _SPLIT * ax
    xt = big - (big - ax)
    xb = ax - xt
    p = ax * hi  # y = p + t: Dekker's exact product of |x| and hi, plus |x| lo
    t = ((xt * top - p) + xt * bottom + xb * top) + xb * bottom + ax * lo
    r = np.rint(t)
    t -= r
    sig = p.astype(np.int64) + r.astype(np.int64)  # p >= 2^53 is an integer where y has 17 digits
    sure &= (np.abs(t) < 0.5 - 1e-6) & (sig < 10**17) & ((sig > 10**16) | ((sig == 10**16) & (t >= 0)))
    sig[~sure] = 0
    e[~sure] = 0
    return sig, e, sure


def _block(x: np.ndarray, sep: str) -> tuple[str, np.ndarray]:
    """:func:`g17` on one block.  Each element's text is laid out in a
    column of a (width, n) uint8 array with a row per possible character,
    0 where that character is not written; the rows of characters no
    element writes are left out, and dropping the zeros of the column-major
    bytes gives the text.  The rows are uint8, and a character is selected
    by multiplying by a 0/1 mask, not by ``np.where``: Python ints and uint8
    arrays promote alike under numpy 1.24 and 2.x."""
    sig, e, sure = _significands(x)
    shown = sure | (x == 0)  # written here; zero has e = 0 and no digit but the units
    u8 = np.uint8
    fixed = shown & (e >= -4) & (e < 17)
    sci = shown & ~fixed
    neg = shown & np.signbit(x)
    small = fixed & (e < 0)  # "0." and -e - 1 zeros before the digits
    nonfinite = ~np.isfinite(x)
    digits = _digits(sig)
    nonzero = ((digits != 0) * (_DIGIT + 1)).max(axis=0)  # digits up to the last nonzero one
    units = ((e + 1) * (fixed & (e >= 0))).astype(u8)  # digits before the point in fixed notation
    count = np.maximum(nonzero, units)
    point = units + sci.view(u8)  # digits before the point, which is written if a digit follows it
    point *= nonzero > point
    magnitude = np.abs(e).astype(np.uint16)

    def chars(mask, code):
        return mask.view(u8) * code

    zero, dot = ord("0"), ord(".")
    rows = [chars(neg, ord("-"))] if neg.any() else []
    if small.any():
        rows += [chars(small, zero), chars(small, dot)]
        rows += [chars(m, zero) for m in (small & (e < -z) for z in (1, 2, 3)) if m.any()]
    written = np.bincount(point, minlength=18)
    for j, row in enumerate(chars(_DIGIT < count, digits + zero)):
        rows.append(row)
        if written[j + 1]:
            rows.append(chars(point == j + 1, dot))
    if sci.any():
        rows += [chars(sci, ord("e")), chars(sci, ord("+") + 2 * (e < 0).view(u8))]  # "-" is "+" + 2
        if (sci & (magnitude >= 100)).any():
            rows.append(chars(sci & (magnitude >= 100), zero + magnitude // 100))
        rows += [chars(sci, zero + magnitude // 10 % 10), chars(sci, zero + magnitude % 10)]
    if nonfinite.any():
        rows += [chars(nonfinite, c) for c in b"null"]
    rows += list(sep.encode())
    buf = np.empty((len(rows), x.size), dtype=u8)
    for i, row in enumerate(rows):
        buf[i] = row
    text = buf.tobytes(order="F").translate(None, b"\0").decode("ascii")

    length = count.astype(np.int64)
    length += neg
    length += point > 0
    length += small * (1 - e)
    length += chars(sci, 4)
    length += sci & (magnitude >= 100)
    length += chars(nonfinite, 4)
    hard = np.flatnonzero(~shown & ~nonfinite)
    if hard.size:  # their texts are empty so far; splice Python's in
        strs = [format(v, ".17g") for v in x[hard].tolist()]
        width = length + len(sep)
        at = (np.cumsum(width) - width)[hard].tolist()
        pieces = [text[a:b] for a, b in zip([0] + at, at)]
        text = "".join(p + s for p, s in zip(pieces, strs)) + text[at[-1] :]
        length[hard] = [len(s) for s in strs]
    return text, length


def _digits(sig: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each int64 in [0, 10^17), most significant
    first: a (17, n) uint8 array."""
    out = np.empty((17, sig.size), dtype=np.uint8)
    for v, rows in zip(np.divmod(sig, 10**9), (range(7, -1, -1), range(16, 7, -1))):
        v = v.astype(np.uint32)
        for j in rows:
            q = v // 10
            out[j] = v - q * 10
            v = q
    return out
