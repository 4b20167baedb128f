"""A fixed reference computation that measures how fast the machine runs now.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, which moves every timing of a run together.  Each worker runs
:func:`reference` right after every command it times, and each fresh
interpreter that times the import runs it right after the import.  Every
time is then reported at the reference speed: multiplied by ``REFERENCE_S``
over the reference time measured next to it.  The reference uses only the
interpreter and numpy, never ``entropydiff``, so a change to the program
cannot move it.  Its mix follows the program's: interpreter work, many small
array calls and some larger ones.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal seconds of one reference call: about the middle of its run medians
# (0.066-0.131 s) on a 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4
# (see README.md).  Only the scale of the reported times depends on it.
REFERENCE_S = 0.1


def _work() -> float:
    acc, table = 0, {}
    for i in range(120_000):
        acc += (i * i) % 7
        table[i & 255] = acc
    z = np.linspace(0.1, 1.0, 144) + 1j * np.linspace(-1.0, 1.0, 144)
    for _ in range(3_000):
        w = np.exp(z) * z + 1.0 / z
        z = z + 1e-9 * w.real
    # arrays of 128 KiB come from the heap the program has already grown,
    # so the reference does not raise the worker's peak RSS
    a = np.linspace(0.0, 10.0, 16_384)
    for _ in range(100):
        b = np.sin(a) * np.cos(a) + np.sqrt(a)
    return acc + float(b[0]) + float(z[0].real)


def reference() -> float:
    """Seconds one reference computation takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
